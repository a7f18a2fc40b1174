#ifndef T3_PLAN_PLAN_RECORD_H_
#define T3_PLAN_PLAN_RECORD_H_

namespace t3 {

/// One physical plan node as serialized on a corpus "N" line:
///
///   N <op> <left> <right> <cardinality> <extra> <width> <stage>
///
/// This is the *shared schema* between live plans (src/plan) and benchmarked
/// corpora (src/harness): PlanToRecords / PlanFromRecords convert a
/// PhysicalPlan to and from this row form, and ReadPlanNodeLine /
/// AppendPlanNodeLine (plan/plan_file.h) move the rows to and from plan
/// files and corpora verbatim. Operator payloads (key columns,
/// predicates, aggregate lists) are not part of the N schema — the corpus
/// stores plan *shape* and annotations, features live on FT/FE lines.
///
/// `op` is a PlanOp code (see plan/plan.h). `left`/`right` are indices of
/// earlier nodes in the same record, -1 for none. `extra` is the op-specific
/// scalar documented at PlanToRecords. `stage` is the pipeline id assigned
/// by DecomposePipelines; serialized tags are never negative (PlanToRecords
/// writes 0 for an undecomposed plan, CheckPlanRecords rejects < 0).
struct PlanNodeRecord {
  int op = 0;
  int left = -1;
  int right = -1;
  double cardinality = 0.0;
  double extra = 0.0;
  double width = 0.0;
  int stage = 0;
};

}  // namespace t3

#endif  // T3_PLAN_PLAN_RECORD_H_
