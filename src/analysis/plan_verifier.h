#ifndef T3_ANALYSIS_PLAN_VERIFIER_H_
#define T3_ANALYSIS_PLAN_VERIFIER_H_

#include <vector>

#include "common/report.h"
#include "plan/plan.h"
#include "plan/plan_record.h"

namespace t3 {

/// Static verifier for physical plans — the data-path counterpart of
/// ForestVerifier. Its Errors start with the plan rules (CheckPlan /
/// CheckPlanRecords in plan/plan.h), the same report ValidatePlan and
/// PlanFromRecords gate on, and add the checks only a verifier makes,
/// reporting every finding so t3_lint can show a corrupted fixture's full
/// damage at once.
///
/// Diagnostics anchor `node` to the plan node index (`tree` stays -1; plans
/// have no tree axis). Check ids of the plan rules: plan-empty, plan-op,
/// plan-arity, plan-topology, plan-consumer, plan-root, plan-annotation,
/// plan-payload, and for serialized rows plan-stage (negative tag) and
/// plan-extra (an `extra` the skeleton cannot reproduce). The verifier's
/// own:
///   plan-extra      — node.extra diverges from PlanNodeExtra(node).
///   plan-stage      — stage tags diverge from a recomputed pipeline
///                     decomposition (e.g. a zeroed breaker tag).
///   plan-breaker    — a pipeline's source/sink/interior operator violates
///                     breaker placement (T3 §3 pipeline rules), or its
///                     driving cardinality is insane.
///   plan-schema     — catalog type-checking failed (only with a catalog).
///   plan-width      — width annotation diverges from the schema width
///                     (warning; callers may overwrite annotations).
class PlanVerifier {
 public:
  /// Verifies a payload-carrying plan. With a catalog, additionally resolves
  /// every operator edge's schema (the executor's type checks) and
  /// cross-checks width annotations.
  AnalysisReport Verify(const PhysicalPlan& plan,
                        const Catalog* catalog = nullptr) const;

  /// Verifies serialized plan rows (corpus "N" lines / "t3plan v1" files):
  /// CheckPlanRecords first, then — when PlanFromRecords accepts them — the
  /// full plan checks over the rehydrated skeleton. Skeletons carry no
  /// payloads, so catalog checks do not apply.
  AnalysisReport VerifyRecords(
      const std::vector<PlanNodeRecord>& records) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_PLAN_VERIFIER_H_
