#include "analysis/plan_verifier.h"

#include <cmath>
#include <string>

#include "common/string_util.h"
#include "plan/pipeline.h"

namespace t3 {
namespace {

bool IsStreaming(PlanOp op) {
  return op == PlanOp::kFilter || op == PlanOp::kProject ||
         op == PlanOp::kLimit;
}

bool IsFullBreaker(PlanOp op) {
  return op == PlanOp::kHashAggregate || op == PlanOp::kSort;
}

/// Pipeline-decomposition invariants: stage-tag coverage, breaker placement,
/// and driving-cardinality sanity against a fresh decomposition. Only runs
/// on structurally sound plans (DecomposePipelines revalidates).
void CheckDecomposition(AnalysisReport* report, const PhysicalPlan& plan) {
  Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
  if (!decomposition.ok()) {
    report->Add(Severity::kError, "plan-breaker", -1, -1,
                StrFormat("pipeline decomposition failed: %s",
                          decomposition.status().message().c_str()));
    return;
  }

  // Stage tags must match the recomputed decomposition. All -1 means the
  // plan was never annotated (a builder output) and is left alone; anything
  // else — including all-zero tags on a multi-pipeline plan, the signature
  // of dropped breaker annotations — must agree node for node.
  bool annotated = false;
  for (const PlanNode& node : plan.nodes) annotated |= node.stage != -1;
  if (annotated) {
    for (size_t i = 0; i < plan.nodes.size(); ++i) {
      const int expected = decomposition->node_pipeline[i];
      if (plan.nodes[i].stage != expected) {
        report->Add(Severity::kError, "plan-stage", -1, static_cast<int>(i),
                    StrFormat("stage tag %d does not match recomputed "
                              "pipeline %d",
                              plan.nodes[i].stage, expected));
      }
    }
  }

  for (const Pipeline& pipeline : decomposition->pipelines) {
    auto bad = [&](int node, const char* message) {
      report->Add(Severity::kError, "plan-breaker", -1, node,
                  StrFormat("pipeline %d: %s", pipeline.id, message));
    };
    if (pipeline.nodes.size() < 2) {
      bad(pipeline.nodes.empty() ? -1 : pipeline.nodes.front(),
          "fewer than two nodes (a source streaming into a sink is the "
          "minimum)");
      continue;
    }
    const PlanOp source = plan.nodes[static_cast<size_t>(
        pipeline.source())].op;
    if (source != PlanOp::kScan && !IsFullBreaker(source)) {
      bad(pipeline.source(),
          "source must be a table scan or a breaker's materialized output");
    }
    const PlanOp sink = plan.nodes[static_cast<size_t>(pipeline.sink())].op;
    if (pipeline.builds_hash_table) {
      if (sink != PlanOp::kHashJoin) {
        bad(pipeline.sink(),
            "a hash-table-building pipeline must end at a hash join");
      }
    } else if (sink != PlanOp::kOutput && !IsFullBreaker(sink)) {
      bad(pipeline.sink(),
          "sink must be the output, a full breaker, or a join build side");
    }
    for (size_t p = 1; p + 1 < pipeline.nodes.size(); ++p) {
      const int id = pipeline.nodes[p];
      const PlanOp op = plan.nodes[static_cast<size_t>(id)].op;
      if (!IsStreaming(op) && op != PlanOp::kHashJoin) {
        bad(id, "interior operators must stream (or probe a hash join)");
      }
    }
    const double driving = pipeline.driving_cardinality;
    if (!std::isfinite(driving) || driving < 0.0) {
      bad(pipeline.source(), "driving cardinality must be finite and "
                             "non-negative");
    } else if (driving !=
               plan.nodes[static_cast<size_t>(pipeline.source())]
                   .cardinality) {
      bad(pipeline.source(),
          "driving cardinality diverges from the source's cardinality");
    }
  }
}

}  // namespace

AnalysisReport PlanVerifier::Verify(const PhysicalPlan& plan,
                                    const Catalog* catalog) const {
  AnalysisReport report = CheckPlan(plan);
  const int n = static_cast<int>(plan.nodes.size());
  for (int i = 0; i < n; ++i) {
    const PlanNode& node = plan.nodes[static_cast<size_t>(i)];
    if (!IsPlanOpCode(static_cast<int>(node.op))) continue;
    const double expected_extra = PlanNodeExtra(node);
    if (std::isfinite(node.extra) && node.extra != expected_extra) {
      report.Add(Severity::kError, "plan-extra", -1, i,
                 StrFormat("extra %g diverges from the payload-implied "
                           "value %g",
                           node.extra, expected_extra));
    }
  }

  if (!report.HasErrors()) CheckDecomposition(&report, plan);

  if (catalog != nullptr && !report.HasErrors()) {
    Result<std::vector<std::vector<ColumnType>>> schemas =
        ResolvePlanSchemas(*catalog, plan);
    if (!schemas.ok()) {
      report.Add(Severity::kError, "plan-schema", -1, -1,
                 std::string(schemas.status().message()));
    } else {
      for (int i = 0; i < n; ++i) {
        double width = 0.0;
        for (ColumnType type : (*schemas)[static_cast<size_t>(i)]) {
          width += ColumnTypeWidthBytes(type);
        }
        if (plan.nodes[static_cast<size_t>(i)].width != width) {
          report.Add(Severity::kWarning, "plan-width", -1, i,
                     StrFormat("width annotation %g diverges from the "
                               "schema width %g",
                               plan.nodes[static_cast<size_t>(i)].width,
                               width));
        }
      }
    }
  }
  return report;
}

AnalysisReport PlanVerifier::VerifyRecords(
    const std::vector<PlanNodeRecord>& records) const {
  // PlanFromRecords gates on CheckPlanRecords: when it refuses, that report
  // is every finding; otherwise the exact skeleton gets the plan checks.
  Result<PhysicalPlan> plan = PlanFromRecords(records);
  if (!plan.ok()) return CheckPlanRecords(records);
  return Verify(*plan, /*catalog=*/nullptr);
}

}  // namespace t3
