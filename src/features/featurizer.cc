#include "features/featurizer.h"

#include <algorithm>

#include "common/string_util.h"

namespace t3 {

std::vector<double> NodeOutputRowsFromPlan(const PhysicalPlan& plan) {
  std::vector<double> rows;
  rows.reserve(plan.nodes.size());
  for (const PlanNode& node : plan.nodes) rows.push_back(node.cardinality);
  return rows;
}

namespace {

/// Adds `value` to the feature of (stage, kind) when the stage carries it.
void Add(std::vector<double>* values, int stage, FeatureKind kind,
         double value) {
  const int index = FeatureRegistry::Get().StageFeature(stage, kind);
  if (index >= 0) (*values)[static_cast<size_t>(index)] += value;
}

}  // namespace

Result<std::vector<PipelineFeatures>> ComputePipelineFeatures(
    const Catalog& catalog, const PhysicalPlan& plan,
    const PipelineDecomposition& decomposition,
    const std::vector<double>& node_output_rows) {
  if (node_output_rows.size() != plan.nodes.size()) {
    return InvalidArgumentError(StrFormat(
        "node_output_rows has %zu entries for a %zu-node plan",
        node_output_rows.size(), plan.nodes.size()));
  }
  // Column schemas feed only the predicate-class features. A payload-free
  // skeleton plan (PlanFromRecords output; the server's kPredictPlan
  // requests) names no scan tables and rehydrates filters with placeholder
  // predicates, so it featurizes without consulting the catalog at all —
  // resolving schemas eagerly would reject it for its missing table
  // payloads, and placeholder predicates carry no class information.
  const bool has_scan_payloads = std::any_of(
      plan.nodes.begin(), plan.nodes.end(), [](const PlanNode& node) {
        return node.op == PlanOp::kScan && !node.table.empty();
      });
  const bool needs_schemas =
      has_scan_payloads &&
      std::any_of(plan.nodes.begin(), plan.nodes.end(),
                  [](const PlanNode& node) {
                    return node.op == PlanOp::kFilter &&
                           !node.predicates.empty();
                  });
  std::vector<std::vector<ColumnType>> schemas;
  if (needs_schemas) {
    Result<std::vector<std::vector<ColumnType>>> resolved =
        ResolvePlanSchemas(catalog, plan);
    if (!resolved.ok()) return resolved.status();
    schemas = *std::move(resolved);
  }

  const FeatureRegistry& registry = FeatureRegistry::Get();
  std::vector<PipelineFeatures> result;
  result.reserve(decomposition.pipelines.size());

  for (const Pipeline& pipeline : decomposition.pipelines) {
    PipelineFeatures features;
    features.pipeline = pipeline.id;
    features.values.assign(static_cast<size_t>(registry.num_features()), 0.0);

    const double driving =
        node_output_rows[static_cast<size_t>(pipeline.source())];
    features.input_cardinality = driving;
    const double denom = std::max(driving, 1.0);

    for (size_t position = 0; position < pipeline.nodes.size(); ++position) {
      const int id = pipeline.nodes[position];
      const PlanNode& node = plan.nodes[static_cast<size_t>(id)];
      const OpStage stage_kind = PipelineStageAt(
          plan, pipeline.nodes, position, pipeline.builds_hash_table);
      const int stage = StageIndexOf(node.op, stage_kind);
      if (stage < 0) {
        return InvalidArgumentError(
            StrFormat("operator %s has no stage catalog entry for its role "
                      "in pipeline %d",
                      PlanOpName(node.op), pipeline.id));
      }

      // Tuples entering this occurrence: the stream predecessor's output,
      // or the node's own output at the source (a source re-emits what it
      // materialized). Widths follow the same two flows.
      const int stream_pred =
          position == 0 ? id : pipeline.nodes[position - 1];
      const double in_rows =
          node_output_rows[static_cast<size_t>(stream_pred)];
      const double in_width =
          plan.nodes[static_cast<size_t>(stream_pred)].width;
      // A join's build stage consumes the build-side stream but emits
      // nothing into this pipeline; keep out = in so the shared loop below
      // stays uniform (the stage carries no out-kinds anyway).
      const double out_rows =
          stage_kind == OpStage::kBuild && node.op == PlanOp::kHashJoin
              ? in_rows
              : node_output_rows[static_cast<size_t>(id)];

      Add(&features.values, stage, FeatureKind::kCount, 1.0);
      Add(&features.values, stage, FeatureKind::kInCard, in_rows);
      Add(&features.values, stage, FeatureKind::kOutCard, out_rows);
      Add(&features.values, stage, FeatureKind::kInSize, in_width);
      Add(&features.values, stage, FeatureKind::kOutSize, node.width);
      Add(&features.values, stage, FeatureKind::kInPercentage,
          in_rows / denom);
      Add(&features.values, stage, FeatureKind::kOutPercentage,
          out_rows / denom);
      if (node.op == PlanOp::kHashJoin && stage_kind == OpStage::kProbe) {
        Add(&features.values, stage, FeatureKind::kRightPercentage,
            node_output_rows[static_cast<size_t>(node.right)] / denom);
      }

      if (needs_schemas && node.op == PlanOp::kFilter &&
          !node.predicates.empty()) {
        const std::vector<ColumnType>& input_schema =
            schemas[static_cast<size_t>(node.left)];
        for (const FilterPredicate& predicate : node.predicates) {
          if (predicate.column < 0 ||
              predicate.column >= static_cast<int>(input_schema.size())) {
            return InvalidArgumentError(StrFormat(
                "filter node %d predicate column %d out of range", id,
                predicate.column));
          }
          const int slot = PredClassSlot(
              predicate.cmp,
              input_schema[static_cast<size_t>(predicate.column)]);
          if (slot < 0) continue;  // String predicates have no class slot.
          features.values[static_cast<size_t>(registry.PredFeature(slot))] +=
              in_rows / denom;
        }
      }
    }
    result.push_back(std::move(features));
  }
  return result;
}

}  // namespace t3
