#include "server/plan_features.h"

#include <utility>

#include "features/featurizer.h"
#include "plan/pipeline.h"
#include "plan/plan.h"
#include "plan/plan_file.h"
#include "storage/catalog.h"

namespace t3 {

Result<PlanPredictionInput> BuildPlanPredictionInput(
    std::string_view plan_text) {
  Result<std::vector<PlanNodeRecord>> records = ParsePlanText(plan_text);
  if (!records.ok()) return records.status();
  Result<PhysicalPlan> plan = PlanFromRecords(*records);
  if (!plan.ok()) return plan.status();
  Result<PipelineDecomposition> decomposition = DecomposePipelines(*plan);
  if (!decomposition.ok()) return decomposition.status();

  // Skeletons carry no filter payloads, so featurization never touches the
  // catalog (see ComputePipelineFeatures); an empty one satisfies the API.
  const Catalog empty_catalog;
  Result<std::vector<PipelineFeatures>> features =
      ComputePipelineFeatures(empty_catalog, *plan, *decomposition,
                              NodeOutputRowsFromPlan(*plan));
  if (!features.ok()) return features.status();

  PlanPredictionInput input;
  for (const PipelineFeatures& pipeline : *features) {
    if (input.num_features == 0) {
      input.num_features = pipeline.values.size();
      input.rows.reserve(features->size() * input.num_features);
    }
    input.rows.insert(input.rows.end(), pipeline.values.begin(),
                      pipeline.values.end());
    input.input_cardinalities.push_back(pipeline.input_cardinality);
  }
  if (input.num_rows() == 0) {
    return InvalidArgumentError("plan decomposes into zero pipelines");
  }
  return input;
}

}  // namespace t3
