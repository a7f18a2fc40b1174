#ifndef T3_SERVER_PLAN_FEATURES_H_
#define T3_SERVER_PLAN_FEATURES_H_

#include <string_view>
#include <vector>

#include "common/status.h"

namespace t3 {

/// The prediction input derived from one serialized plan: per-pipeline
/// feature rows (row-major, kFeatureDim wide) plus each pipeline's driving
/// cardinality — what a kPredictRows request would carry. The server treats
/// them as one query's pipeline rows, so the plan's prediction follows the
/// model's QueryBatch rules: the pipeline predictions summed in pipeline
/// order, or for a kPerQuery model one prediction over the summed row.
struct PlanPredictionInput {
  size_t num_features = 0;
  std::vector<double> rows;
  std::vector<double> input_cardinalities;

  size_t num_rows() const { return input_cardinalities.size(); }
};

/// Parses "t3plan v1" skeleton text, validates the plan, decomposes it into
/// pipelines, and featurizes using the plan's own cardinality annotations
/// (the estimated-cardinality featurization — a fresh plan has no measured
/// counts yet). Skeleton plans carry no filter payloads, so the
/// predicate-class feature slots stay zero and no catalog is consulted.
/// InvalidArgument on malformed text or an invalid plan.
Result<PlanPredictionInput> BuildPlanPredictionInput(
    std::string_view plan_text);

}  // namespace t3

#endif  // T3_SERVER_PLAN_FEATURES_H_
