#ifndef T3_MODEL_T3_MODEL_H_
#define T3_MODEL_T3_MODEL_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gbt/forest.h"

namespace t3 {

/// What one model prediction stands for. The integer values are the wire
/// format of the "t3model target <n>" file header (data/model_*.txt; see
/// ParseModelHeader).
enum class PredictionTarget {
  kPerTuple = 0,    ///< Main T3 model: time to push one tuple through a
                    ///  pipeline; multiply by input cardinality.
  kPerPipeline = 1, ///< Ablation: total pipeline time directly.
  kPerQuery = 2,    ///< Ablation / AutoWLM-like: whole-query time from one
                    ///  per-query feature vector.
};

/// Floor for measured times entering the log transform.
inline constexpr double kMinSeconds = 1e-12;

/// T3 trains on negated log time: targets are positive and MAPE-friendly
/// (a measured 1us pipeline maps to ~13.8).
inline double TransformTarget(double seconds) {
  return -std::log(std::max(seconds, kMinSeconds));
}

/// Inverse of TransformTarget: model output back to seconds.
inline double InverseTransformTarget(double y) { return std::exp(-y); }

/// Raw output to seconds: the inverse transform, scaled for kPerTuple by
/// the row's input cardinality (floored at one tuple). Other targets
/// ignore the cardinality.
inline double OutputSeconds(PredictionTarget target, double raw,
                            double input_cardinality) {
  const double seconds = InverseTransformTarget(raw);
  if (target == PredictionTarget::kPerTuple) {
    return seconds * std::max(input_cardinality, 1.0);
  }
  return seconds;
}

/// Seconds to training label, the inverse of OutputSeconds: kPerTuple
/// labels are per-tuple seconds.
inline double TrainingLabel(PredictionTarget target, double seconds,
                            double input_cardinality) {
  if (target == PredictionTarget::kPerTuple) {
    seconds /= std::max(input_cardinality, 1.0);
  }
  return TransformTarget(seconds);
}

/// A batch of queries in the form a model reads them, and the way back from
/// its raw outputs to query seconds. This is the one definition of what a
/// PredictionTarget means; the trainer, the evaluation harness and the
/// server all go through it:
///
///  - query rows to model input: each pipeline row is its own input row,
///    or for kPerQuery the query's pipeline rows summed elementwise left to
///    right form one input row;
///  - query seconds: OutputSeconds summed left to right over the query's
///    input rows (0 for a query without rows).
class QueryBatch {
 public:
  QueryBatch() = default;
  QueryBatch(PredictionTarget target, size_t width) { Reset(target, width); }

  /// Empties the batch for `target` rows of `width` values, keeping its
  /// capacity.
  void Reset(PredictionTarget target, size_t width);

  /// Starts the next query.
  void AddQuery();

  /// Adds one pipeline row of width() values to the current query (call
  /// AddQuery first).
  void AddPipeline(const double* values, double input_cardinality);

  size_t num_rows() const { return cardinalities_.size(); }
  /// The input rows, row-major: num_rows() x width().
  const std::vector<double>& rows() const { return rows_; }

  /// Seconds of query `query`, given `raw`: the model's outputs for every
  /// input row of the batch.
  double QuerySeconds(size_t query, const double* raw) const;

  /// Training labels, one per input row: TrainingLabel of the measured time
  /// the row stands for. `pipeline_seconds` has one entry per AddPipeline
  /// call and `query_seconds` one per AddQuery call; kPerQuery rows take
  /// their query's time, the other targets their pipeline's.
  std::vector<double> Labels(const std::vector<double>& pipeline_seconds,
                             const std::vector<double>& query_seconds) const;

 private:
  /// One past the last input row of query `query`.
  size_t QueryEnd(size_t query) const {
    return query + 1 < query_begin_.size() ? query_begin_[query + 1]
                                           : num_rows();
  }

  PredictionTarget target_ = PredictionTarget::kPerTuple;
  size_t width_ = 0;
  std::vector<double> rows_;
  std::vector<double> cardinalities_;  ///< One per input row.
  std::vector<size_t> query_begin_;    ///< First input row of each query.
};

/// Reads the line that opens every model file, "t3model target <n>", and
/// removes it from `*text`, which is left at the "t3gbt v1" forest body.
/// The line is split into tokens by TokenCursor's rules, as the body is
/// (runs of spaces and tabs, and a trailing '\r'), and must hold exactly
/// "t3model", "target" and a PredictionTarget id 0..2; a missing header is
/// an error, not a default target. InvalidArgument otherwise. The one reader
/// of the header: T3Model::LoadFromFile and t3_lint call it.
Result<PredictionTarget> ParseModelHeader(std::string_view* text);

/// A trained T3 predictor: a GBDT forest plus the semantics of its output.
/// Serialized as the forest's text format behind a one-line header:
///
///   t3model target 0
///   t3gbt v1
///   ...
class T3Model {
 public:
  T3Model() = default;
  T3Model(Forest forest, PredictionTarget target)
      : forest_(std::move(forest)), target_(target) {}

  const Forest& forest() const { return forest_; }
  PredictionTarget target() const { return target_; }

  /// Raw model output (transformed domain) for one feature row.
  double PredictRaw(const double* row) const { return forest_.Predict(row); }

  /// Predicted seconds of one input row (OutputSeconds of its raw output).
  double PredictPipelineSeconds(const double* row,
                                double input_cardinality) const {
    return OutputSeconds(target_, PredictRaw(row), input_cardinality);
  }

  Status SaveToFile(const std::string& path) const;
  /// ParseModelHeader, then Forest::FromText over the body: the returned
  /// forest has passed Forest::Validate.
  static Result<T3Model> LoadFromFile(const std::string& path);

 private:
  Forest forest_;
  PredictionTarget target_ = PredictionTarget::kPerTuple;
};

}  // namespace t3

#endif  // T3_MODEL_T3_MODEL_H_
