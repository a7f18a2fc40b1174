#ifndef T3_HARNESS_EVALUATE_H_
#define T3_HARNESS_EVALUATE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/corpus.h"
#include "model/t3_model.h"
#include "treejit/evaluator.h"

namespace t3 {

/// The paper's accuracy metric: q-error = max(pred/actual, actual/pred),
/// with both sides floored at kMinSeconds so the ratio is finite.
double QError(double predicted_seconds, double actual_seconds);

/// p50 / p90 / mean of a set of q-errors, the triple reported by every
/// accuracy table in the paper, plus the count and worst case the deviation
/// tables break out. All zero for an empty input.
struct QErrorSummary {
  double p50 = 0.0;
  double p90 = 0.0;
  double avg = 0.0;
  double max = 0.0;
  size_t count = 0;

  /// "n=24 p50=1.234 p90=2.345 avg=1.901 max=12.345", the one-line form
  /// bench binaries print under their tables.
  std::string ToString() const;
};

/// The canonical reducer of q-errors to the paper's reported triple (both
/// the benches and the tests go through this one name).
QErrorSummary Summarize(const std::vector<double>& q_errors);

/// Records matching a predicate, e.g. bench filters IsTest / IsTrain.
std::vector<const QueryRecord*> SelectRecords(
    const Corpus& corpus,
    const std::function<bool(const QueryRecord&)>& predicate);

/// Which stored feature set predictions read: measured cardinalities ("FT"
/// lines) or the estimator's ("FE" lines, Figure 11's degraded setting).
enum class CardinalityMode { kTrue = 0, kEstimated = 1 };

/// The record's pipeline feature rows under `mode`.
const std::vector<PipelineFeatures>& PipelineRows(const QueryRecord& record,
                                                  CardinalityMode mode);

/// Predicted seconds of each record under `model`: the record's pipeline
/// rows under `mode` go through the model's QueryBatch rules, and every
/// input row of the whole set is predicted in one `evaluator.PredictBatch`
/// call. Rows whose width differs from the model's are skipped, the rule
/// BuildTrainingMatrix applies too. `evaluator` must evaluate
/// model.forest(); every ForestEvaluator is bit-identical to Forest::Predict,
/// so the choice never changes a bit. One value per record, in order.
std::vector<double> PredictQuerySecondsBatched(
    const T3Model& model, const ForestEvaluator& evaluator,
    const std::vector<const QueryRecord*>& records,
    CardinalityMode mode = CardinalityMode::kTrue);

/// Predicted seconds of one record: PredictQuerySecondsBatched over
/// model.forest()'s FlatEvaluator.
double PredictQuerySeconds(const T3Model& model, const QueryRecord& record,
                           CardinalityMode mode = CardinalityMode::kTrue);

/// Q-errors of `model` over `records` against measured medians.
std::vector<double> QErrors(const T3Model& model,
                            const std::vector<const QueryRecord*>& records,
                            CardinalityMode mode = CardinalityMode::kTrue);

/// One record's evaluation under a model: what the paper's accuracy tables
/// are made of before Summarize reduces them.
struct RecordEvaluation {
  const QueryRecord* record = nullptr;
  double predicted_seconds = 0.0;
  double actual_seconds = 0.0;  ///< The record's measured median.
  double q_error = 0.0;
};

/// Evaluates `model` over every record through PredictQuerySecondsBatched
/// (FlatEvaluator): predicted vs measured seconds plus the q-error, one entry
/// per record in input order.
std::vector<RecordEvaluation> EvaluateModel(
    const T3Model& model, const std::vector<const QueryRecord*>& records,
    CardinalityMode mode = CardinalityMode::kTrue);

/// The q-error column of a set of evaluations, in order.
std::vector<double> QErrors(const std::vector<RecordEvaluation>& evals);

/// Reduces per-record evaluations to the paper's reported summary.
QErrorSummary Summarize(const std::vector<RecordEvaluation>& evals);

}  // namespace t3

#endif  // T3_HARNESS_EVALUATE_H_
