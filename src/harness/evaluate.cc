#include "harness/evaluate.h"

#include <algorithm>

#include "common/stats.h"
#include "common/string_util.h"

namespace t3 {

double QError(double predicted_seconds, double actual_seconds) {
  const double p = std::max(predicted_seconds, kMinSeconds);
  const double a = std::max(actual_seconds, kMinSeconds);
  return std::max(p / a, a / p);
}

std::string QErrorSummary::ToString() const {
  return StrFormat("n=%zu p50=%.3f p90=%.3f avg=%.3f max=%.3f", count, p50,
                   p90, avg, max);
}

QErrorSummary Summarize(const std::vector<double>& q_errors) {
  QErrorSummary summary;
  if (q_errors.empty()) return summary;
  summary.p50 = Quantile(q_errors, 0.5);
  summary.p90 = Quantile(q_errors, 0.9);
  summary.avg = Mean(q_errors);
  summary.max = *std::max_element(q_errors.begin(), q_errors.end());
  summary.count = q_errors.size();
  return summary;
}

std::vector<const QueryRecord*> SelectRecords(
    const Corpus& corpus,
    const std::function<bool(const QueryRecord&)>& predicate) {
  std::vector<const QueryRecord*> selected;
  for (const QueryRecord& record : corpus.records) {
    if (predicate(record)) selected.push_back(&record);
  }
  return selected;
}

const std::vector<PipelineFeatures>& PipelineRows(const QueryRecord& record,
                                                  CardinalityMode mode) {
  return mode == CardinalityMode::kTrue ? record.feat_true : record.feat_est;
}

std::vector<double> PredictQuerySecondsBatched(
    const T3Model& model, const ForestEvaluator& evaluator,
    const std::vector<const QueryRecord*>& records, CardinalityMode mode) {
  const size_t width = static_cast<size_t>(model.forest().num_features);
  QueryBatch batch(model.target(), width);
  for (const QueryRecord* record : records) {
    batch.AddQuery();
    for (const PipelineFeatures& features : PipelineRows(*record, mode)) {
      if (features.values.size() != width) continue;
      batch.AddPipeline(features.values.data(), features.input_cardinality);
    }
  }
  std::vector<double> raw(batch.num_rows());
  evaluator.PredictBatch(batch.rows().data(), batch.num_rows(), width,
                         raw.data());
  std::vector<double> seconds(records.size());
  for (size_t i = 0; i < seconds.size(); ++i) {
    seconds[i] = batch.QuerySeconds(i, raw.data());
  }
  return seconds;
}

double PredictQuerySeconds(const T3Model& model, const QueryRecord& record,
                           CardinalityMode mode) {
  return PredictQuerySecondsBatched(
      model, FlatEvaluator(model.forest()), {&record}, mode)[0];
}

std::vector<double> QErrors(const T3Model& model,
                            const std::vector<const QueryRecord*>& records,
                            CardinalityMode mode) {
  return QErrors(EvaluateModel(model, records, mode));
}

std::vector<RecordEvaluation> EvaluateModel(
    const T3Model& model, const std::vector<const QueryRecord*>& records,
    CardinalityMode mode) {
  const std::vector<double> predicted = PredictQuerySecondsBatched(
      model, FlatEvaluator(model.forest()), records, mode);
  std::vector<RecordEvaluation> evals(records.size());
  for (size_t i = 0; i < evals.size(); ++i) {
    evals[i].record = records[i];
    evals[i].predicted_seconds = predicted[i];
    evals[i].actual_seconds = records[i]->median_seconds;
    evals[i].q_error = QError(predicted[i], records[i]->median_seconds);
  }
  return evals;
}

std::vector<double> QErrors(const std::vector<RecordEvaluation>& evals) {
  std::vector<double> q_errors;
  q_errors.reserve(evals.size());
  for (const RecordEvaluation& eval : evals) {
    q_errors.push_back(eval.q_error);
  }
  return q_errors;
}

QErrorSummary Summarize(const std::vector<RecordEvaluation>& evals) {
  return Summarize(QErrors(evals));
}

}  // namespace t3
