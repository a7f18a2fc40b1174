#include "model/t3_model.h"

#include "common/file_util.h"
#include "common/string_util.h"
#include "common/token_cursor.h"

namespace t3 {

void QueryBatch::Reset(PredictionTarget target, size_t width) {
  target_ = target;
  width_ = width;
  rows_.clear();
  cardinalities_.clear();
  query_begin_.clear();
}

void QueryBatch::AddQuery() { query_begin_.push_back(num_rows()); }

void QueryBatch::AddPipeline(const double* values, double input_cardinality) {
  // kPerQuery: the query's first pipeline row starts its one input row,
  // which stands for the whole query; later rows add into it.
  if (target_ != PredictionTarget::kPerQuery ||
      num_rows() == query_begin_.back()) {
    rows_.insert(rows_.end(), values, values + width_);
    cardinalities_.push_back(input_cardinality);
    return;
  }
  double* sum = rows_.data() + rows_.size() - width_;
  for (size_t i = 0; i < width_; ++i) sum[i] += values[i];
}

double QueryBatch::QuerySeconds(size_t query, const double* raw) const {
  double total = 0.0;
  for (size_t i = query_begin_[query]; i < QueryEnd(query); ++i) {
    total += OutputSeconds(target_, raw[i], cardinalities_[i]);
  }
  return total;
}

std::vector<double> QueryBatch::Labels(
    const std::vector<double>& pipeline_seconds,
    const std::vector<double>& query_seconds) const {
  std::vector<double> labels(num_rows());
  for (size_t query = 0; query < query_begin_.size(); ++query) {
    for (size_t i = query_begin_[query]; i < QueryEnd(query); ++i) {
      const double seconds = target_ == PredictionTarget::kPerQuery
                                 ? query_seconds[query]
                                 : pipeline_seconds[i];
      labels[i] = TrainingLabel(target_, seconds, cardinalities_[i]);
    }
  }
  return labels;
}

Status T3Model::SaveToFile(const std::string& path) const {
  std::string out = StrFormat("t3model target %d\n", static_cast<int>(target_));
  out += forest_.ToText();
  return WriteStringToFile(path, out);
}

Result<PredictionTarget> ParseModelHeader(std::string_view* text) {
  const size_t line_end = text->find('\n');
  TokenCursor line(text->substr(0, line_end));
  int64_t id = -1;
  if (line_end == std::string_view::npos || line.NextToken() != "t3model" ||
      line.NextToken() != "target" || !line.NextNumber(&id) ||
      !line.AtEnd()) {
    return InvalidArgumentError(
        "bad model header: line 1 must be \"t3model target <n>\"");
  }
  if (id < 0 || id > 2) {
    return InvalidArgumentError(
        StrFormat("unknown model target %lld", static_cast<long long>(id)));
  }
  text->remove_prefix(line_end + 1);
  return static_cast<PredictionTarget>(id);
}

Result<T3Model> T3Model::LoadFromFile(const std::string& path) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  std::string_view body = *content;
  Result<PredictionTarget> target = ParseModelHeader(&body);
  if (!target.ok()) return target.status();
  Result<Forest> forest = Forest::FromText(body);
  if (!forest.ok()) return forest.status();
  return T3Model(*std::move(forest), *target);
}

}  // namespace t3
