#include "harness/training.h"

#include <algorithm>
#include <utility>

#include "common/stats.h"

namespace t3 {
namespace {

/// Target label in seconds: the stored median, or — for runs_limit > 0 —
/// the median of the first runs_limit recorded runs (Figure 14).
double LabelSeconds(const std::vector<double>& run_seconds,
                    double stored_median, int runs_limit) {
  if (runs_limit <= 0 || run_seconds.empty()) return stored_median;
  const size_t k = std::min(run_seconds.size(),
                            static_cast<size_t>(runs_limit));
  return Median(std::vector<double>(run_seconds.begin(),
                                    run_seconds.begin() +
                                        static_cast<ptrdiff_t>(k)));
}

}  // namespace

Result<TrainingMatrix> BuildTrainingMatrix(const Corpus& corpus,
                                           const RecordFilter& train_filter,
                                           CardinalityMode mode,
                                           const T3Config& config,
                                           int runs_limit, ThreadPool* pool) {
  // The first non-empty row of the filtered records pins the width; rows of
  // another width are skipped, as PredictQuerySecondsBatched skips rows
  // whose width differs from the model's.
  std::vector<const QueryRecord*> records;
  size_t width = 0;
  for (const QueryRecord& record : corpus.records) {
    if (train_filter ? !train_filter(record) : record.is_test) continue;
    records.push_back(&record);
    for (const PipelineFeatures& features : PipelineRows(record, mode)) {
      if (width == 0) width = features.values.size();
    }
  }
  if (width == 0) {
    return InvalidArgumentError(
        "no usable training rows: the record filter selected no records "
        "with feature vectors");
  }

  // Each chunk of records assembles its rows and labels through the
  // model's QueryBatch rules. A record's rows depend on that record alone,
  // so concatenating the chunks in order gives the same bytes however many
  // chunks there are.
  struct Chunk {
    std::vector<double> rows;
    std::vector<double> targets;
  };
  auto fill_chunk = [&](size_t begin, size_t end, Chunk* chunk) {
    QueryBatch batch(config.target, width);
    std::vector<double> pipeline_seconds;
    std::vector<double> query_seconds;
    for (size_t r = begin; r < end; ++r) {
      const QueryRecord& record = *records[r];
      batch.AddQuery();
      query_seconds.push_back(LabelSeconds(
          record.total_run_seconds, record.median_seconds, runs_limit));
      const std::vector<PipelineFeatures>& rows = PipelineRows(record, mode);
      for (size_t p = 0; p < rows.size(); ++p) {
        if (rows[p].values.size() != width) continue;
        double seconds = record.median_seconds;
        if (p < record.pipeline_times.size()) {
          const PipelineTiming& timing = record.pipeline_times[p];
          seconds = LabelSeconds(timing.run_seconds, timing.median_seconds,
                                 runs_limit);
        }
        batch.AddPipeline(rows[p].values.data(), rows[p].input_cardinality);
        pipeline_seconds.push_back(seconds);
      }
    }
    chunk->rows = batch.rows();
    chunk->targets = batch.Labels(pipeline_seconds, query_seconds);
    for (size_t row = 0; row < chunk->targets.size(); ++row) {
      for (const int dropped : config.drop_features) {
        if (dropped >= 0 && static_cast<size_t>(dropped) < width) {
          chunk->rows[row * width + static_cast<size_t>(dropped)] = 0.0;
        }
      }
    }
  };

  const size_t num_chunks =
      pool == nullptr ? 1 : std::min(pool->num_threads(), records.size());
  const size_t per_chunk = (records.size() + num_chunks - 1) / num_chunks;
  std::vector<Chunk> chunks(num_chunks);
  if (num_chunks <= 1) {
    fill_chunk(0, records.size(), &chunks[0]);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t begin = std::min(c * per_chunk, records.size());
      const size_t end = std::min(begin + per_chunk, records.size());
      pool->Submit([&fill_chunk, &chunks, begin, end, c] {
        fill_chunk(begin, end, &chunks[c]);
      });
    }
    pool->Wait();
  }

  TrainingMatrix matrix;
  matrix.num_features = width;
  for (const Chunk& chunk : chunks) {
    matrix.rows.insert(matrix.rows.end(), chunk.rows.begin(),
                       chunk.rows.end());
    matrix.targets.insert(matrix.targets.end(), chunk.targets.begin(),
                          chunk.targets.end());
  }
  return matrix;
}

}  // namespace t3
