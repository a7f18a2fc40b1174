#ifndef T3_HARNESS_CORPUS_H_
#define T3_HARNESS_CORPUS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/plan_record.h"

namespace t3 {

/// Feature vector of one pipeline of one executed query ("FT"/"FE" corpus
/// lines — features under true resp. estimated cardinalities).
struct PipelineFeatures {
  int pipeline = 0;                ///< Pipeline index within the query.
  double input_cardinality = 0.0;  ///< Tuples entering the pipeline.
  std::vector<double> values;      ///< Dense feature vector.
};

/// Measured times of one pipeline ("P" lines): per-run seconds + median.
struct PipelineTiming {
  int pipeline = 0;
  double median_seconds = 0.0;
  std::vector<double> run_seconds;
};

// PlanNodeRecord ("N" lines) now lives in plan/plan_record.h — the shared
// schema between live plans (src/plan) and serialized corpora. Values are
// preserved verbatim so save -> load round-trips.

/// One benchmarked query of the corpus ("R" line + its attached lines).
struct QueryRecord {
  std::string instance;      ///< Database instance name, e.g. "tpch_sf0".
  bool is_test = false;      ///< Held-out TPC-DS-like instances.
  int scale_index = 0;       ///< Scale factor index within the family.
  int structure_group = 0;   ///< Query-structure group (0..15).
  bool fixed_suite = false;  ///< Member of a fixed benchmark suite.
  int runs = 0;              ///< Benchmark repetitions recorded.
  double median_seconds = 0.0;  ///< Median total query time.
  /// 1-based line of the record's "R" row in the source text (parse-time
  /// bookkeeping for diagnostics; 0 for built records, never serialized).
  int source_line = 0;

  std::vector<PlanNodeRecord> plan_nodes;
  std::vector<double> total_run_seconds;      ///< "T" line, `runs` values.
  std::vector<PipelineTiming> pipeline_times; ///< One per pipeline.
  std::vector<PipelineFeatures> feat_true;    ///< Features, true cards.
  std::vector<PipelineFeatures> feat_est;     ///< Features, estimated cards.
};

/// A benchmarked query corpus (data/corpus_*.txt): the shared training and
/// evaluation substrate of every experiment. Text format, one record per
/// "R" line:
///
///   t3corpus v1
///   records <n>
///   R <instance> <is_test> <scale> <group> <fixed> <pipelines> <runs>
///     <plan_nodes> <median_seconds>
///   N <op> <left> <right> <cardinality> <extra> <width> <stage>   (x nodes)
///   T <run_seconds...>                                  (`runs` values)
///   P <pipeline> <median> <run_seconds...>              (P, FT, FE
///   FT <pipeline> <input_card> <dim> <nnz> <i>:<v>...    interleaved,
///   FE <pipeline> <input_card> <dim> <nnz> <i>:<v>...    x pipelines)
struct Corpus {
  std::vector<QueryRecord> records;

  size_t NumPipelines() const;
};

/// "data/corpus.txt line 42: " — the shared diagnostic prefix of the corpus
/// loader and CorpusAuditor, so every corpus finding names the file and the
/// line. An empty path (parsing from memory) yields "corpus line 42: ";
/// line <= 0 (a built, never-parsed record) drops the line part. Inline so
/// analysis passes share the format without linking the harness.
inline std::string CorpusMessagePrefix(const std::string& path, int line) {
  std::string prefix = path.empty() ? "corpus" : path;
  if (line > 0) prefix += " line " + std::to_string(line);
  prefix += ": ";
  return prefix;
}

Result<Corpus> LoadCorpusFromFile(const std::string& path);
/// Parses "t3corpus v1" text with the shared TokenCursor and N-line reader;
/// `path` (when non-empty) prefixes every parse diagnostic via
/// CorpusMessagePrefix. Non-finite doubles, int fields outside int and
/// counts the remaining text cannot hold are InvalidArgument.
Result<Corpus> ParseCorpus(std::string_view text, const std::string& path);
Result<Corpus> ParseCorpus(std::string_view text);

std::string CorpusToText(const Corpus& corpus);
Status SaveCorpusToFile(const Corpus& corpus, const std::string& path);

}  // namespace t3

#endif  // T3_HARNESS_CORPUS_H_
