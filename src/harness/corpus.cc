#include "harness/corpus.h"

#include <cmath>

#include "common/file_util.h"
#include "common/string_util.h"
#include "common/token_cursor.h"
#include "plan/plan_file.h"

namespace t3 {
namespace {

/// Lower bounds on the text behind each count of a record, counting the
/// separator before each token: a record is at least its R line (ten
/// tokens) and a T tag, a run at least one T value, and a pipeline at least
/// its P line head (three tokens) and the FT and FE heads (five tokens
/// each). A count larger than the remaining bytes allow is rejected before
/// it sizes anything.
constexpr size_t kMinRecordBytes = 11 * 2;
constexpr size_t kMinRunBytes = 2;
constexpr size_t kMinPipelineBytes = 13 * 2;

/// The widest dense feature vector a corpus may declare. The FT/FE `dim`
/// sizes a vector the sparse pairs do not pay for in text, so it gets a
/// fixed bound instead: five times the registry's kFeatureDim (48), and at
/// most 2 KiB per line of at least 15 bytes.
constexpr int kMaxFeatureDim = 256;

/// "<path> line 42: <what>" — every parse failure names the source file
/// (when known) and the line it was detected on; the same prefix
/// CorpusAuditor uses for post-parse findings.
Status ParseError(const std::string& path, const TokenCursor& cursor,
                  const std::string& what) {
  return InvalidArgumentError(CorpusMessagePrefix(path, cursor.line()) + what);
}

/// Reads "<i>:<v>" as one token: an int index and a finite value.
bool NextSparsePair(TokenCursor* cursor, int* index, double* value) {
  const std::string_view token = cursor->NextToken();
  const size_t colon = token.find(':');
  return colon != std::string_view::npos &&
         ParseNumber(token.substr(0, colon), index) &&
         ParseNumber(token.substr(colon + 1), value) && std::isfinite(*value);
}

Status ParsePipelineFeatures(const std::string& path, TokenCursor* cursor,
                             PipelineFeatures* features) {
  int dim = 0;
  int nnz = 0;
  if (!cursor->NextNumber(&features->pipeline) ||
      !cursor->NextFiniteDouble(&features->input_cardinality) ||
      !cursor->NextNumber(&dim) || !cursor->NextNumber(&nnz) || dim <= 0 ||
      dim > kMaxFeatureDim || nnz < 0 || nnz > dim) {
    return ParseError(path, *cursor, "malformed feature line header");
  }
  features->values.assign(static_cast<size_t>(dim), 0.0);
  for (int i = 0; i < nnz; ++i) {
    int index = 0;
    double value = 0;
    if (!NextSparsePair(cursor, &index, &value) || index < 0 || index >= dim) {
      return ParseError(path, *cursor, "malformed sparse feature pair");
    }
    features->values[static_cast<size_t>(index)] = value;
  }
  return Status::OK();
}

void AppendPipelineFeatures(std::string* out, const char* tag,
                            const PipelineFeatures& features) {
  size_t nnz = 0;
  for (double v : features.values) nnz += v != 0.0 ? 1 : 0;
  out->append(StrFormat("%s %d ", tag, features.pipeline));
  AppendDouble(out, features.input_cardinality);
  out->append(StrFormat(" %zu %zu", features.values.size(), nnz));
  for (size_t i = 0; i < features.values.size(); ++i) {
    if (features.values[i] == 0.0) continue;
    out->append(StrFormat(" %zu:", i));
    AppendDouble(out, features.values[i]);
  }
  out->push_back('\n');
}

}  // namespace

size_t Corpus::NumPipelines() const {
  size_t n = 0;
  for (const QueryRecord& record : records) n += record.feat_true.size();
  return n;
}

Result<Corpus> ParseCorpus(std::string_view text, const std::string& path) {
  TokenCursor cursor(text);
  if (cursor.NextToken() != "t3corpus" || cursor.NextToken() != "v1") {
    return InvalidArgumentError(CorpusMessagePrefix(path, 0) +
                                "not a t3corpus v1 file");
  }
  size_t num_records = 0;
  if (cursor.NextToken() != "records" || !cursor.NextNumber(&num_records) ||
      num_records > cursor.Remaining() / kMinRecordBytes) {
    return ParseError(path, cursor, "bad record count");
  }

  Corpus corpus;
  corpus.records.resize(num_records);
  for (size_t rec = 0; rec < num_records; ++rec) {
    QueryRecord& record = corpus.records[rec];
    if (cursor.NextToken() != "R") {
      return ParseError(path, cursor,
                        StrFormat("record %zu: expected R line", rec));
    }
    record.source_line = cursor.line();
    record.instance = std::string(cursor.NextToken());
    int is_test = 0, fixed = 0, num_pipelines = 0, num_nodes = 0;
    if (record.instance.empty() || !cursor.NextNumber(&is_test) ||
        !cursor.NextNumber(&record.scale_index) ||
        !cursor.NextNumber(&record.structure_group) ||
        !cursor.NextNumber(&fixed) || !cursor.NextNumber(&num_pipelines) ||
        !cursor.NextNumber(&record.runs) || !cursor.NextNumber(&num_nodes) ||
        !cursor.NextFiniteDouble(&record.median_seconds) ||
        num_pipelines < 0 || record.runs < 0 || num_nodes < 0 ||
        static_cast<size_t>(num_nodes) >
            cursor.Remaining() / kMinPlanNodeLineBytes ||
        static_cast<size_t>(record.runs) > cursor.Remaining() / kMinRunBytes ||
        static_cast<size_t>(num_pipelines) >
            cursor.Remaining() / kMinPipelineBytes) {
      return ParseError(path, cursor,
                        StrFormat("record %zu: malformed R line", rec));
    }
    record.is_test = is_test != 0;
    record.fixed_suite = fixed != 0;

    record.plan_nodes.resize(static_cast<size_t>(num_nodes));
    for (PlanNodeRecord& node : record.plan_nodes) {
      if (!ReadPlanNodeLine(&cursor, &node)) {
        return ParseError(path, cursor, "malformed N line");
      }
    }

    if (cursor.NextToken() != "T") {
      return ParseError(path, cursor, "expected T line");
    }
    record.total_run_seconds.resize(static_cast<size_t>(record.runs));
    for (double& v : record.total_run_seconds) {
      if (!cursor.NextFiniteDouble(&v)) {
        return ParseError(path, cursor, "malformed T line");
      }
    }

    // Pipelines are stored as interleaved P / FT / FE blocks.
    record.pipeline_times.resize(static_cast<size_t>(num_pipelines));
    record.feat_true.resize(static_cast<size_t>(num_pipelines));
    record.feat_est.resize(static_cast<size_t>(num_pipelines));
    for (size_t p = 0; p < static_cast<size_t>(num_pipelines); ++p) {
      PipelineTiming& timing = record.pipeline_times[p];
      if (cursor.NextToken() != "P" || !cursor.NextNumber(&timing.pipeline) ||
          !cursor.NextFiniteDouble(&timing.median_seconds)) {
        return ParseError(path, cursor, "malformed P line");
      }
      timing.run_seconds.resize(static_cast<size_t>(record.runs));
      for (double& v : timing.run_seconds) {
        if (!cursor.NextFiniteDouble(&v)) {
          return ParseError(path, cursor, "malformed P run value");
        }
      }
      if (cursor.NextToken() != "FT") {
        return ParseError(path, cursor, "expected FT line");
      }
      Status status = ParsePipelineFeatures(path, &cursor, &record.feat_true[p]);
      if (!status.ok()) return status;
      if (cursor.NextToken() != "FE") {
        return ParseError(path, cursor, "expected FE line");
      }
      status = ParsePipelineFeatures(path, &cursor, &record.feat_est[p]);
      if (!status.ok()) return status;
    }
  }
  if (!cursor.AtEnd()) {
    return ParseError(path, cursor, "trailing data after last record");
  }
  return corpus;
}

std::string CorpusToText(const Corpus& corpus) {
  std::string out;
  out.reserve(corpus.records.size() * 512);
  out += "t3corpus v1\n";
  out += StrFormat("records %zu\n", corpus.records.size());
  for (const QueryRecord& record : corpus.records) {
    out += StrFormat("R %s %d %d %d %d %zu %d %zu ", record.instance.c_str(),
                     record.is_test ? 1 : 0, record.scale_index,
                     record.structure_group, record.fixed_suite ? 1 : 0,
                     record.feat_true.size(), record.runs,
                     record.plan_nodes.size());
    AppendDouble(&out, record.median_seconds);
    out.push_back('\n');
    for (const PlanNodeRecord& node : record.plan_nodes) {
      AppendPlanNodeLine(&out, node);
    }
    out += "T";
    for (double v : record.total_run_seconds) {
      out.push_back(' ');
      AppendDouble(&out, v);
    }
    out.push_back('\n');
    for (size_t p = 0; p < record.pipeline_times.size(); ++p) {
      const PipelineTiming& timing = record.pipeline_times[p];
      out += StrFormat("P %d ", timing.pipeline);
      AppendDouble(&out, timing.median_seconds);
      for (double v : timing.run_seconds) {
        out.push_back(' ');
        AppendDouble(&out, v);
      }
      out.push_back('\n');
      AppendPipelineFeatures(&out, "FT", record.feat_true[p]);
      AppendPipelineFeatures(&out, "FE", record.feat_est[p]);
    }
  }
  return out;
}

Result<Corpus> ParseCorpus(std::string_view text) {
  return ParseCorpus(text, /*path=*/"");
}

Result<Corpus> LoadCorpusFromFile(const std::string& path) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  return ParseCorpus(*content, path);
}

Status SaveCorpusToFile(const Corpus& corpus, const std::string& path) {
  return WriteStringToFile(path, CorpusToText(corpus));
}

}  // namespace t3
