#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "harness/corpus.h"
#include "harness/training.h"
#include "harness/workbench.h"
#include "treejit/jit.h"

namespace t3bench {

std::string Distribution::TailName() const {
  if (tail_q >= 1.0) return "max";
  if (tail_q >= 0.99) return "p99";
  if (tail_q >= 0.9) return "p90";
  return "p50";
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

Distribution Summarize(std::vector<double> values) {
  Distribution d;
  d.n = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.p50 = Percentile(values, 0.5);
  d.p90 = Percentile(values, 0.9);
  d.max = values.back();
  d.tail = d.max;
  d.tail_q = 1.0;
  // The highest percentile with at least ten samples beyond it.
  for (double q : {0.99, 0.9, 0.5}) {
    const double beyond = (1.0 - q) * static_cast<double>(d.n);
    if (beyond >= 10.0) {
      d.tail = Percentile(values, q);
      d.tail_q = q;
      break;
    }
  }
  return d;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

uint32_t Tracer::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint64_t Tracer::Record(uint32_t name, uint64_t parent, int64_t start_ns,
                        int64_t end_ns) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, spans_.size() + 1, parent, start_ns, end_ns});
  return spans_.size();
}

uint64_t Tracer::Begin(uint32_t name, uint64_t parent) {
  if (!enabled_) return 0;
  const int64_t now = NowNs();
  return Record(name, parent, now, now);
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_ns = NowNs();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  const uint32_t id = static_cast<uint32_t>(it - names_.begin());
  for (const Span& span : spans_) {
    if (span.name == id) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  if (!enabled_ || path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"names\": [", f);
  for (size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fputs("],\n\"fields\": [\"name\", \"id\", \"parent\", \"start_ns\", "
             "\"end_ns\"],\n\"spans\": [\n",
             f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s[%u,%llu,%llu,%lld,%lld]", i == 0 ? "" : ",\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void RunResult::Fail(const std::string& message) {
  correct = false;
  errors.push_back(message);
}

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void RunResult::NoteDistribution(const std::string& prefix,
                                 const Distribution& d,
                                 const std::string& unit) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s_p50_%s %.6g %s (n=%zu)",
                prefix.c_str(), unit.c_str(), d.p50, unit.c_str(), d.n);
  Note(line);
  std::snprintf(line, sizeof(line), "%s_%s_%s %.6g %s (n=%zu)",
                prefix.c_str(), d.TailName().c_str(), unit.c_str(), d.tail,
                unit.c_str(), d.n);
  Note(line);
}

bool MeasureMiniAccuracy(const Args& args, RunResult* result,
                         t3::QErrorSummary* out) {
  const std::string path = args.repo_root + "/data/corpus_mini.txt";
  t3::Result<t3::Corpus> corpus = t3::LoadCorpusFromFile(path);
  if (!corpus.ok()) {
    result->Fail("mini corpus: " + corpus.status().ToString());
    return false;
  }
  t3::NamedModelConfig main_config;
  for (const t3::NamedModelConfig& config : t3::NamedModelConfigs()) {
    if (config.name == "main") main_config = config;
  }
  t3::Result<t3::TrainingMatrix> matrix = t3::BuildTrainingMatrix(
      *corpus, main_config.train_filter, main_config.mode, main_config.config,
      main_config.runs_limit);
  if (!matrix.ok()) {
    result->Fail("mini matrix: " + matrix.status().ToString());
    return false;
  }
  t3::Result<t3::Forest> forest =
      t3::TrainForest(matrix->rows, matrix->targets, matrix->num_features,
                      main_config.config.train);
  if (!forest.ok()) {
    result->Fail("mini training: " + forest.status().ToString());
    return false;
  }
  const t3::T3Model model(*std::move(forest), main_config.config.target);
  const std::vector<const t3::QueryRecord*> test = t3::SelectRecords(
      *corpus, [](const t3::QueryRecord& r) { return r.is_test; });
  *out = t3::Summarize(t3::EvaluateModel(model, test));

  // The compiled model, with every proof, must score the test split exactly
  // like the interpreter.
  t3::JitCompileOptions checked;
  checked.audit = true;
  checked.validate_translation = true;
  checked.validate_batch = true;
  t3::Result<std::unique_ptr<t3::CompiledForest>> compiled =
      t3::CompiledForest::Compile(model.forest(), checked);
  if (!compiled.ok()) {
    result->Fail("mini compile: " + compiled.status().ToString());
    return false;
  }
  const std::vector<double> batched =
      t3::PredictQuerySecondsBatched(model, **compiled, test);
  for (size_t i = 0; i < test.size(); ++i) {
    const double expected = t3::PredictQuerySeconds(model, *test[i]);
    if (std::memcmp(&expected, &batched[i], sizeof(double)) != 0) {
      result->Fail("compiled mini model differs from the interpreter");
      return false;
    }
  }
  return true;
}

void AddTraceOverhead(double untraced, double traced, RunResult* result) {
  const double pct = untraced > 0.0 ? 100.0 * (traced - untraced) / untraced
                                    : 0.0;
  result->Add("bench.trace_overhead_pct", pct, "%");
  char line[160];
  std::snprintf(line, sizeof(line),
                "bench.trace_overhead_pct %.3g %% (traced %.6g, untraced "
                "reference %.6g)",
                pct, traced, untraced);
  result->Note(line);
}

double NoteWork(const char* ops_name, uint64_t ops, double wall_s,
                double cpu_s, RunResult* result) {
  const double n = static_cast<double>(ops);
  const double cpu_us_per_op = n > 0.0 ? cpu_s * 1e6 / n : 0.0;
  char line[256];
  std::snprintf(line, sizeof(line),
                "cpu_us_per_op %.6g us, throughput %.6g 1/s (%llu %s, %.4g s "
                "wall, %.4g s process CPU)",
                cpu_us_per_op, wall_s > 0.0 ? n / wall_s : 0.0,
                static_cast<unsigned long long>(ops), ops_name, wall_s, cpu_s);
  result->Note(line);
  return cpu_us_per_op;
}

void NoteSetup(const std::vector<double>& wall_s,
               const std::vector<double>& cpu_s, RunResult* result) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "setup_s %.6g s (median of n=%zu set-ups, %.6g s process CPU)",
                Median(wall_s), wall_s.size(), Median(cpu_s));
  result->Note(line);
}

void AddAccuracyMetrics(const t3::QErrorSummary& accuracy, RunResult* result) {
  result->Add("qerror_p50", accuracy.p50, "ratio");
  result->Add("qerror_p90", accuracy.p90, "ratio");
  char line[160];
  std::snprintf(line, sizeof(line),
                "qerror_p50 %.6g ratio, qerror_p90 %.6g ratio "
                "(corpus_mini test split, n=%zu)",
                accuracy.p50, accuracy.p90,
                accuracy.count);
  result->Note(line);
}

}  // namespace t3bench
