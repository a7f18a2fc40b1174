#ifndef T3_PERFBENCH_BENCH_COMMON_H_
#define T3_PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "harness/evaluate.h"

namespace t3bench {

/// Command line of one benchmark run (see perfbench/README.md).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string repo_root = ".";  ///< Where data/ lives (read only).
  std::string scratch_dir;      ///< Writable directory for temp files.
  std::string trace_out;        ///< Span dump path (trace mode only).
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time used so far by every thread of this process. Unlike wall time
/// it leaves out the time a virtual CPU waits while the host runs other
/// guests (steal), so the work a run does reads the same on a busy host.
inline int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// A sample set reduced the way the benchmark reports every timing: the
/// median plus the highest of {p99, p90, p50} that still has at least ten
/// samples beyond it, with the sample count behind it.
struct Distribution {
  size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;  ///< 0.99 / 0.9 / 0.5, or 1.0 for "max" (tiny n).
  double max = 0.0;

  /// "p99" / "p90" / "p50" / "max".
  std::string TailName() const;
};

/// Nearest-rank percentile of `values` (copied and sorted).
double Percentile(std::vector<double> values, double q);

Distribution Summarize(std::vector<double> values);

/// One span of the benchmark's own trace: a timed call into one layer.
struct Span {
  uint32_t name = 0;  ///< Index into Tracer::names().
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call, so untraced and traced runs share one code path.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Interns a span name; returns its id.
  uint32_t Name(const std::string& name);

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Record(uint32_t name, uint64_t parent, int64_t start_ns,
                  int64_t end_ns);

  /// Opens a span now; close it with End. Returns its id (0 when disabled).
  uint64_t Begin(uint32_t name, uint64_t parent);
  void End(uint64_t id);

  /// Durations (seconds) of every span named `name`, in record order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes every span as one JSON document; no-op when disabled.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the contract's result line plus the
/// human-readable report printed above it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;       ///< The final JSON line's metrics.
  std::vector<std::string> report;   ///< "name value unit (n=...)" lines.
  std::vector<std::string> errors;   ///< Correctness failures, if any.

  void Fail(const std::string& message);
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { report.push_back(line); }
  /// Adds a readable line for a distribution: "<prefix>_p50_<unit>" and the
  /// supported tail, each with the sample count.
  void NoteDistribution(const std::string& prefix, const Distribution& d,
                        const std::string& unit);
};

/// The q-error of the main model configuration trained on the tracked mini
/// corpus's train split and evaluated on its test split (bit-deterministic):
/// loads data/corpus_mini.txt, trains, evaluates, and checks the model
/// compiled with every proof scores the test split bit-identically. Fails
/// the run on any error.
bool MeasureMiniAccuracy(const Args& args, RunResult* result,
                         t3::QErrorSummary* out);

/// Adds the accuracy metrics every workload reports.
void AddAccuracyMetrics(const t3::QErrorSummary& accuracy, RunResult* result);

/// Reports `bench.trace_overhead_pct`: how much slower the traced
/// measurement ran than the untraced reference of the same work, in percent.
void AddTraceOverhead(double untraced, double traced, RunResult* result);

/// Reports `ops` units of work (requests, predictions, corpus records) done
/// in `wall_s` seconds using `cpu_s` seconds of process CPU time as a
/// readable line, and returns cpu_us_per_op: CPU microseconds per unit.
double NoteWork(const char* ops_name, uint64_t ops, double wall_s,
                double cpu_s, RunResult* result);

/// Adds the readable set-up line: the median wall and process CPU seconds
/// of the repeated set-ups, with the repeat count.
void NoteSetup(const std::vector<double>& wall_s,
               const std::vector<double>& cpu_s, RunResult* result);

/// Median of a small set of set-up times.
double Median(std::vector<double> values);

}  // namespace t3bench

#endif  // T3_PERFBENCH_BENCH_COMMON_H_
