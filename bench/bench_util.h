#ifndef T3_BENCH_BENCH_UTIL_H_
#define T3_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "harness/corpus.h"
#include "harness/evaluate.h"
#include "harness/report.h"
#include "harness/workbench.h"

namespace t3 {
namespace bench {

/// The shared workbench of all experiment binaries. Every bench binary run
/// from the repository root reuses the cache in ./data; T3_DATA_DIR
/// redirects the cache (CI smoke runs use a scratch directory so their
/// quick-mode models never shadow the real ones).
inline Workbench& SharedWorkbench() {
  static Workbench* workbench = [] {
    const char* dir = std::getenv("T3_DATA_DIR");
    return new Workbench(dir != nullptr && dir[0] != '\0' ? dir : "data");
  }();
  return *workbench;
}

// --- Record filters of the standard evaluation splits. ---

inline bool IsTrain(const QueryRecord& r) { return !r.is_test; }
inline bool IsTest(const QueryRecord& r) { return r.is_test; }
inline bool IsTestFixed(const QueryRecord& r) {
  return r.is_test && r.fixed_suite;
}

/// Median wall-clock latency (seconds) of `fn` over `iterations` calls,
/// after `warmup` unmeasured calls. Measures each call individually, which
/// is what "single query prediction latency" means in the paper.
inline double MedianLatencySeconds(const std::function<void()>& fn,
                                   int iterations = 2000, int warmup = 200) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    Stopwatch timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  return Median(samples);
}

/// Latency distribution and throughput of one batched prediction call.
struct BatchTiming {
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double preds_per_sec = 0.0;  ///< rows_per_call / p50_seconds.
};

/// Times `fn` — one batched call predicting `rows_per_call` rows — and
/// reports p50/p99 call latency plus p50-derived predictions per second,
/// the batch-matrix metric of the throughput benches.
inline BatchTiming MeasureBatchThroughput(const std::function<void()>& fn,
                                          size_t rows_per_call,
                                          int iterations = 200,
                                          int warmup = 20) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    Stopwatch timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  BatchTiming timing;
  timing.p50_seconds = Quantile(samples, 0.5);
  timing.p99_seconds = Quantile(samples, 0.99);
  if (timing.p50_seconds > 0) {
    timing.preds_per_sec =
        static_cast<double>(rows_per_call) / timing.p50_seconds;
  }
  return timing;
}

/// Throughput in calls/second of `fn` measured over a fixed wall budget.
inline double Throughput(const std::function<void()>& fn,
                         double budget_seconds = 0.5) {
  // Warm up.
  for (int i = 0; i < 100; ++i) fn();
  Stopwatch timer;
  int64_t calls = 0;
  while (timer.ElapsedSeconds() < budget_seconds) {
    for (int i = 0; i < 50; ++i) fn();
    calls += 50;
  }
  return static_cast<double>(calls) / timer.ElapsedSeconds();
}

inline std::string FormatSeconds(double seconds) {
  return FormatDuration(seconds * 1e9);
}

inline std::string FormatQ(double q) { return StrFormat("%.2f", q); }

}  // namespace bench
}  // namespace t3

#endif  // T3_BENCH_BENCH_UTIL_H_
