// Reproduces Table 3: deviation of repeated benchmark measurements. For
// each query, take the most consistent 2/3 of its stored runs (those
// closest to the median) and report the q-error of the furthest one vs the
// median — the "theoretical optimum" any prediction model could reach.

#include <algorithm>
#include <cmath>

#include "bench_util.h"

namespace t3 {
namespace {

int Run() {
  const Corpus& corpus = bench::SharedWorkbench().corpus();
  std::vector<double> deviations;
  deviations.reserve(corpus.records.size());
  for (const QueryRecord& record : corpus.records) {
    if (record.total_run_seconds.size() < 3) continue;
    const double median = Median(record.total_run_seconds);
    // Sort runs by distance (in q-error) from the median; keep 2/3.
    std::vector<double> qerrors;
    for (double run : record.total_run_seconds) {
      qerrors.push_back(QError(run, median));
    }
    std::sort(qerrors.begin(), qerrors.end());
    const size_t keep = (record.total_run_seconds.size() * 2 + 2) / 3;
    deviations.push_back(qerrors[keep - 1]);
  }
  const QErrorSummary summary = Summarize(deviations);
  if (summary.count == 0) {
    std::fprintf(stderr,
                 "bench_table3_deviation: no record of the %zu-record corpus "
                 "stores the >= 3 runs the 2/3-of-runs deviation needs\n",
                 corpus.records.size());
    return 1;
  }

  PrintExperimentHeader(
      "Table 3: Deviations of benchmarks as q-error",
      "most consistent 2/3 of runs vs median; the paper reports avg 1.058 "
      "(i.e. ~5.8% average deviation) and <13% deviation for 90% of "
      "queries.");
  ReportTable table({"Statistic", "Value"});
  table.AddRow({"queries", StrFormat("%zu", summary.count)});
  table.AddRow({"p50 q-error", StrFormat("%.3f", summary.p50)});
  table.AddRow({"p90 q-error", StrFormat("%.3f", summary.p90)});
  table.AddRow({"avg q-error", StrFormat("%.3f", summary.avg)});
  table.AddRow({"max q-error", StrFormat("%.3f", summary.max)});
  table.Print();
  std::printf(
      "\nexpected floor: no model can be more accurate on average than the "
      "measurement deviation (avg %.3f => ~%.1f%%).\n",
      summary.avg, (summary.avg - 1.0) * 100.0);
  return 0;
}

}  // namespace
}  // namespace t3

int main() { return t3::Run(); }
