// Reproduces Table 2 (tree-model rows): prediction throughput in
// predictions per second, for back-to-back single-row evaluation vs one
// batched call over a >1000-row pipeline matrix, for the interpreted
// (FlatEvaluator) and the compiled forest. The paper's finding: batching
// helps even tree models. The batched-vs-single-row ratio of the compiled
// forest is printed for information; it gates nothing and the exit code
// does not depend on it.

#include <cstddef>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "treejit/jit.h"

namespace t3 {
namespace {

void Run() {
  Workbench& workbench = bench::SharedWorkbench();
  const Corpus& corpus = workbench.corpus();
  const T3Model& model = workbench.MainModel();
  const auto test_records = SelectRecords(corpus, bench::IsTest);
  T3_CHECK(!test_records.empty());

  // The batch: every pipeline row of 1024 test queries (records repeat if
  // the split is smaller), flattened row-major.
  constexpr size_t kBatchQueries = 1024;
  const size_t dim = test_records[0]->feat_true[0].values.size();
  std::vector<double> rows;
  for (size_t i = 0; i < kBatchQueries; ++i) {
    const QueryRecord* record = test_records[i % test_records.size()];
    for (const auto& features : record->feat_true) {
      rows.insert(rows.end(), features.values.begin(), features.values.end());
    }
  }
  const size_t num_rows = rows.size() / dim;
  std::vector<double> out(num_rows);

  const FlatEvaluator flat(model.forest());
  auto compiled = CompiledForest::Compile(model.forest());
  T3_CHECK(compiled.ok());
  const CompiledForest& jit = **compiled;

  // The compiled forest must score the test split bit for bit like the
  // interpreter before its throughput means anything.
  T3_CHECK(PredictQuerySecondsBatched(model, jit, test_records) ==
           PredictQuerySecondsBatched(model, flat, test_records));

  volatile double sink = 0;
  size_t cursor = 0;
  auto single = [&](const ForestEvaluator& evaluator) {
    cursor = 0;
    return bench::Throughput([&] {
      sink = evaluator.Predict(&rows[(cursor++ % num_rows) * dim]);
    });
  };
  auto batched = [&](const ForestEvaluator& evaluator) {
    return bench::MeasureBatchThroughput(
        [&] {
          evaluator.PredictBatch(rows.data(), num_rows, dim, out.data());
          sink = out[num_rows - 1];
        },
        num_rows);
  };

  const double flat_single = single(flat);
  const double jit_single = single(jit);
  const bench::BatchTiming flat_batch = batched(flat);
  const bench::BatchTiming jit_batch = batched(jit);

  const bool simd = jit.has_batch_kernels() && BatchKernelsEnabled();
  PrintExperimentHeader(
      "Table 2: Throughput of tree evaluators in predictions per second",
      StrFormat("single-row calls vs one PredictBatch over %zu pipeline rows "
                "(%zu queries); compiled batch kernels: %s.",
                num_rows, kBatchQueries,
                simd ? "SIMD (AVX 8-wide)" : "off, per-row loop"));
  ReportTable table({"Evaluator", "Single preds/s", "Batched preds/s",
                     "Batch p50", "Batch p99", "Gain"});
  auto row = [&](const char* name, double single_tput,
                 const bench::BatchTiming& batch) {
    table.AddRow({name, StrFormat("%.0f", single_tput),
                  StrFormat("%.0f", batch.preds_per_sec),
                  bench::FormatSeconds(batch.p50_seconds),
                  bench::FormatSeconds(batch.p99_seconds),
                  StrFormat("%.1fx", batch.preds_per_sec / single_tput)});
  };
  row("T3 interpreted (flat)", flat_single, flat_batch);
  row(simd ? "T3 compiled (SIMD batch)" : "T3 compiled", jit_single,
      jit_batch);
  table.Print();

  const double ratio = jit_batch.preds_per_sec / jit_single;
  std::printf("\nBatched compiled vs single-row JIT: %.2fx (informational)\n",
              ratio);
  (void)sink;
}

}  // namespace
}  // namespace t3

int main() {
  t3::Run();
  return 0;
}
