// Reproduces Figure 5: T3's prediction latency as a function of the number
// of pipelines in a query (1 to 1000 random pipelines), for the compiled
// single-threaded model, single-threaded interpretation, and multi-threaded
// interpretation.

#include "bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "treejit/evaluator.h"
#include "treejit/jit.h"

namespace t3 {
namespace {

void Run() {
  Workbench& workbench = bench::SharedWorkbench();
  const Corpus& corpus = workbench.corpus();
  const T3Model& t3 = workbench.MainModel();

  // Pool of real pipeline feature vectors to draw from ("many random
  // pipelines perform equivalently to a large query for T3").
  std::vector<const PipelineFeatures*> pool;
  for (const QueryRecord& record : corpus.records) {
    for (const auto& features : record.feat_true) pool.push_back(&features);
  }
  T3_CHECK(!pool.empty());
  Rng rng(99);

  const size_t dim = pool[0]->values.size();
  auto compiled = CompiledForest::Compile(t3.forest());
  T3_CHECK(compiled.ok());
  const FlatEvaluator interpreted(t3.forest());
  const unsigned hardware = std::thread::hardware_concurrency();
  ThreadPool mt_pool(hardware == 0 ? 4 : hardware);

  PrintExperimentHeader(
      "Figure 5: Prediction latency by number of pipelines",
      "compiled ST scales ~1.5us -> ~700us over 1..1000 pipelines; "
      "interpreted ST is much slower; interpreted MT only wins for very "
      "large queries (note: the MT pool is sized from hardware_concurrency(); "
      "on a 4-vCPU VM MT still trails ST at small counts and only ties it at "
      "1000 pipelines, and the cause of the missing crossover is "
      "unmeasured).");
  ReportTable table({"Pipelines", "Compiled ST", "Interpreted ST",
                     "Interpreted MT"});
  for (size_t n : {1u, 3u, 10u, 30u, 100u, 300u, 1000u}) {
    // Materialize a flat row matrix of n random pipelines.
    std::vector<double> rows;
    rows.reserve(n * dim);
    std::vector<double> cards;
    for (size_t i = 0; i < n; ++i) {
      const PipelineFeatures* f =
          pool[static_cast<size_t>(rng.UniformInt(0, pool.size() - 1))];
      rows.insert(rows.end(), f->values.begin(), f->values.end());
      cards.push_back(f->input_cardinality);
    }
    volatile double sink = 0;
    auto sum_with = [&](const ForestEvaluator& evaluator) {
      double total = 0;
      for (size_t i = 0; i < n; ++i) {
        total += OutputSeconds(PredictionTarget::kPerTuple,
                               evaluator.Predict(rows.data() + i * dim),
                               cards[i]);
      }
      sink = total;
    };
    const int iters = n >= 300 ? 200 : 1000;
    const double compiled_st = bench::MedianLatencySeconds(
        [&] { sum_with(**compiled); }, iters, iters / 10);
    const double interpreted_st = bench::MedianLatencySeconds(
        [&] { sum_with(interpreted); }, iters, iters / 10);
    const double interpreted_mt = bench::MedianLatencySeconds(
        [&] {
          sink = PredictSumParallel(interpreted, &mt_pool, rows.data(), n, dim);
        },
        iters / 2, iters / 20);
    table.AddRow({StrFormat("%zu", n), bench::FormatSeconds(compiled_st),
                  bench::FormatSeconds(interpreted_st),
                  bench::FormatSeconds(interpreted_mt)});
    (void)sink;
  }
  table.Print();
}

}  // namespace
}  // namespace t3

int main() {
  t3::Run();
  return 0;
}
