// Google-benchmark microbenchmarks of the raw forest evaluators:
// flattened-array interpretation, QuickScorer's bitvector traversal and
// JIT-compiled native code, single-row (cycling through 1024 distinct
// rows) across forest sizes and batched across batch sizes, on controlled
// synthetic forests;
// BM_CompiledBatchFixture and BM_OneRowScanFixture add one trained model
// over real feature rows, and BM_BuildFixture the cost of building each
// evaluator on the checked-in fixtures under data/.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <string>

#include "common/check.h"
#include "common/random.h"
#include "gbt/forest.h"
#include "harness/corpus.h"
#include "model/t3_model.h"
#include "treejit/evaluator.h"
#include "treejit/jit.h"
#include "treejit/quick_scorer.h"

namespace t3 {
namespace {

constexpr int kFeatures = 46;

Forest MakeForest(int num_trees, int leaves_per_tree, uint64_t seed) {
  Rng rng(seed);
  Forest forest;
  forest.num_features = kFeatures;
  forest.base_score = 0.5;
  for (int t = 0; t < num_trees; ++t) {
    Tree tree;
    std::function<int(int)> build = [&](int leaves) -> int {
      const int index = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back(TreeNode{});
      if (leaves <= 1) {
        tree.nodes[static_cast<size_t>(index)].is_leaf = true;
        tree.nodes[static_cast<size_t>(index)].value = rng.UniformDouble(-1, 1);
        return index;
      }
      const int left_leaves = 1 + static_cast<int>(rng.UniformInt(0, leaves - 2));
      const int feature = static_cast<int>(rng.UniformInt(0, kFeatures - 1));
      const double threshold = rng.UniformDouble(0, 1);
      const int left = build(left_leaves);
      const int right = build(leaves - left_leaves);
      TreeNode& node = tree.nodes[static_cast<size_t>(index)];
      node.is_leaf = false;
      node.feature = feature;
      node.threshold = threshold;
      node.left = left;
      node.right = right;
      return index;
    };
    build(leaves_per_tree);
    forest.trees.push_back(std::move(tree));
  }
  return forest;
}

std::vector<double> MakeRow(uint64_t seed) {
  Rng rng(seed);
  std::vector<double> row(kFeatures);
  for (double& v : row) v = rng.UniformDouble(0, 1);
  return row;
}

// Distinct rows the single-row benchmarks cycle through, so the branch
// predictor cannot learn one row's path through the forest.
constexpr size_t kRowPool = 1024;

// One Predict call per iteration, on the next row of the pool.
template <typename Evaluator>
void RunSingleRow(benchmark::State& state, const Evaluator& evaluator) {
  std::vector<double> rows;
  rows.reserve(kRowPool * kFeatures);
  for (size_t i = 0; i < kRowPool; ++i) {
    const std::vector<double> row = MakeRow(7 + i);
    rows.insert(rows.end(), row.begin(), row.end());
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Predict(rows.data() + next * kFeatures));
    next = next + 1 == kRowPool ? 0 : next + 1;
  }
}

void BM_Flat(benchmark::State& state) {
  const Forest forest =
      MakeForest(static_cast<int>(state.range(0)), 31, 42);
  RunSingleRow(state, FlatEvaluator(forest));
}
BENCHMARK(BM_Flat)->Arg(10)->Arg(50)->Arg(200);

void BM_Compiled(benchmark::State& state) {
  const Forest forest =
      MakeForest(static_cast<int>(state.range(0)), 31, 42);
  auto compiled = CompiledForest::Compile(forest);
  T3_CHECK(compiled.ok());
  RunSingleRow(state, **compiled);
}
BENCHMARK(BM_Compiled)->Arg(10)->Arg(50)->Arg(200);

void BM_QuickScorer(benchmark::State& state) {
  const Forest forest =
      MakeForest(static_cast<int>(state.range(0)), 31, 42);
  RunSingleRow(state, QuickScorer(forest));
}
BENCHMARK(BM_QuickScorer)->Arg(10)->Arg(50)->Arg(200);

// One row-major PredictBatch call per iteration over `state.range(0)`
// uniform random rows.
void RunBatch(benchmark::State& state, const ForestEvaluator& evaluator) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(9);
  std::vector<double> rows(batch * kFeatures);
  for (double& v : rows) v = rng.UniformDouble(0, 1);
  std::vector<double> out(batch);
  for (auto _ : state) {
    evaluator.PredictBatch(rows.data(), batch, kFeatures, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}

// The flat interpreter's batch call is its per-row loop: the baseline the
// compiled batch call is measured against at the same batch sizes.
void BM_FlatBatch(benchmark::State& state) {
  const FlatEvaluator evaluator(MakeForest(200, 31, 42));
  RunBatch(state, evaluator);
}
BENCHMARK(BM_FlatBatch)->Arg(16)->Arg(256)->Arg(4096);

// The compiled batch call is QuickScorer's: the 8-lane AVX2 scan over
// whole 8-row blocks (where dispatched), the one-row scan for the rest.
void BM_CompiledBatch(benchmark::State& state) {
  auto compiled = CompiledForest::Compile(MakeForest(200, 31, 42));
  T3_CHECK(compiled.ok());
  RunBatch(state, **compiled);
}
BENCHMARK(BM_CompiledBatch)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(4096);

// The trained 200-tree model_loo_airline fixture and `state.range(0)` of
// the mini corpus's pipeline feature rows, cycled to fill the batch. Real
// rows share paths, and a row leaves far fewer split nodes to the right
// than a uniform row does, unlike BM_CompiledBatch's rows.
struct FixtureBatch {
  Forest forest;
  std::vector<double> rows;
  size_t dim = 0;
  size_t batch = 0;
};

FixtureBatch LoadFixtureBatch(const benchmark::State& state) {
  const std::string data = std::string(T3_SOURCE_DIR) + "/data/";
  Result<T3Model> model = T3Model::LoadFromFile(data + "model_loo_airline.txt");
  T3_CHECK_OK(model);
  Result<Corpus> corpus = LoadCorpusFromFile(data + "corpus_mini.txt");
  T3_CHECK_OK(corpus);
  std::vector<double> features;
  for (const QueryRecord& record : corpus->records) {
    for (const auto* pipelines : {&record.feat_true, &record.feat_est}) {
      for (const PipelineFeatures& pipeline : *pipelines) {
        features.insert(features.end(), pipeline.values.begin(),
                        pipeline.values.end());
      }
    }
  }
  FixtureBatch fixture;
  fixture.forest = model->forest();
  fixture.dim = static_cast<size_t>(fixture.forest.num_features);
  fixture.batch = static_cast<size_t>(state.range(0));
  fixture.rows.resize(fixture.batch * fixture.dim);
  for (size_t i = 0; i < fixture.rows.size(); ++i) {
    fixture.rows[i] = features[i % features.size()];
  }
  return fixture;
}

// The compiled batch call on what it serves: the 8-lane scan over whole
// 8-row blocks where dispatched (not under T3_FORCE_SCALAR=1), the one-row
// scan for the rest.
void BM_CompiledBatchFixture(benchmark::State& state) {
  const FixtureBatch fixture = LoadFixtureBatch(state);
  auto compiled = CompiledForest::Compile(fixture.forest);
  T3_CHECK(compiled.ok());
  std::vector<double> out(fixture.batch);
  for (auto _ : state) {
    (*compiled)->PredictBatch(fixture.rows.data(), fixture.batch, fixture.dim,
                              out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.batch));
}
BENCHMARK(BM_CompiledBatchFixture)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(2048);

// The same rows through the one-row scan alone: the 8-lane scan's
// baseline at each batch size, timed with the same loop.
void BM_OneRowScanFixture(benchmark::State& state) {
  const FixtureBatch fixture = LoadFixtureBatch(state);
  const QuickScorer scorer(fixture.forest);
  std::vector<double> out(fixture.batch);
  for (auto _ : state) {
    scorer.PredictEachRow(fixture.rows.data(), fixture.batch, fixture.dim,
                          out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.batch));
}
BENCHMARK(BM_OneRowScanFixture)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(2048);

constexpr const char* kFixtureModels[] = {
    "model_ablation_per_pipeline.txt",
    "model_ablation_per_query.txt",
    "model_autowlm_per_query.txt",
    "model_loo_airline.txt",
};

// Build cost on the 200-tree fixture `state.range(0)` (an index into
// kFixtureModels). Each iteration builds a QuickScorer, then runs a default
// CompiledForest::Compile (which builds one too), each timed apart with
// its destruction, so both costs see the same state of a shared machine.
// The counters are their means and the QuickScorer's share of a Compile.
void BM_BuildFixture(benchmark::State& state) {
  const char* fixture = kFixtureModels[static_cast<size_t>(state.range(0))];
  Result<T3Model> model =
      T3Model::LoadFromFile(std::string(T3_SOURCE_DIR) + "/data/" + fixture);
  T3_CHECK_OK(model);
  const Forest& forest = model->forest();
  double quick_scorer_s = 0.0;
  double compile_s = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    {
      const QuickScorer scorer(forest);
      benchmark::DoNotOptimize(&scorer);
    }
    const auto built = std::chrono::steady_clock::now();
    {
      auto compiled = CompiledForest::Compile(forest);
      T3_CHECK(compiled.ok());
      benchmark::DoNotOptimize(compiled->get());
    }
    const auto compiled = std::chrono::steady_clock::now();
    quick_scorer_s += std::chrono::duration<double>(built - start).count();
    compile_s += std::chrono::duration<double>(compiled - built).count();
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["quick_scorer_us"] = 1e6 * quick_scorer_s / iterations;
  state.counters["compile_us"] = 1e6 * compile_s / iterations;
  state.counters["share_pct"] = 100.0 * quick_scorer_s / compile_s;
  state.SetLabel(fixture);
}
BENCHMARK(BM_BuildFixture)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace t3

BENCHMARK_MAIN();
