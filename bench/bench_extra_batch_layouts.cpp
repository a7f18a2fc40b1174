// Extension bench (not in the paper): batched-inference scaling across
// batch sizes. For each batch size the same synthetic main-model-sized
// forest is evaluated through the row-major PredictBatch of the flat
// interpreter (a per-row loop) and the compiled forest, showing where the
// 8-wide kernels start paying off — a question the throughput table folds
// away.

#include <cstddef>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/random.h"
#include "treejit/jit.h"

namespace t3 {
namespace {

int BuildSubtree(Tree* tree, Rng* rng, int num_features, int depth) {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  if (depth <= 0 || rng->Bernoulli(0.2)) {
    tree->nodes[index].is_leaf = true;
    tree->nodes[index].value = rng->UniformDouble(-1, 1);
    return index;
  }
  const int feature = static_cast<int>(rng->UniformInt(0, num_features - 1));
  const double threshold = rng->UniformDouble(-2, 2);
  const int left = BuildSubtree(tree, rng, num_features, depth - 1);
  const int right = BuildSubtree(tree, rng, num_features, depth - 1);
  TreeNode& node = tree->nodes[index];
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  return index;
}

// Roughly the main model's shape: ~100 trees of depth <= 6 over 48 features.
Forest MakeForest(Rng* rng) {
  Forest forest;
  forest.num_features = 48;
  forest.base_score = 15.54;
  for (int t = 0; t < 102; ++t) {
    Tree tree;
    BuildSubtree(&tree, rng, forest.num_features, 6);
    forest.trees.push_back(std::move(tree));
  }
  return forest;
}

void Run() {
  Rng rng(42);
  const Forest forest = MakeForest(&rng);
  T3_CHECK(forest.Validate().ok());
  const size_t dim = static_cast<size_t>(forest.num_features);

  const FlatEvaluator flat(forest);
  auto compiled = CompiledForest::Compile(forest);
  T3_CHECK(compiled.ok());
  const CompiledForest& jit = **compiled;
  const bool simd = jit.has_batch_kernels() && BatchKernelsEnabled();

  constexpr size_t kMaxRows = 8192;
  std::vector<double> matrix(kMaxRows * dim);
  for (double& v : matrix) v = rng.UniformDouble(-2, 2);
  std::vector<double> out(kMaxRows);

  PrintExperimentHeader(
      "Extension: batched inference across batch sizes",
      StrFormat("synthetic forest (%zu trees, %zu features); row-major "
                "PredictBatch; compiled batch kernels: %s.",
                forest.trees.size(), dim,
                simd ? "SIMD (AVX 8-wide)" : "off, per-row loop"));
  ReportTable table({"Batch", "Flat p/s", "Compiled p/s"});
  for (const size_t rows : {size_t{1}, size_t{8}, size_t{64}, size_t{1024},
                            size_t{8192}}) {
    auto tput = [&](const std::function<void()>& fn) {
      const int iters = rows >= 1024 ? 60 : 400;
      return bench::MeasureBatchThroughput(fn, rows, iters, iters / 10);
    };
    const bench::BatchTiming flat_timing = tput(
        [&] { flat.PredictBatch(matrix.data(), rows, dim, out.data()); });
    const bench::BatchTiming jit_timing = tput(
        [&] { jit.PredictBatch(matrix.data(), rows, dim, out.data()); });
    table.AddRow({StrFormat("%zu", rows),
                  StrFormat("%.0f", flat_timing.preds_per_sec),
                  StrFormat("%.0f", jit_timing.preds_per_sec)});
  }
  table.Print();
}

}  // namespace
}  // namespace t3

int main() {
  t3::Run();
  return 0;
}
