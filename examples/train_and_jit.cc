// End-to-end tour of the model-core subsystem: generate a synthetic
// regression problem, train a gradient-boosted forest on it, serialize it,
// JIT-compile it to native code, and compare interpreted vs compiled
// predictions and latency.
//
// Run from anywhere: ./build/examples/example_train_and_jit

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "gbt/trainer.h"
#include "treejit/evaluator.h"
#include "treejit/jit.h"

namespace {

constexpr size_t kFeatures = 8;
constexpr size_t kRows = 4000;

// Ground truth the forest has to learn: a smooth nonlinear function with an
// interaction term.
double GroundTruth(const double* x) {
  return 3.0 * x[0] + x[1] * x[1] - 2.0 * x[2] * x[3] + 0.5 * x[4];
}

}  // namespace

int main() {
  using namespace t3;

  // 1. Synthetic training data.
  Rng rng(7);
  std::vector<double> rows(kRows * kFeatures);
  for (double& v : rows) v = rng.UniformDouble(0, 1);
  std::vector<double> targets(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    targets[i] = GroundTruth(&rows[i * kFeatures]) + rng.Gaussian(0, 0.01);
  }

  // 2. Train.
  TrainParams params;
  params.num_trees = 100;
  params.max_leaves = 31;
  params.objective = Objective::kL2;
  TrainStats stats;
  Result<Forest> forest =
      TrainForest(rows, targets, kFeatures, params, &stats);
  if (!forest.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 forest.status().ToString().c_str());
    return 1;
  }
  std::printf("trained %d trees (%zu leaves total), valid loss %.5f%s\n",
              stats.num_trees, forest->NumLeaves(), stats.best_valid_loss,
              stats.early_stopped ? " [early stop]" : "");

  // 3. Text round-trip, the same format as data/model_*.txt.
  Result<Forest> reloaded = Forest::FromText(forest->ToText());
  if (!reloaded.ok()) {
    std::fprintf(stderr, "round-trip failed: %s\n",
                 reloaded.status().ToString().c_str());
    return 1;
  }

  // 4. Compile to native code; the flattened-array interpreter is the
  // evaluator when the host cannot JIT (non-x86-64, no mmap).
  const FlatEvaluator flat(*reloaded);
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(*reloaded);
  if (compiled.ok()) {
    std::printf("JIT: %zu bytes of x86-64 code for %zu nodes\n",
                (*compiled)->code_size(), reloaded->NumNodes());
  } else {
    std::printf("JIT unavailable (%s); using the flat interpreter\n",
                compiled.status().ToString().c_str());
  }

  // 5. Predict and compare against Forest::Predict, the reference
  // semantics.
  std::vector<double> probe(kFeatures, 0.5);
  const double reference = reloaded->Predict(probe.data());
  std::printf("prediction at x=0.5..: %.5f (truth %.5f)\n", reference,
              GroundTruth(probe.data()));
  if (flat.Predict(probe.data()) != reference ||
      (compiled.ok() && (*compiled)->Predict(probe.data()) != reference)) {
    std::fprintf(stderr, "evaluators disagree!\n");
    return 1;
  }

  // 6. Quick latency comparison on one row.
  auto median_nanos = [&](const ForestEvaluator& evaluator) {
    double best = 1e18;
    for (int rep = 0; rep < 5; ++rep) {
      Stopwatch timer;
      double sink = 0;
      for (int i = 0; i < 1000; ++i) sink += evaluator.Predict(probe.data());
      const double nanos = static_cast<double>(timer.ElapsedNanos()) / 1000.0;
      if (sink != 0 && nanos < best) best = nanos;
    }
    return best;
  };
  std::printf("per-row latency: interpreted %.0fns", median_nanos(flat));
  if (compiled.ok()) std::printf(", compiled %.0fns", median_nanos(**compiled));
  std::printf("\n");
  return 0;
}
