#include "server/serving_model.h"

#include <functional>
#include <future>
#include <string>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "treejit/jit.h"

namespace t3 {

namespace {

/// The text round trip's verdict and its wall time on the thread that ran
/// it.
struct RoundTripProof {
  Status status;
  double ms = 0.0;
};

/// Serializes `forest`, reparses it, and requires field-by-field bit
/// equality. The serializer is bit-exact, so any difference is a serializer
/// bug and the artifact would not survive a cache write/reload cycle.
RoundTripProof ProveRoundTrip(const Forest& forest, const std::string& source) {
  const Stopwatch watch;
  RoundTripProof proof;
  Result<Forest> reparsed = Forest::FromText(forest.ToText());
  if (!reparsed.ok()) {
    proof.status = InternalError(StrFormat(
        "model %s fails its own serialization round trip: %s",
        source.c_str(), reparsed.status().ToString().c_str()));
  } else if (!SameForest(forest, *reparsed)) {
    proof.status = InternalError(StrFormat(
        "model %s differs from its reparsed serialized form", source.c_str()));
  }
  proof.ms = watch.ElapsedSeconds() * 1e3;
  return proof;
}

Result<std::shared_ptr<const ServingModel>> Prepare(T3Model model,
                                                    uint32_t version,
                                                    std::string source,
                                                    double load_ms) {
  auto serving = std::make_shared<ServingModel>();
  serving->model = std::move(model);
  serving->version = version;
  serving->source = std::move(source);
  ServingModel::Timings& timings = serving->timings;
  timings.load_ms = load_ms;
  const Forest& forest = serving->model.forest();
  const std::string& name = serving->source;

  // The round-trip proof and the compile only read `forest`, so the proof
  // runs on a helper thread beside the compile: the model is servable
  // after max(proof, compile), not their sum. `helper` is declared after
  // `serving`, and a std::async future's destructor joins its thread, so
  // the forest outlives the helper on every path out of this function.
  const Stopwatch prepare_watch;
  RoundTripProof proof;
  std::future<RoundTripProof> helper;
  try {
    helper = std::async(std::launch::async, ProveRoundTrip, std::cref(forest),
                        std::cref(name));
  } catch (const std::system_error&) {
    proof = ProveRoundTrip(forest, name);  // No thread: the same, serially.
  }
  Stopwatch compile_watch;
  Result<std::unique_ptr<CompiledForest>> compiled = CompiledForest::Compile(forest);
  timings.compile_ms = compile_watch.ElapsedSeconds() * 1e3;
  if (helper.valid()) proof = helper.get();
  timings.proof_ms = proof.ms;

  // The proof decides before the compile result is used: a model that
  // cannot be proven is never published, and the FlatEvaluator fallback is
  // never built for it. (A forest that fails the round trip because it is
  // malformed also fails Compile's own Validate, before any code is
  // emitted.)
  if (!proof.status.ok()) return proof.status;
  if (compiled.ok()) {
    serving->simd_batch_kernels =
        (*compiled)->has_batch_kernels() && BatchKernelsEnabled();
    serving->evaluator = *std::move(compiled);
  } else {
    // Compile failure (non-x86-64, mmap denial) is not fatal: the
    // interpreter is bit-identical, just slower.
    compile_watch.Restart();
    serving->evaluator = std::make_unique<FlatEvaluator>(forest);
    timings.compile_ms += compile_watch.ElapsedSeconds() * 1e3;
  }
  timings.prepare_ms = prepare_watch.ElapsedSeconds() * 1e3;
  return std::shared_ptr<const ServingModel>(std::move(serving));
}

}  // namespace

std::string ServingModel::TimingsText() const {
  return StrFormat("load %.3g ms, proof %.3g ms, compile %.3g ms, prepare %.3g ms",
                   timings.load_ms, timings.proof_ms, timings.compile_ms,
                   timings.prepare_ms);
}

Result<std::shared_ptr<const ServingModel>> MakeServingModel(
    T3Model model, uint32_t version, std::string source) {
  return Prepare(std::move(model), version, std::move(source), 0.0);
}

Result<std::shared_ptr<const ServingModel>> LoadServingModel(
    const std::string& path, uint32_t version) {
  const Stopwatch watch;
  Result<T3Model> model = T3Model::LoadFromFile(path);
  if (!model.ok()) return model.status();
  return Prepare(*std::move(model), version, path, watch.ElapsedSeconds() * 1e3);
}

ModelRegistry::ModelRegistry(std::shared_ptr<const ServingModel> initial) {
  T3_CHECK(initial != nullptr);
  next_version_.store(initial->version + 1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(initial);
}

Result<std::shared_ptr<const ServingModel>> ModelRegistry::SwapFromFile(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  const std::shared_ptr<const ServingModel> serving = Current();
  const uint32_t version = next_version_.load(std::memory_order_relaxed);
  Result<std::shared_ptr<const ServingModel>> loaded =
      LoadServingModel(path, version);
  if (!loaded.ok()) return loaded.status();
  if ((*loaded)->num_features() != serving->num_features()) {
    return FailedPreconditionError(StrFormat(
        "hot swap rejected: %s has %d features, the served model has %d",
        path.c_str(), (*loaded)->num_features(), serving->num_features()));
  }
  next_version_.store(version + 1, std::memory_order_relaxed);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = *loaded;
  }
  return loaded;
}

}  // namespace t3
