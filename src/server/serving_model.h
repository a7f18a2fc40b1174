#ifndef T3_SERVER_SERVING_MODEL_H_
#define T3_SERVER_SERVING_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "model/t3_model.h"
#include "treejit/evaluator.h"

namespace t3 {

/// One immutable, versioned model snapshot the server predicts with: the
/// T3Model plus the one evaluator built for it. Snapshots are shared read-only
/// across worker threads and batches via shared_ptr<const ServingModel>;
/// a hot swap publishes a new snapshot and in-flight batches finish on the
/// old one (the shared_ptr keeps it alive), so no request is ever dropped
/// or served by a half-swapped model.
struct ServingModel {
  T3Model model;
  /// The JIT-compiled forest, or its QuickScorer where compilation is
  /// unsupported on this host; both batch through QuickScorer. Both are
  /// bit-identical to Forest::Predict, so the choice never changes results.
  std::unique_ptr<const ForestEvaluator> evaluator;
  /// True when evaluator->PredictBatch runs QuickScorer's 8-lane AVX2 scan
  /// over whole 8-row blocks: it is compiled in, this forest's trees fit it
  /// (QuickScorer::vectorized) and it is dispatched on this host
  /// (BatchKernelsEnabled).
  bool simd_batch_kernels = false;
  uint32_t version = 0;
  std::string source;  ///< File path or a descriptive tag, for stats.

  /// Wall time of each step that made this snapshot servable, one after
  /// the other on the preparing thread.
  struct Timings {
    double load_ms = 0.0;     ///< Read and parse; 0 for an in-memory model.
    double compile_ms = 0.0;  ///< JIT with its proofs, or QuickScorer.
  };
  Timings timings;
  /// "load <x> ms, compile <y> ms", for log lines.
  std::string TimingsText() const;

  int num_features() const { return model.forest().num_features; }
};

/// Wraps `model` as a serving snapshot: compiles its forest on the calling
/// thread (CompiledForest::Compile validates it first). Only an Unavailable
/// compile (non-x86-64 host, mmap or mprotect denied) falls back to the
/// bit-identical QuickScorer; any other error (an invalid forest, or a JIT
/// proof that rejected the emitted code) is returned and no evaluator is
/// built. The text format's bit-exactness is a property of the serializer,
/// proven by gbt_test's ForestIoTest suite, not re-proven per model here.
Result<std::shared_ptr<const ServingModel>> MakeServingModel(
    T3Model model, uint32_t version, std::string source);

/// MakeServingModel over T3Model::LoadFromFile(path) — the hot-swap loader:
/// a snapshot is servable after load + compile.
Result<std::shared_ptr<const ServingModel>> LoadServingModel(
    const std::string& path, uint32_t version);

/// The server's versioned model slot. Publish/Current form a
/// release/acquire pair through `mu_` (mutex unlock releases, the next
/// lock acquires):
///
///  - publishing under the lock makes every write that built the snapshot
///    (forest arrays, mapped JIT code, the mprotect to PROT_EXEC) visible
///    to any thread whose Current() observes the new pointer;
///  - readers copy the shared_ptr inside the critical section and hold the
///    reference outside it, so the old snapshot outlives every batch still
///    predicting with it and is freed when the last reference drops.
///
/// Current() is one lock + shared_ptr copy, taken once per worker batch —
/// not per row — so it is never on the per-prediction hot path.
/// (std::atomic<std::shared_ptr> would make the read lock-free, but
/// libstdc++'s lock-bit implementation is opaque to ThreadSanitizer and CI
/// runs the server tests under TSan.)
///
/// Swap versions continue strictly increasing from the initial snapshot's.
class ModelRegistry {
 public:
  /// Takes the initial snapshot (conventionally version 1).
  explicit ModelRegistry(std::shared_ptr<const ServingModel> initial);

  /// The current snapshot (never null).
  std::shared_ptr<const ServingModel> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Loads and compiles `path` (LoadServingModel) on the calling thread,
  /// rejects a model whose feature count differs from the currently served
  /// one (in-flight requests were validated against that width), assigns
  /// the next version, publishes, and returns the published snapshot.
  /// Serialized internally; concurrent swaps queue.
  Result<std::shared_ptr<const ServingModel>> SwapFromFile(
      const std::string& path);

  uint32_t num_swaps() const {
    return swaps_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex swap_mu_;  ///< Serializes SwapFromFile (not the readers).
  mutable std::mutex mu_;  ///< Guards `current_`.
  std::shared_ptr<const ServingModel> current_;
  std::atomic<uint32_t> next_version_{2};
  std::atomic<uint32_t> swaps_{0};
};

}  // namespace t3

#endif  // T3_SERVER_SERVING_MODEL_H_
