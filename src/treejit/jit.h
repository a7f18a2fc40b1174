#ifndef T3_TREEJIT_JIT_H_
#define T3_TREEJIT_JIT_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "treejit/evaluator.h"
#include "treejit/quick_scorer.h"

namespace t3 {

/// Machine code emitted for a forest, before it is mapped executable: the
/// raw bytes plus each tree function's entry offset. Exposed separately
/// from Compile so the lift and validator (src/analysis) and tests can
/// inspect the exact bytes that would run.
struct JitArtifact {
  std::vector<uint8_t> code;
  std::vector<size_t> entries;  ///< One per tree, ascending, [0] == 0.
  int num_features = 0;
};

/// Emits (but does not map or run) x86-64 code for `forest`. Fails on a
/// structurally invalid forest and on non-x86-64 builds.
Result<JitArtifact> EmitForestCode(const Forest& forest);

/// Knobs for CompiledForest::Compile. Nothing is mapped executable before
/// its proof passed; the scalar code is decoded and lifted once however
/// many of the proof knobs are set. A failed proof is an emitter bug (the
/// forest was already validated) and makes Compile return InternalError.
struct JitCompileOptions {
  /// Lift the emitted scalar code before mapping it
  /// (analysis/tree_lifter.h): whitelisted instructions in the emitter's
  /// grammar, control flow contained in each tree's region, every node
  /// reachable, feature loads in bounds. On by default in debug builds;
  /// release callers opt in (a lift is one linear pass over the code).
#ifdef NDEBUG
  bool audit = false;
#else
  bool audit = true;
#endif
  /// Lift the scalar code and prove it equal to the source forest:
  /// structural and per-cell semantic equivalence (see
  /// analysis/translation_validator.h). Implies the `audit` lift. On by
  /// default in debug builds; release callers opt in (cost is roughly one
  /// interval walk per leaf, still well under a model load).
#ifdef NDEBUG
  bool validate_translation = false;
#else
  bool validate_translation = true;
#endif
  /// Ignored. It proved the AVX batch kernels that Compile no longer
  /// emits: batches now run QuickScorer's ahead-of-time compiled scan, so
  /// no generated batch code is left to prove. It stays while perfbench
  /// still sets it.
  bool validate_batch = false;
};

/// A forest compiled to native x86-64 machine code, the paper's core
/// latency optimization (Tables 1-2, Figure 5): each inner node becomes a
/// compare + conditional branch, each leaf a return — the same scheme as
/// lleaves, without the LLVM dependency.
///
/// Each tree is emitted as one function `double (*)(const double* row)`
/// (System V AMD64: row in rdi, result in xmm0); Predict sums the tree
/// results after base_score in tree order, so predictions are bit-identical
/// to Forest::Predict. Next to the machine code, Compile builds a
/// QuickScorer for batches.
///
/// Which evaluator answers what:
///  - Predict, one row: the scalar JIT walk (the paper's compiled
///    artifact; Table 1, Figure 5).
///  - PredictBatch: QuickScorer — its 8-lane AVX2 scan over whole 8-row
///    blocks where that applies (QuickScorer::vectorized, and
///    BatchKernelsEnabled), its one-row scan for every other row.
///
/// Code lives in mmap'd memory managed W^X: pages are writable during
/// emission, then flipped to read+execute — never both.
///
/// Compile returns an error on:
///  - non-x86-64 hosts,
///  - mmap/mprotect failure,
///  - a structurally invalid forest.
///
/// The prediction server does not compile: a served model is a QuickScorer
/// (server/serving_model.h).
class CompiledForest : public ForestEvaluator {
 public:
  static Result<std::unique_ptr<CompiledForest>> Compile(
      const Forest& forest, const JitCompileOptions& options = {});

  ~CompiledForest() override;
  CompiledForest(const CompiledForest&) = delete;
  CompiledForest& operator=(const CompiledForest&) = delete;

  double Predict(const double* row) const override;
  /// QuickScorer::PredictBatch; bit-identical to Predict on every row.
  /// The row stride `num_features` must be at least the forest's width.
  void PredictBatch(const double* rows, size_t num_rows, size_t num_features,
                    double* out) const override;

  /// Bytes of emitted machine code (before page rounding).
  size_t code_size() const { return code_size_; }

  /// True when PredictBatch takes this forest's whole 8-row blocks through
  /// QuickScorer's AVX2 scan (QuickScorer::vectorized), provided the
  /// runtime probe (BatchKernelsEnabled) also passes. The name predates
  /// the scan, from when it meant emitted AVX kernels.
  bool has_batch_kernels() const { return quick_scorer_.vectorized(); }

 private:
  using TreeFn = double (*)(const double*);

  explicit CompiledForest(const Forest& forest);

  double base_score_ = 0.0;
  std::vector<TreeFn> tree_fns_;
  void* code_ = nullptr;       // mmap'd region, PROT_READ | PROT_EXEC.
  size_t mapped_size_ = 0;
  size_t code_size_ = 0;
  QuickScorer quick_scorer_;
};

/// True when this build can JIT-compile forests (x86-64 with mmap).
bool JitSupported();

}  // namespace t3

#endif  // T3_TREEJIT_JIT_H_
