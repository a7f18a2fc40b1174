#ifndef T3_TREEJIT_JIT_H_
#define T3_TREEJIT_JIT_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "treejit/evaluator.h"

namespace t3 {

/// Machine code emitted for a forest, before it is mapped executable: the
/// raw bytes plus each tree function's entry offset. Exposed separately
/// from Compile so the lifts and validators (src/analysis) and tests can
/// inspect the exact bytes that would run.
struct JitArtifact {
  std::vector<uint8_t> code;
  std::vector<size_t> entries;  ///< One per tree, ascending, [0] == 0.
  int num_features = 0;
};

/// Emits (but does not map or run) x86-64 code for `forest`. Fails on a
/// structurally invalid forest and on non-x86-64 builds.
Result<JitArtifact> EmitForestCode(const Forest& forest);

/// Machine code of the batched AVX tree kernels, in its own buffer separate
/// from the scalar artifact. One function per tree,
///
///   void f(const double* block /* rdi */, double* acc /* rsi */)
///
/// evaluating 8 rows per call over a feature-major 8-lane block
/// (`block[64*f + 8*lane]` bytes, i.e. feature f of lane `lane`) as two
/// 4-lane ymm halves, accumulating `acc[lane] += leaf_value(lane)` — the
/// same per-tree addend, in the same order, as the scalar path. The code is
/// masked evaluation, straight-line except for one forward guard before each
/// split child that skips the child's subtree when no lane is on its path
/// (a no-op for the masked semantics); see EmitForestBatchCode in jit.cc
/// for the exact instruction grammar, which the batch lift
/// (TreeLifter::LiftBatchForest) re-parses.
///
/// `pool_begin` is the first byte past the last kernel's ret; the
/// vbroadcastsd constant pool starts at the next 8-byte boundary and runs
/// to code.size(). Only [0, pool_begin) is instructions.
struct BatchJitArtifact {
  std::vector<uint8_t> code;
  std::vector<size_t> entries;  ///< One per tree, ascending, [0] == 0.
  size_t pool_begin = 0;
  int num_features = 0;
};

/// Emits (but does not map or run) the AVX batch kernels for `forest`.
/// Fails on a structurally invalid forest; Unavailable when
/// BatchJitSupported() is false.
Result<BatchJitArtifact> EmitForestBatchCode(const Forest& forest);

/// True when this build emits AVX batch kernels (x86-64 with mmap, built
/// without -DT3_DISABLE_AVX2=ON). Whether emitted kernels are *dispatched*
/// additionally depends on the runtime probe (BatchKernelsEnabled in
/// common/cpu_features.h).
bool BatchJitSupported();

/// Knobs for CompiledForest::Compile. Nothing is mapped executable before
/// its proof passed; each artifact is decoded and lifted once however many
/// of the proof knobs are set. A failed proof is an emitter bug (the forest
/// was already validated) and makes Compile return InternalError.
struct JitCompileOptions {
  /// Lift the emitted scalar code and, when BatchJitSupported(), the batch
  /// kernels before mapping them (analysis/tree_lifter.h): whitelisted
  /// instructions in the emitter's grammar, control flow contained in each
  /// tree's region, every node reachable, feature loads, spills and pool
  /// reads in bounds. On by default in debug builds; release callers opt
  /// in (a lift is one linear pass over the code — cheap, but not free on
  /// the model-reload path).
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
  /// Lift the batch kernels and prove each equals its tree per lane
  /// (BatchEquivalenceValidator, analysis/translation_validator.h): the
  /// batch counterpart of validate_translation. Implies the `audit` lift of
  /// the batch code. Same debug-on contract as validate_translation.
#ifdef NDEBUG
  bool validate_batch = false;
#else
  bool validate_batch = true;
#endif
};

/// A forest compiled to native x86-64 machine code, the paper's core
/// latency optimization (Tables 1-2, Figure 5): each inner node becomes a
/// compare + conditional branch, each leaf a return — the same scheme as
/// lleaves, without the LLVM dependency.
///
/// Each tree is emitted as one function `double (*)(const double* row)`
/// (System V AMD64: row in rdi, result in xmm0); Predict sums the tree
/// results after base_score in tree order, so predictions are bit-identical
/// to Forest::Predict. Where BatchJitSupported(), Compile also emits the AVX
/// batch kernels (EmitForestBatchCode).
///
/// Code lives in mmap'd memory managed W^X: pages are writable during
/// emission, then flipped to read+execute — never both.
///
/// Compile returns an error (and callers fall back to FlatEvaluator) on:
///  - non-x86-64 hosts,
///  - mmap/mprotect failure,
///  - a structurally invalid forest.
class CompiledForest : public ForestEvaluator {
 public:
  static Result<std::unique_ptr<CompiledForest>> Compile(
      const Forest& forest, const JitCompileOptions& options = {});

  ~CompiledForest() override;
  CompiledForest(const CompiledForest&) = delete;
  CompiledForest& operator=(const CompiledForest&) = delete;

  double Predict(const double* row) const override;
  /// Runs the AVX kernels over whole 8-row blocks when they are compiled
  /// and dispatched (BatchKernelsEnabled) and `num_features` is the
  /// forest's width; every other row (short batches, tails, a width
  /// mismatch, builds or hosts without kernels) takes the per-row loop.
  /// Bit-identical either way.
  void PredictBatch(const double* rows, size_t num_rows, size_t num_features,
                    double* out) const override;

  /// Bytes of emitted machine code (before page rounding).
  size_t code_size() const { return code_size_; }

  /// True when AVX batch kernels were compiled in. PredictBatch runs them
  /// only when the runtime probe (BatchKernelsEnabled) also passes.
  bool has_batch_kernels() const { return !batch_fns_.empty(); }

  /// Bytes of emitted batch-kernel code + constant pool (0 when none).
  size_t batch_code_size() const { return batch_code_size_; }

 private:
  using TreeFn = double (*)(const double*);
  using BatchFn = void (*)(const double*, double*);

  CompiledForest() = default;

  double base_score_ = 0.0;
  std::vector<TreeFn> tree_fns_;
  void* code_ = nullptr;       // mmap'd region, PROT_READ | PROT_EXEC.
  size_t mapped_size_ = 0;
  size_t code_size_ = 0;
  std::vector<BatchFn> batch_fns_;
  void* batch_code_ = nullptr;  // Second W^X region for the batch kernels.
  size_t batch_mapped_size_ = 0;
  size_t batch_code_size_ = 0;
  int num_features_ = 0;
};

/// True when this build can JIT-compile forests (x86-64 with mmap).
bool JitSupported();

}  // namespace t3

#endif  // T3_TREEJIT_JIT_H_
