#ifndef T3_ANALYSIS_BATCH_EQUIVALENCE_VALIDATOR_H_
#define T3_ANALYSIS_BATCH_EQUIVALENCE_VALIDATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/report.h"
#include "gbt/forest.h"

namespace t3 {

/// Batch-kernel equivalence validator: the static proof that the AVX batch
/// kernels (treejit EmitForestBatchCode) compute exactly the scalar forest,
/// per lane.
///
/// Pipeline, per kernel region [entries[i], entries[i+1]):
///  1. TreeLifter::LiftBatchForest decodes [0, pool_begin) once (the
///     constant pool is data), parses each region against the batch
///     emitter's closed grammar and lifts it back into a decision tree.
///     The lift is also the safety proof: no branch but the dead-subtree
///     guards, each jumping exactly over one split child; in-bounds lane
///     loads, spills, accumulator and pool accesses
///     (analysis/tree_lifter.h). Because the grammar fixes how masks are
///     narrowed, spilled and resumed, any per-lane divergence from tree
///     evaluation fails the parse.
///  2. Prove the lifted tree equals IR tree i with the passes shared with
///     the scalar TranslationValidator (CheckLiftedForest): bit-exact
///     structural descent and the per-cell interval-domain semantic proof
///     — pointwise equality over every threshold-induced cell of the
///     feature space, NaN included.
///
/// Per-tree equivalence plus the kernels' fixed `acc += leaf` epilogue (one
/// add per tree, in tree order, after the caller seeds base_score) gives
/// bit-identical batch predictions. Pure byte inspection; runs on any host.
class BatchEquivalenceValidator {
 public:
  /// Validates emitted batch code (`code`/`size`, kernels at `entries`,
  /// constant pool from `pool_begin` rounded up to 8 bytes) against
  /// `forest`: CheckEquivalencePreconditions, the batch lift, then
  /// CheckLiftedForest.
  AnalysisReport Validate(const Forest& forest, const uint8_t* code,
                          size_t size, const std::vector<size_t>& entries,
                          size_t pool_begin) const;
};

/// A batched prediction entry point under test: fills `out[0..num_rows)`
/// from `num_rows` row-major rows. Taking a std::function keeps the
/// dependency direction intact — treejit hands its mapped kernels down to
/// the analysis layer, which never links treejit.
using BatchPredictFn = std::function<void(
    const double* rows, size_t num_rows, size_t num_features, double* out)>;

/// Dynamic fallback to the static proof: exhaustive per-cell differential
/// check. Enumerates every leaf cell of every tree (the same cell
/// decomposition the semantic proof walks), takes one concrete witness row
/// per cell, runs all witnesses through `predict_batch` in one call (padded
/// to the kernels' 8-row width so no witness falls into a scalar tail), and
/// bit-compares each against Forest::Predict. Reports the first mismatch as
/// `batch-differential-mismatch` (Error) with the witness row index and
/// both values. `invalid-forest` when the forest does not validate.
AnalysisReport BatchDifferentialCheck(const Forest& forest,
                                      const BatchPredictFn& predict_batch);

}  // namespace t3

#endif  // T3_ANALYSIS_BATCH_EQUIVALENCE_VALIDATOR_H_
