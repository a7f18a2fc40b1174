#ifndef T3_ANALYSIS_TRANSLATION_VALIDATOR_H_
#define T3_ANALYSIS_TRANSLATION_VALIDATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/report.h"
#include "analysis/tree_lifter.h"
#include "gbt/forest.h"

namespace t3 {

/// Preconditions both validators check before lifting: the IR side must
/// pass Forest::Validate (`invalid-forest`) and have one tree per code
/// region (`tree-count-mismatch`).
AnalysisReport CheckEquivalencePreconditions(const Forest& forest,
                                             size_t num_regions);

/// The equivalence proof both validators share once their lift passed:
/// steps 2 and 3 of the TranslationValidator pipeline below, for each tree
/// of `forest` against `lifted[i]` (one error-free lift per tree).
void CheckLiftedForest(const Forest& forest,
                       const std::vector<LiftedTree>& lifted,
                       AnalysisReport* report);

/// Translation validator: a static proof that the machine code TreeJit
/// emitted computes exactly the forest it was emitted from.
///
/// Pipeline, per tree region [entries[i], entries[i+1]):
///  1. TreeLifter::LiftForest decodes the bytes once and lifts them back
///     into decision trees — feature index, threshold bits, NaN-routing
///     polarity, and leaf bits per path. The lift is also the safety proof
///     (contained control flow, in-bounds loads; analysis/tree_lifter.h).
///  2. Structural pass against gbt::Forest tree i: simultaneous descent
///     under the emitters' common correspondence (IR left child = branch
///     target / mask-true child, right child = fallthrough / mask-false
///     child), bit-equal thresholds and leaf values, matching split feature
///     and NaN routing. Checks: `shape-mismatch`, `feature-mismatch`,
///     `threshold-mismatch`, `leaf-value-mismatch`, `nan-routing-mismatch`,
///     `branch-polarity-mismatch` (all Error).
///  3. Semantic pass (`semantic-mismatch`, Error): an interval-analysis
///     proof that the lifted tree and the IR tree agree as *functions*.
///     Descending the IR tree partitions the feature space into its leaf
///     cells — axis-aligned boxes over the exact ordered-key domain
///     (analysis/interval_domain.h), where every split threshold, ±inf, and
///     denormal boundary is an integer bound and NaN is tracked per
///     feature. For each cell, every lifted leaf reachable under that cell
///     must return the IR leaf's exact bits. Because the cells cover the
///     whole domain and the arithmetic is exact, agreement on every cell is
///     a proof of pointwise equality, not a sample test.
///
/// The semantic pass runs for a tree only when its structural pass reported
/// an Error: a clean structural pass implies every cell agrees, and a
/// structurally different buffer still gets a semantic verdict with a
/// concrete witness row. Per-tree equivalence
/// plus identical summation order in CompiledForest::Predict gives forest
/// equivalence. The pass is pure byte inspection and runs on any host.
class TranslationValidator {
 public:
  /// Validates emitted code (`code`/`size`, tree functions at `entries`)
  /// against `forest`: CheckEquivalencePreconditions, the lift, then
  /// CheckLiftedForest.
  AnalysisReport Validate(const Forest& forest, const uint8_t* code,
                          size_t size,
                          const std::vector<size_t>& entries) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_TRANSLATION_VALIDATOR_H_
