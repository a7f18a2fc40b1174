#ifndef T3_ANALYSIS_TRANSLATION_VALIDATOR_H_
#define T3_ANALYSIS_TRANSLATION_VALIDATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/report.h"
#include "gbt/forest.h"

namespace t3 {

/// Translation validation: a static proof that the machine code TreeJit
/// emitted (EmitForestCode) computes exactly the forest it was emitted
/// from. The pipeline, per code region [entries[i], entries[i+1]):
///  0. Preconditions: the IR side must pass Forest::Validate
///     (`invalid-forest`) and have one tree per code region
///     (`tree-count-mismatch`).
///  1. Lift (analysis/tree_lifter.h): decode the bytes once and lift each
///     region back into a decision tree — feature index, threshold bits,
///     NaN-routing polarity, and leaf bits per path. The lift is also the
///     safety proof (whitelisted grammar, contained control flow, in-bounds
///     loads).
///  2. Structural pass against gbt::Forest tree i: simultaneous descent
///     under the emitter's correspondence (IR left child = branch target,
///     right child = fallthrough), bit-equal thresholds and leaf values,
///     matching split feature and NaN routing. Checks: `shape-mismatch`,
///     `feature-mismatch`, `threshold-mismatch`, `leaf-value-mismatch`,
///     `nan-routing-mismatch`, `branch-polarity-mismatch` (all Error).
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
/// concrete witness row. Per-tree equivalence plus identical summation
/// order (CompiledForest::Predict adds base_score, then each tree in tree
/// order) gives bit-identical forest predictions. The passes are pure byte
/// inspection and run on any host.
class TranslationValidator {
 public:
  /// Validates emitted scalar code (`code`/`size`, tree functions at
  /// `entries`) against `forest`.
  AnalysisReport Validate(const Forest& forest, const uint8_t* code,
                          size_t size,
                          const std::vector<size_t>& entries) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_TRANSLATION_VALIDATOR_H_
