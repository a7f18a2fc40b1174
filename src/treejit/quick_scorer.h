#ifndef T3_TREEJIT_QUICK_SCORER_H_
#define T3_TREEJIT_QUICK_SCORER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbt/forest.h"
#include "treejit/evaluator.h"

namespace t3 {

/// True when this build compiles QuickScorer's 8-lane AVX2 scan (x86-64,
/// built without -DT3_DISABLE_AVX2=ON). Whether the scan is *dispatched*
/// also depends on the forest (QuickScorer::vectorized) and on the runtime
/// probe (BatchKernelsEnabled in common/cpu_features.h).
bool BatchJitSupported();

/// Bitvector forest traversal (QuickScorer, Lucchese et al., SIGIR 2015):
/// the evaluator behind every CompiledForest::PredictBatch. Its cost
/// follows the split nodes a row rejects, not the bytes of code a walk
/// fetches, and its arrays (~21 B per inner node plus 8 B per leaf) stay
/// cache-resident between small calls.
///
/// Each tree's leaves are numbered left to right and held as one bit each
/// in the tree's bitvector (64 leaves per word, as many words as the tree
/// needs). Every inner node owns a mask that clears the leaves of its left
/// subtree. All split nodes of a feature are sorted by ascending threshold;
/// for each feature value `x` the scan applies the masks of the nodes with
/// `x >= threshold` (the nodes whose `x < threshold` test is false, so the
/// row goes right), and stops at the first threshold above `x`. A NaN
/// feature applies the masks of its `default_left == false` nodes only.
/// Afterwards the exit leaf of each tree is its lowest set bit: the
/// leftmost leaf no false node ruled out, which is the leaf the root-down
/// walk reaches.
///
/// PredictBatch runs the same scan over 8 rows at once where it can
/// (V-QuickScorer, Lucchese et al., SIGIR 2016): when every tree has at
/// most 32 leaves, one 32-bit word per row holds a tree's bitvector, and
/// one AVX2 register holds it for 8 rows. The scan of a feature's run
/// stops when no row of the block is at or above the threshold.
///
/// Predictions add base_score, then each tree's exit leaf in tree order,
/// so they are bit-identical to Forest::Predict on either path. Works for
/// every forest Forest::Validate accepts, whatever the tree sizes; building
/// it is linear in the node count plus one sort of each feature's
/// thresholds.
class QuickScorer : public ForestEvaluator {
 public:
  /// `forest` must pass Forest::Validate(). Owns its own arrays;
  /// independent of the source forest's lifetime.
  explicit QuickScorer(const Forest& forest);

  double Predict(const double* row) const override;
  /// Rows are row-major with stride `num_features`, at least the forest's
  /// feature count. Whole 8-row blocks go to the 8-lane scan when
  /// vectorized() and BatchKernelsEnabled() hold; every other row (the
  /// last num_rows % 8, or all of them otherwise) is scored on its own.
  void PredictBatch(const double* rows, size_t num_rows, size_t num_features,
                    double* out) const override;

  /// The one-row scan over every row, never the 8-lane one: what
  /// PredictBatch runs on the rows the 8-lane scan does not take. Same
  /// stride contract and the same bits.
  void PredictEachRow(const double* rows, size_t num_rows,
                      size_t num_features, double* out) const;

  /// True when the 8-lane AVX2 scan is compiled in (BatchJitSupported) and
  /// every tree has at most 32 leaves. A property of the forest's shape;
  /// the trainer's default max_leaves (31) always meets it.
  bool vectorized() const { return vectorized_; }

 private:
  /// A left subtree whose leaves span several bitvector words: the first
  /// and last words are masked, the words between them cleared.
  struct Span {
    uint32_t first_word;
    uint32_t last_word;
    uint64_t first_mask;
    uint64_t last_mask;
  };

  /// `word_` values at or above this index spans_, not a bitvector word.
  static constexpr uint32_t kSpanTag = uint32_t{1} << 31;

  /// One row's prediction with `bits` (num_words() words) as scratch.
  double Score(const double* row, uint64_t* bits) const;
  /// Predicts rows [0, 8 * num_blocks) with the 8-lane scan. Defined only
  /// where BatchJitSupported(); call only when vectorized().
  void PredictBlocks(const double* rows, size_t num_blocks, size_t stride,
                     double* out) const;
  static void ClearSpan(const Span& span, uint64_t* bits);
  size_t num_words() const { return initial_bits_.size(); }

  // Split nodes, grouped by feature and sorted by ascending threshold
  // within each feature (parallel arrays). Feature split_features_[k] owns
  // [feature_begin_[k], feature_begin_[k + 1]); features without a split
  // are absent.
  std::vector<int32_t> split_features_;
  std::vector<uint32_t> feature_begin_;
  std::vector<double> threshold_;
  std::vector<uint32_t> word_;  ///< Bitvector word, or kSpanTag + span.
  std::vector<uint64_t> mask_;  ///< Clears the left subtree's leaves.
  std::vector<uint8_t> default_left_;
  std::vector<Span> spans_;

  /// Every tree's bitvector with all of its leaves set, trees in order.
  std::vector<uint64_t> initial_bits_;
  /// Tree t's words start at tree_word_[t]; its leaf values (left to right)
  /// at tree_leaf_[t] in leaf_value_. One extra entry closes the last tree.
  std::vector<uint32_t> tree_word_;
  std::vector<uint32_t> tree_leaf_;
  std::vector<double> leaf_value_;
  double base_score_ = 0.0;
  int num_features_ = 0;
  bool vectorized_ = false;
};

}  // namespace t3

#endif  // T3_TREEJIT_QUICK_SCORER_H_
