#ifndef T3_TREEJIT_QUICK_SCORER_H_
#define T3_TREEJIT_QUICK_SCORER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbt/forest.h"
#include "treejit/evaluator.h"

namespace t3 {

/// Bitvector forest traversal (QuickScorer, Lucchese et al., SIGIR 2015):
/// the evaluator CompiledForest::PredictBatch runs on batches too small for
/// the AVX kernels. Its cost follows the split nodes a row rejects, not the
/// bytes of code a walk fetches, and its arrays (~21 B per inner node plus
/// 8 B per leaf) stay cache-resident between small calls.
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
/// Predictions add base_score, then each tree's exit leaf in tree order,
/// so they are bit-identical to Forest::Predict. Works for every forest
/// Forest::Validate accepts, whatever the tree sizes; building it is linear
/// in the node count plus one sort of each feature's thresholds.
class QuickScorer : public ForestEvaluator {
 public:
  /// `forest` must pass Forest::Validate(). Owns its own arrays;
  /// independent of the source forest's lifetime.
  explicit QuickScorer(const Forest& forest);

  double Predict(const double* row) const override;
  /// Rows are row-major with stride `num_features`, at least the forest's
  /// feature count.
  void PredictBatch(const double* rows, size_t num_rows, size_t num_features,
                    double* out) const override;

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
};

}  // namespace t3

#endif  // T3_TREEJIT_QUICK_SCORER_H_
