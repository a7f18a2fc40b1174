#ifndef T3_GBT_FOREST_H_
#define T3_GBT_FOREST_H_

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/report.h"
#include "common/status.h"

namespace t3 {

/// One node of a regression tree, stored by index inside Tree::nodes.
/// Node 0 is the root; `left`/`right` index into the same vector.
struct TreeNode {
  bool is_leaf = false;
  int feature = -1;       ///< Split feature (inner nodes), -1 for leaves.
  double threshold = 0.0; ///< Go left iff x[feature] < threshold.
  int left = -1;
  int right = -1;
  double value = 0.0;     ///< Leaf prediction (includes shrinkage).
  /// Where NaN feature values go. LightGBM's default_left; our trainer
  /// always produces false (NaN routes right), but evaluators and the JIT
  /// honor the flag either way.
  bool default_left = false;
};

struct Tree {
  std::vector<TreeNode> nodes;
};

/// Split decision shared by every evaluator (interpreted, flattened, JIT):
/// strictly-less comparison; equality and +/-inf follow from `<`; NaN routes
/// by `default_left`. All evaluators must agree bit-exactly, so any change
/// here must be mirrored in src/treejit.
inline bool GoesLeft(const TreeNode& node, double x) {
  if (std::isnan(x)) return node.default_left;
  return x < node.threshold;
}

/// Walks one tree from the root; returns the reached leaf's value.
double PredictTree(const Tree& tree, const double* row);

/// A gradient-boosted forest of regression trees.
/// Prediction = base_score + sum of per-tree leaf values, in tree order.
struct Forest {
  int num_features = 0;
  double base_score = 0.0;
  std::vector<Tree> trees;

  /// Reference (node-pointer) prediction; the baseline every other
  /// evaluator is tested against.
  double Predict(const double* row) const;

  size_t NumNodes() const;
  size_t NumLeaves() const;

  /// Text serialization ("t3gbt v1"). Doubles are printed as %.17g would
  /// print them (std::to_chars, general format, precision 17), which is
  /// injective on finite doubles and -0.0; FromText's correctly rounded
  /// parse inverts it, so save -> load round-trips are bit-exact (see
  /// SameForest).
  ///
  ///   t3gbt v1
  ///   num_features 48
  ///   base_score 7.7257788436153465
  ///   num_trees 200
  ///   tree 61
  ///   <is_leaf> <feature> <threshold> <left> <right> <value|default_left>
  ///   ...
  ///
  /// Inner nodes carry `default_left` in the last column; leaves carry the
  /// leaf value (feature/left/right are -1).
  std::string ToText() const;

  /// Parses ToText output and rejects invalid forests (see Validate). The
  /// text is the forest body alone: a model file's "t3model target <n>"
  /// line is read by ParseModelHeader (model/t3_model.h), not here.
  ///
  /// Numbers are read by the shared TokenCursor (common/token_cursor.h), so
  /// each must fill its whole token: a leading '+', a hex float ("0x1p-1")
  /// and an integer outside its field's range (num_features, feature, left
  /// and right are int) are InvalidArgument. A tree or node count larger
  /// than the rest of the text could encode is rejected before anything is
  /// allocated.
  static Result<Forest> FromText(std::string_view text);

  /// FromText without the Validate gate: syntactic parse only. For tools
  /// that report on a corrupt model (t3_lint runs CheckStructure and the
  /// analysis::ForestVerifier warnings over the result) instead of stopping
  /// at the first error. Never feed an unvalidated forest to an evaluator.
  static Result<Forest> ParseTextUnvalidated(std::string_view text);

  /// The forest's rules, every violation reported as an Error (check ids
  /// in parentheses): num_features > 0 (bad-num-features), base_score
  /// finite (nonfinite-base-score); per tree at least one node
  /// (empty-tree), split features within num_features (bad-feature-index),
  /// finite thresholds and leaf values (nonfinite-threshold,
  /// nonfinite-leaf-value), child indices inside the node array
  /// (missing-child), every node reached from the root exactly once
  /// (node-shared, orphan-node) and leaves = inner nodes + 1
  /// (leaf-count-mismatch). Cycle-safe: the reachability walk never
  /// re-enters a node.
  AnalysisReport CheckStructure() const;

  /// The loader's and the JIT's reject gate: CheckStructure().ToStatus().
  Status Validate() const;
};

/// True iff `a` and `b` agree on every field ToText writes: num_features,
/// base_score by bits, and per node is_leaf, then for a leaf its value by
/// bits, for an inner node feature, threshold by bits, left, right and
/// default_left. Equal forests compute the same function bit for bit, so
/// this linear check is the model cache's round-trip proof
/// (ToText -> FromText -> SameForest). It accepts a subset of what
/// analysis::ForestDiff bounding the divergence at zero accepts: it also
/// tells -0.0 from +0.0 and rejects structural rewrites that compute the
/// same function.
bool SameForest(const Forest& a, const Forest& b);

/// How often each feature index appears as a split across the forest, a
/// size-num_features histogram. The feature-importance proxy the ablation
/// bench ranks features by (LightGBM's "split" importance).
std::vector<int> FeatureSplitCounts(const Forest& forest);

/// Reads a whole file; NotFound/Unavailable on error. Shared by the model
/// and corpus loaders.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes (truncates) a whole file.
Status WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace t3

#endif  // T3_GBT_FOREST_H_
