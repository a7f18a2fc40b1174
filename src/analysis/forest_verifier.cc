#include "analysis/forest_verifier.h"

#include <utility>
#include <vector>

#include "analysis/interval_domain.h"
#include "common/string_util.h"

namespace t3 {
namespace {

/// The dead-branch and duplicate-threshold passes over one structurally
/// clean tree: a root-to-leaf walk carrying the FeatureBox its ancestor
/// splits leave (analysis/interval_domain.h). A child is dead when the
/// split's threshold lies at or beyond the node's bound on that child's
/// side, which empties the child's range on the split feature, and NaN is
/// not routed there. The test is against the bound, not the child range's
/// emptiness: inside a subtree an ancestor already emptied, a split reports
/// only the sides its own threshold closes. Bounds on a feature only come
/// from ancestor splits on it, so a threshold on a bound repeats an
/// ancestor's split.
/// Explicit stack, right subtree first — corrupt input must not be able to
/// overflow the call stack.
void CheckIntervals(const Forest& forest, int tree_index,
                    AnalysisReport* report) {
  const Tree& tree = forest.trees[static_cast<size_t>(tree_index)];
  struct Frame {
    int node;
    FeatureBox box;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{0, FeatureBox::Full(forest.num_features)});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const TreeNode& node = tree.nodes[static_cast<size_t>(frame.node)];
    if (node.is_leaf) continue;
    const size_t f = static_cast<size_t>(node.feature);
    const FeatureRange& range = frame.box.ranges[f];
    const uint64_t key = OrderedKey(node.threshold);
    if (key == range.lo || key == SuccKey(range.hi)) {
      report->Add(Severity::kWarning, "duplicate-threshold", tree_index,
                  frame.node,
                  StrFormat("repeats an ancestor split on feature %d",
                            node.feature));
    }
    FeatureBox left = frame.box.Below(node.feature, node.threshold,
                                      /*nan_side=*/node.default_left);
    FeatureBox right = frame.box.AtOrAbove(node.feature, node.threshold,
                                           /*nan_side=*/!node.default_left);
    if (key <= range.lo && !left.ranges[f].nan) {
      report->Add(Severity::kWarning, "dead-branch", tree_index, frame.node,
                  StrFormat("left child unreachable: x[%d] >= %.17g here "
                            "but split needs x < %.17g",
                            node.feature, DoubleFromKey(range.lo),
                            node.threshold));
    }
    if (key > range.hi && !right.ranges[f].nan) {
      report->Add(Severity::kWarning, "dead-branch", tree_index, frame.node,
                  StrFormat("right child unreachable: x[%d] < %.17g here "
                            "but split needs x >= %.17g",
                            node.feature, DoubleFromKey(SuccKey(range.hi)),
                            node.threshold));
    }
    stack.push_back(Frame{node.left, std::move(left)});
    stack.push_back(Frame{node.right, std::move(right)});
  }
}

}  // namespace

AnalysisReport ForestVerifier::Verify(const Forest& forest) const {
  AnalysisReport report = forest.CheckStructure();
  // The warning passes walk only trees the rules accept: in-range features
  // and children, finite thresholds, every node reached once.
  std::vector<char> clean(forest.trees.size(), 1);
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity == Severity::kError && d.tree >= 0) {
      clean[static_cast<size_t>(d.tree)] = 0;
    }
  }

  // default_left values seen per feature across the forest, for the
  // NaN-routing consistency warning: bit 0 = false seen, bit 1 = true seen.
  std::vector<char> routing(
      forest.num_features > 0 ? static_cast<size_t>(forest.num_features) : 0,
      0);
  for (size_t t = 0; t < forest.trees.size(); ++t) {
    if (!clean[t] || forest.num_features <= 0) continue;
    for (const TreeNode& node : forest.trees[t].nodes) {
      if (!node.is_leaf) {
        routing[static_cast<size_t>(node.feature)] |=
            node.default_left ? 2 : 1;
      }
    }
    CheckIntervals(forest, static_cast<int>(t), &report);
  }

  for (size_t f = 0; f < routing.size(); ++f) {
    if (routing[f] == 3) {
      report.Add(Severity::kWarning, "inconsistent-nan-routing", -1, -1,
                 StrFormat("feature %zu splits route NaN both left and "
                           "right across the forest",
                           f));
    }
  }
  return report;
}

}  // namespace t3
