#include "analysis/forest_verifier.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/string_util.h"

namespace t3 {
namespace {

/// Interval-analysis warning passes over one structurally clean tree.
/// Walks root-to-leaf carrying, per feature, the half-open interval
/// [lo, hi) that ancestor splits allow a (non-NaN) value to lie in, plus
/// whether a NaN can still flow here (each split on f routes NaN to exactly
/// one side). Iterative DFS with explicit restore frames — corrupt input
/// must not be able to overflow the call stack.
class IntervalWalker {
 public:
  IntervalWalker(const Forest& forest, int tree_index, AnalysisReport* report)
      : tree_(forest.trees[static_cast<size_t>(tree_index)]),
        tree_index_(tree_index),
        report_(report),
        lo_(static_cast<size_t>(forest.num_features),
            -std::numeric_limits<double>::infinity()),
        hi_(static_cast<size_t>(forest.num_features),
            std::numeric_limits<double>::infinity()),
        nan_possible_(static_cast<size_t>(forest.num_features), 1) {}

  void Walk() {
    stack_.push_back(Event{Event::kVisit, 0, {}, false});
    while (!stack_.empty()) {
      const Event event = stack_.back();
      stack_.pop_back();
      const size_t f = static_cast<size_t>(event.state.feature);
      if (event.kind == Event::kRestore) {
        lo_[f] = event.state.lo;
        hi_[f] = event.state.hi;
        nan_possible_[f] = event.state.nan_possible;
        continue;
      }
      if (event.has_state) {
        lo_[f] = event.state.lo;
        hi_[f] = event.state.hi;
        nan_possible_[f] = event.state.nan_possible;
      }
      VisitNode(event.node);
    }
  }

 private:
  /// The interval state of one feature: lo <= x < hi for every non-NaN x
  /// that reaches the current node, and whether NaN can still reach it.
  struct FeatureState {
    int feature = 0;
    double lo = 0.0;
    double hi = 0.0;
    char nan_possible = 0;
  };
  struct Event {
    enum Kind { kVisit, kRestore };
    Kind kind;
    int node;            // kVisit only.
    FeatureState state;  // kVisit: bounds to install first; kRestore: undo.
    bool has_state;
  };

  void VisitNode(int index) {
    const TreeNode& node = tree_.nodes[static_cast<size_t>(index)];
    if (node.is_leaf) return;
    const size_t f = static_cast<size_t>(node.feature);
    const double t = node.threshold;

    if (t == lo_[f] || t == hi_[f]) {
      // Interval bounds on f only ever come from ancestor splits on f, so
      // hitting one exactly means an identical (feature, threshold) pair.
      report_->Add(Severity::kWarning, "duplicate-threshold", tree_index_,
                   index,
                   StrFormat("repeats an ancestor split on feature %d",
                             node.feature));
    }
    const bool nan_goes_left = nan_possible_[f] != 0 && node.default_left;
    const bool nan_goes_right = nan_possible_[f] != 0 && !node.default_left;
    if (t <= lo_[f] && !nan_goes_left) {
      report_->Add(Severity::kWarning, "dead-branch", tree_index_, index,
                   StrFormat("left child unreachable: x[%d] >= %.17g here "
                             "but split needs x < %.17g",
                             node.feature, lo_[f], t));
    }
    if (t >= hi_[f] && !nan_goes_right) {
      report_->Add(Severity::kWarning, "dead-branch", tree_index_, index,
                   StrFormat("right child unreachable: x[%d] < %.17g here "
                             "but split needs x >= %.17g",
                             node.feature, hi_[f], t));
    }

    const FeatureState saved{node.feature, lo_[f], hi_[f], nan_possible_[f]};
    const FeatureState left{
        node.feature, saved.lo, std::min(saved.hi, t),
        static_cast<char>(saved.nan_possible != 0 && node.default_left)};
    const FeatureState right{
        node.feature, std::max(saved.lo, t), saved.hi,
        static_cast<char>(saved.nan_possible != 0 && !node.default_left)};
    // LIFO: right subtree runs first, its restore rewinds f, then the left
    // subtree, then the final restore rewinds for our own siblings.
    stack_.push_back(Event{Event::kRestore, 0, saved, true});
    stack_.push_back(Event{Event::kVisit, node.left, left, true});
    stack_.push_back(Event{Event::kRestore, 0, saved, true});
    stack_.push_back(Event{Event::kVisit, node.right, right, true});
  }

  const Tree& tree_;
  const int tree_index_;
  AnalysisReport* report_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<char> nan_possible_;
  std::vector<Event> stack_;
};

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
    IntervalWalker(forest, static_cast<int>(t), &report).Walk();
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
