#ifndef T3_ANALYSIS_FOREST_VERIFIER_H_
#define T3_ANALYSIS_FOREST_VERIFIER_H_

#include "analysis/report.h"
#include "gbt/forest.h"

namespace t3 {

/// Which ForestVerifier passes run. Structural and semantic *error* checks
/// always run; the interval-analysis warnings can be switched off for
/// latency-sensitive callers (the loader skips them; `t3_lint` runs all).
struct VerifyOptions {
  bool warn_dead_branches = true;
  bool warn_duplicate_thresholds = true;
  bool warn_inconsistent_nan_routing = true;
};

/// Static verifier over the loaded gbt::Forest IR — the front half of the
/// compiled-tree trust chain (the lifts in analysis/tree_lifter.h are the
/// back half: they check the machine code emitted *from* a forest this pass
/// accepted).
///
/// Error-severity checks (a model failing any of these is rejected by
/// Forest::FromText and by CompiledForest::Compile):
///  - `bad-num-features` / `nonfinite-base-score`: forest header sanity.
///  - `empty-tree`: a tree with no nodes.
///  - `bad-feature-index`: split feature outside [0, num_features).
///  - `nonfinite-threshold` / `nonfinite-leaf-value`: NaN or infinity where
///    a finite double is required.
///  - `missing-child`: inner node whose left/right index is outside the
///    node array (includes the -1 "no child" encoding).
///  - `node-shared`: a node reachable twice from the root — a cycle or a
///    diamond; trees must be trees.
///  - `orphan-node`: a node the root cannot reach.
///  - `leaf-count-mismatch`: leaves != inner nodes + 1, the binary-tree
///    arithmetic every well-formed tree satisfies.
///
/// Warning-severity checks (model still loads; the trainer should never
/// produce these, so they flag a corrupt or hand-edited file):
///  - `dead-branch`: a child no input can reach, proven by propagating the
///    per-feature interval each ancestor split implies (NaN routing
///    included: a numerically empty side is only dead if NaN cannot be
///    routed there either).
///  - `duplicate-threshold`: a split repeating an ancestor's exact
///    (feature, threshold) pair — one side is necessarily dead.
///  - `inconsistent-nan-routing`: a feature split with default_left=true in
///    one place and false in another; legal, but our trainer emits a single
///    routing policy, so mixed flags mean the file was not produced by it.
class ForestVerifier {
 public:
  explicit ForestVerifier(const VerifyOptions& options = {})
      : options_(options) {}

  /// Runs every enabled pass; never mutates the forest, never gives up
  /// early — the report lists all findings.
  AnalysisReport Verify(const Forest& forest) const;

 private:
  VerifyOptions options_;
};

}  // namespace t3

#endif  // T3_ANALYSIS_FOREST_VERIFIER_H_
