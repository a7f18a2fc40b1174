#ifndef T3_ANALYSIS_FEATURE_AUDITOR_H_
#define T3_ANALYSIS_FEATURE_AUDITOR_H_

#include <string>
#include <vector>

#include "common/report.h"
#include "gbt/forest.h"

namespace t3 {

/// Static auditor of the feature contract: the stage catalog x feature
/// registry x featurizer agreement that every corpus vector and every
/// trained model depend on. Two halves:
///
///  - AuditRegistry checks the registry itself (t3_lint runs it once per
///    invocation): a catalog or registry edit that breaks index stability
///    fails lint before it silently poisons saved corpora and models.
///  - AuditVector / AuditVectorPair check concrete feature vectors (corpus
///    "FT"/"FE" lines, live featurizer output).
///
/// Diagnostics anchor `node` to the feature index (`tree` stays -1). Check
/// ids: registry-dim, registry-name, registry-coverage, registry-stage,
/// registry-count, registry-pred; feature-dim, feature-finite,
/// feature-count, feature-range, feature-mode.
class FeatureAuditor {
 public:
  /// Registry/catalog cross-checks: exactly kFeatureDim indices assigned
  /// once each and in-bounds, unique names, every executor op class mapped
  /// to its required operator-stages, every stage carrying a count feature,
  /// and the 9 predicate-class slots exhaustive over eq/neq/range x
  /// int/float/date.
  AnalysisReport AuditRegistry() const;

  /// One feature vector: dimension == kFeatureDim, every value finite,
  /// count features non-negative integers, percentage features in [0, 100],
  /// cardinalities and sizes non-negative. `context` prefixes messages
  /// (e.g. "FT pipeline 2").
  AnalysisReport AuditVector(const std::vector<double>& values,
                             const std::string& context) const;

  /// True-vs-estimated structural identity: equal dimensions and bit-equal
  /// count features (cardinality mode changes magnitudes, never structure).
  AnalysisReport AuditVectorPair(const std::vector<double>& feat_true,
                                 const std::vector<double>& feat_est,
                                 const std::string& context) const;

  /// Names of registry features never split on by `forest` — the dead-
  /// feature report (informational; t3_lint emits it outside the exit-code
  /// contract). Empty when the forest's feature space is not the registry's.
  std::vector<std::string> DeadFeatures(const Forest& forest) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_FEATURE_AUDITOR_H_
