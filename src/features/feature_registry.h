#ifndef T3_FEATURES_FEATURE_REGISTRY_H_
#define T3_FEATURES_FEATURE_REGISTRY_H_

#include <string>
#include <vector>

#include "features/stage_catalog.h"

namespace t3 {

/// Dimensionality of the per-pipeline feature vector ("FT"/"FE" corpus
/// lines). The registry T3_CHECKs that automatic assignment lands exactly
/// here; tests/features_test.cc pins every index <-> name pair.
inline constexpr int kFeatureDim = 48;

/// Feature vector of one pipeline (the paper's getFeatureVectors, Listing 1):
/// the featurizer's output and the corpus "FT"/"FE" lines (features under
/// true resp. estimated cardinalities).
struct PipelineFeatures {
  int pipeline = 0;                ///< Pipeline index within the query.
  double input_cardinality = 0.0;  ///< Pipeline driving cardinality.
  std::vector<double> values;      ///< Dense, kFeatureDim entries.
};

/// One registered feature: its stable display name ("HashJoin_Probe_
/// out_percentage", "Pred_range_int_percentage"), its kind, and its origin —
/// either an operator-stage of StageCatalog() or a predicate class.
struct FeatureDef {
  std::string name;
  FeatureKind kind = FeatureKind::kCount;
  int stage = -1;       ///< StageCatalog() index; -1 for predicate features.
  int pred_slot = -1;   ///< PredClassSlot value; -1 for stage features.
};

/// The feature index space, assigned automatically from the stage catalog:
/// walking StageCatalog() in order, each stage's kinds claim the next
/// indices, then the 9 predicate-class percentages claim the tail. Indices
/// are therefore stable as long as the catalog is append-only.
class FeatureRegistry {
 public:
  /// The process-wide registry (construction is deterministic).
  static const FeatureRegistry& Get();

  int num_features() const { return static_cast<int>(defs_.size()); }
  const FeatureDef& def(int index) const {
    return defs_[static_cast<size_t>(index)];
  }

  /// Vector index of (stage catalog index, kind), or -1 when that stage does
  /// not carry the kind.
  int StageFeature(int stage, FeatureKind kind) const;

  /// Vector index of a predicate-class slot (PredClassSlot value).
  int PredFeature(int pred_slot) const;

  /// Index of a feature by display name, or -1.
  int FindByName(const std::string& name) const;

 private:
  FeatureRegistry();

  std::vector<FeatureDef> defs_;
  std::vector<std::vector<int>> stage_feature_;  // [stage][kind] -> index
  std::vector<int> pred_feature_;                // [pred_slot] -> index
};

}  // namespace t3

#endif  // T3_FEATURES_FEATURE_REGISTRY_H_
