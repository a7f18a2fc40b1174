// Extension experiment (beyond the paper's Figure 13): which classes of
// basic features carry T3's accuracy? We retrain with individual feature
// kinds zeroed out — percentages, absolute cardinalities, tuple sizes,
// predicate-class percentages — and report the accuracy loss. Also prints
// the main model's top features by split count.

#include <algorithm>
#include <utility>

#include "bench_util.h"
#include "features/feature_registry.h"
#include "gbt/trainer.h"
#include "harness/training.h"

namespace t3 {
namespace {

/// Registry indices of every feature of one of the given kinds.
std::vector<size_t> MaskedIndices(const std::vector<FeatureKind>& kinds) {
  const FeatureRegistry& registry = FeatureRegistry::Get();
  std::vector<size_t> masked;
  for (int i = 0; i < registry.num_features(); ++i) {
    for (FeatureKind kind : kinds) {
      if (registry.def(i).kind == kind) {
        masked.push_back(static_cast<size_t>(i));
        break;
      }
    }
  }
  return masked;
}

/// Trains a per-tuple model on the train split with the masked features
/// zeroed in every row (same recipe as Workbench::MainModel, fewer trees —
/// this binary trains one model per variant). The forest never splits on a
/// zeroed, hence constant, column, so evaluation needs no mask.
T3Model TrainMasked(const Corpus& corpus, const std::vector<size_t>& masked) {
  T3Config config;
  config.drop_features.assign(masked.begin(), masked.end());
  config.train.num_trees = 80;
  Result<TrainingMatrix> matrix = BuildTrainingMatrix(
      corpus, bench::IsTrain, CardinalityMode::kTrue, config, 0);
  T3_CHECK_OK(matrix);
  Result<Forest> forest =
      TrainForest(matrix->rows, matrix->targets, matrix->num_features,
                  config.train, /*stats=*/nullptr);
  T3_CHECK_OK(forest);
  return T3Model(*std::move(forest), config.target);
}

void Run() {
  Workbench& workbench = bench::SharedWorkbench();
  const Corpus& corpus = workbench.corpus();
  const auto test_records = SelectRecords(corpus, bench::IsTest);

  struct Variant {
    const char* label;
    std::vector<FeatureKind> masked;
  };
  const std::vector<Variant> variants = {
      {"full feature set (T3)", {}},
      {"no percentages",
       {FeatureKind::kInPercentage, FeatureKind::kRightPercentage,
        FeatureKind::kOutPercentage}},
      {"no absolute cardinalities",
       {FeatureKind::kInCard, FeatureKind::kOutCard}},
      {"no tuple sizes", {FeatureKind::kInSize, FeatureKind::kOutSize}},
      {"no predicate-class percentages",
       {FeatureKind::kPredicatePercentage}},
      {"counts only",
       {FeatureKind::kInPercentage, FeatureKind::kRightPercentage,
        FeatureKind::kOutPercentage, FeatureKind::kInCard,
        FeatureKind::kOutCard, FeatureKind::kInSize, FeatureKind::kOutSize,
        FeatureKind::kPredicatePercentage}},
  };

  PrintExperimentHeader(
      "Extension: feature-group ablation",
      "not in the paper; quantifies each basic-feature class's contribution "
      "to T3's accuracy (Section 3 motivates percentage as the most used "
      "feature).");
  ReportTable table({"Variant", "p50", "p90", "Avg"});
  for (const Variant& variant : variants) {
    const std::vector<size_t> masked = MaskedIndices(variant.masked);
    const T3Model model = TrainMasked(corpus, masked);
    const QErrorSummary summary = Summarize(QErrors(model, test_records));
    table.AddRow({variant.label, bench::FormatQ(summary.p50),
                  bench::FormatQ(summary.p90), bench::FormatQ(summary.avg)});
  }
  table.Print();

  // Top features of the main model by split count.
  const T3Model& main = workbench.MainModel();
  const std::vector<int> splits = FeatureSplitCounts(main.forest());
  std::vector<std::pair<int, size_t>> ranked;
  for (size_t i = 0; i < splits.size(); ++i) ranked.emplace_back(splits[i], i);
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("\ntop 12 features of the main model by split count:\n");
  for (size_t i = 0; i < 12 && i < ranked.size(); ++i) {
    std::printf("  %5d  %s\n", ranked[i].first,
                FeatureRegistry::Get()
                    .def(static_cast<int>(ranked[i].second))
                    .name.c_str());
  }
}

}  // namespace
}  // namespace t3

int main() {
  t3::Run();
  return 0;
}
