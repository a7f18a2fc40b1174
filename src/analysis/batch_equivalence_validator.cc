#include "analysis/batch_equivalence_validator.h"

#include "analysis/interval_domain.h"
#include "analysis/translation_validator.h"
#include "analysis/tree_lifter.h"
#include "common/string_util.h"

namespace t3 {

AnalysisReport BatchEquivalenceValidator::Validate(
    const Forest& forest, const uint8_t* code, size_t size,
    const std::vector<size_t>& entries, size_t pool_begin) const {
  AnalysisReport report = CheckEquivalencePreconditions(forest, entries.size());
  if (report.HasErrors()) return report;
  std::vector<LiftedTree> lifted;
  report = TreeLifter().LiftBatchForest(code, size, entries, pool_begin,
                                        forest.num_features, &lifted);
  if (!report.HasErrors()) CheckLiftedForest(forest, lifted, &report);
  return report;
}

AnalysisReport BatchDifferentialCheck(const Forest& forest,
                                      const BatchPredictFn& predict_batch) {
  AnalysisReport report;
  const Status valid = forest.Validate();
  if (!valid.ok()) {
    report.Add(Severity::kError, "invalid-forest", -1, -1,
               StrFormat("differential check needs a valid forest: %s",
                         valid.message().c_str()));
    return report;
  }
  const size_t num_features = static_cast<size_t>(forest.num_features);
  std::vector<double> rows;
  for (const Tree& tree : forest.trees) {
    ForEachLeafCell(tree, FeatureBox::Full(forest.num_features),
                    [&rows](int, const FeatureBox& cell) {
                      const std::vector<double> row = cell.Witness();
                      rows.insert(rows.end(), row.begin(), row.end());
                    });
  }
  const size_t num_witness = rows.size() / num_features;
  if (num_witness == 0) return report;
  // Pad to the kernels' 8-row width with copies of the first witness so no
  // witness lands in an implementation's scalar tail.
  const std::vector<double> pad(rows.begin(),
                                rows.begin() + static_cast<long>(num_features));
  size_t num_rows = num_witness;
  while (num_rows % 8 != 0) {
    rows.insert(rows.end(), pad.begin(), pad.end());
    ++num_rows;
  }
  std::vector<double> got(num_rows, 0.0);
  predict_batch(rows.data(), num_rows, num_features, got.data());
  for (size_t i = 0; i < num_witness; ++i) {
    const double want = forest.Predict(rows.data() + i * num_features);
    if (DoubleBits(want) == DoubleBits(got[i])) continue;
    report.Add(
        Severity::kError, "batch-differential-mismatch", -1,
        static_cast<int>(i),
        StrFormat("witness row %zu: batch path returns %.17g (bits "
                  "0x%016llX) but the scalar forest returns %.17g (bits "
                  "0x%016llX)",
                  i, got[i],
                  static_cast<unsigned long long>(DoubleBits(got[i])), want,
                  static_cast<unsigned long long>(DoubleBits(want))));
    break;
  }
  return report;
}

}  // namespace t3
