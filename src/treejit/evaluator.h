#ifndef T3_TREEJIT_EVALUATOR_H_
#define T3_TREEJIT_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbt/forest.h"

namespace t3 {

class ThreadPool;

/// Common interface of the forest evaluators (flattened-array
/// interpretation, QuickScorer's bitvector traversal, JIT-compiled native
/// code). All produce predictions bit-identical to Forest::Predict, the
/// reference semantics: same split predicate (see GoesLeft), same NaN
/// routing, same summation order (base_score first, then trees in order).
class ForestEvaluator {
 public:
  virtual ~ForestEvaluator() = default;

  /// Predicts one row of Forest::num_features doubles.
  virtual double Predict(const double* row) const = 0;

  /// Predicts `num_rows` rows stored row-major with stride `num_features`.
  /// The default implementation loops over Predict.
  virtual void PredictBatch(const double* rows, size_t num_rows,
                            size_t num_features, double* out) const;
};

/// Flattened-array interpreter: all trees contiguously in
/// structure-of-arrays node storage with absolute child indices — better
/// locality than pointer chasing, still interpreted. This is the paper's
/// "interpreted" baseline (Tables 1-2, Figure 5) and the harness's
/// evaluator. Owns its flattened copy; independent of the source forest's
/// lifetime.
class FlatEvaluator : public ForestEvaluator {
 public:
  explicit FlatEvaluator(const Forest& forest);

  double Predict(const double* row) const override;

 private:
  // One entry per node, parallel arrays (structure-of-arrays).
  std::vector<double> threshold_or_value_;  // Inner: threshold. Leaf: value.
  std::vector<int32_t> feature_;            // -1 marks a leaf.
  std::vector<int32_t> left_;               // Leaf: -1.
  std::vector<int32_t> right_;              // Leaf: -1.
  std::vector<uint8_t> default_left_;
  std::vector<int32_t> roots_;
  double base_score_;
};

/// Sum of Predict over `num_rows` rows, fanned out over `pool`. Partial
/// sums are combined in chunk order, so the result is deterministic for a
/// fixed pool size (though the grouping differs from a serial left-to-right
/// sum). Used by Figure 5's multi-threaded interpretation curve.
double PredictSumParallel(const ForestEvaluator& evaluator, ThreadPool* pool,
                          const double* rows, size_t num_rows,
                          size_t num_features);

}  // namespace t3

#endif  // T3_TREEJIT_EVALUATOR_H_
