#ifndef T3_TREEJIT_EVALUATOR_H_
#define T3_TREEJIT_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbt/forest.h"

namespace t3 {

class ThreadPool;

/// Common interface of the three forest evaluators (node-pointer
/// interpretation, flattened-array interpretation, JIT-compiled native
/// code). All implementations produce bit-identical predictions: same split
/// predicate (see GoesLeft), same NaN routing, same summation order
/// (base_score first, then trees in order).
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

/// Node-pointer interpreter: walks Tree::nodes child indices directly.
/// This is the paper's "interpreted" baseline (Tables 1-2, Figure 5).
/// Does not own the forest; the forest must outlive the evaluator.
class InterpretedEvaluator : public ForestEvaluator {
 public:
  explicit InterpretedEvaluator(const Forest& forest) : forest_(&forest) {}

  double Predict(const double* row) const override {
    return forest_->Predict(row);
  }

 private:
  const Forest* forest_;
};

/// Flattened-array interpreter: all trees contiguously in
/// structure-of-arrays node storage with absolute child indices — better
/// locality than pointer chasing, still interpreted. Owns its flattened
/// copy; independent of the source forest's lifetime.
///
/// The batched entry point walks up to 8 rows in lockstep through each
/// tree: leaves self-loop (left == right == self), so every lane can take
/// the tree's full max depth in fixed steps while the per-lane dependent
/// loads interleave. Predictions stay bit-identical to per-row Predict —
/// same predicate, same NaN routing, same summation order.
class FlatEvaluator : public ForestEvaluator {
 public:
  explicit FlatEvaluator(const Forest& forest);

  double Predict(const double* row) const override;
  void PredictBatch(const double* rows, size_t num_rows, size_t num_features,
                    double* out) const override;

 private:
  /// Rows walked in lockstep per block; matches the JIT kernels' width.
  static constexpr size_t kBlockLanes = 8;

  /// Walks `num_lanes` (<= kBlockLanes) row-major rows through every tree.
  void PredictBlock(const double* rows, size_t num_lanes,
                    size_t num_features, double* out) const;

  // One entry per node, parallel arrays (structure-of-arrays).
  std::vector<double> threshold_or_value_;  // Inner: threshold. Leaf: value.
  std::vector<int32_t> feature_;            // -1 marks a leaf.
  std::vector<int32_t> left_;               // Leaf: self.
  std::vector<int32_t> right_;              // Leaf: self.
  std::vector<uint8_t> default_left_;
  std::vector<int32_t> roots_;
  std::vector<int32_t> tree_depth_;  // Max root-to-leaf edges per tree.
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
