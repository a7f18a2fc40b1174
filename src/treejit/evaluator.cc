#include "treejit/evaluator.h"

#include <algorithm>
#include <cmath>
#include <future>

#include "common/thread_pool.h"

namespace t3 {

void ForestEvaluator::PredictBatch(const double* rows, size_t num_rows,
                                   size_t num_features, double* out) const {
  for (size_t i = 0; i < num_rows; ++i) {
    out[i] = Predict(rows + i * num_features);
  }
}

FlatEvaluator::FlatEvaluator(const Forest& forest)
    : base_score_(forest.base_score) {
  const size_t num_nodes = forest.NumNodes();
  threshold_or_value_.reserve(num_nodes);
  feature_.reserve(num_nodes);
  left_.reserve(num_nodes);
  right_.reserve(num_nodes);
  default_left_.reserve(num_nodes);
  roots_.reserve(forest.trees.size());
  for (const Tree& tree : forest.trees) {
    const int32_t offset = static_cast<int32_t>(threshold_or_value_.size());
    roots_.push_back(offset);
    for (const TreeNode& node : tree.nodes) {
      if (node.is_leaf) {
        threshold_or_value_.push_back(node.value);
        feature_.push_back(-1);
        left_.push_back(-1);
        right_.push_back(-1);
        default_left_.push_back(0);
      } else {
        threshold_or_value_.push_back(node.threshold);
        feature_.push_back(node.feature);
        left_.push_back(offset + node.left);
        right_.push_back(offset + node.right);
        default_left_.push_back(node.default_left ? 1 : 0);
      }
    }
  }
}

double FlatEvaluator::Predict(const double* row) const {
  double sum = base_score_;
  for (const int32_t root : roots_) {
    size_t node = static_cast<size_t>(root);
    while (feature_[node] >= 0) {
      const double x = row[feature_[node]];
      // Same predicate as GoesLeft(): strict less-than, NaN routes by flag.
      const bool left =
          std::isnan(x) ? default_left_[node] != 0 : x < threshold_or_value_[node];
      node = static_cast<size_t>(left ? left_[node] : right_[node]);
    }
    sum += threshold_or_value_[node];
  }
  return sum;
}

double PredictSumParallel(const ForestEvaluator& evaluator, ThreadPool* pool,
                          const double* rows, size_t num_rows,
                          size_t num_features) {
  if (num_rows == 0) return 0.0;
  const size_t num_chunks =
      std::min(pool->num_threads(), num_rows);
  std::vector<std::future<double>> partials;
  partials.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = num_rows * c / num_chunks;
    const size_t end = num_rows * (c + 1) / num_chunks;
    partials.push_back(pool->Async([&evaluator, rows, num_features, begin,
                                    end] {
      double sum = 0.0;
      for (size_t i = begin; i < end; ++i) {
        sum += evaluator.Predict(rows + i * num_features);
      }
      return sum;
    }));
  }
  double total = 0.0;
  for (std::future<double>& partial : partials) total += partial.get();
  return total;
}

}  // namespace t3
