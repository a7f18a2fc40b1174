#include "treejit/evaluator.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "common/thread_pool.h"

namespace t3 {
namespace {

/// Longest root-to-leaf path in edges; 0 for a leaf-only tree.
int32_t MaxDepth(const Tree& tree) {
  int32_t max_depth = 0;
  std::vector<std::pair<int, int32_t>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    const TreeNode& node = tree.nodes[static_cast<size_t>(index)];
    if (node.is_leaf) {
      max_depth = std::max(max_depth, depth);
      continue;
    }
    stack.push_back({node.left, depth + 1});
    stack.push_back({node.right, depth + 1});
  }
  return max_depth;
}

}  // namespace

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
  tree_depth_.reserve(forest.trees.size());
  for (const Tree& tree : forest.trees) {
    const int32_t offset = static_cast<int32_t>(threshold_or_value_.size());
    roots_.push_back(offset);
    tree_depth_.push_back(MaxDepth(tree));
    for (const TreeNode& node : tree.nodes) {
      const int32_t self = static_cast<int32_t>(threshold_or_value_.size());
      if (node.is_leaf) {
        threshold_or_value_.push_back(node.value);
        feature_.push_back(-1);
        // Self-loops let the lockstep block walk run a fixed number of
        // steps per tree: lanes already at a leaf just stay put.
        left_.push_back(self);
        right_.push_back(self);
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

void FlatEvaluator::PredictBlock(const double* rows, size_t num_lanes,
                                 size_t num_features, double* out) const {
  double sum[kBlockLanes];
  size_t cursor[kBlockLanes];
  for (size_t lane = 0; lane < num_lanes; ++lane) sum[lane] = base_score_;
  for (size_t t = 0; t < roots_.size(); ++t) {
    for (size_t lane = 0; lane < num_lanes; ++lane) {
      cursor[lane] = static_cast<size_t>(roots_[t]);
    }
    for (int32_t step = 0; step < tree_depth_[t]; ++step) {
      for (size_t lane = 0; lane < num_lanes; ++lane) {
        const size_t node = cursor[lane];
        const int32_t f = feature_[node];
        // Leaves (f == -1) read feature 0 and discard the comparison:
        // their children both self-loop, so the lane is unaffected. The
        // clamp keeps the load in bounds (Forest::Validate guarantees
        // num_features >= 1).
        const double x =
            rows[lane * num_features + static_cast<size_t>(f < 0 ? 0 : f)];
        const bool left =
            std::isnan(x) ? default_left_[node] != 0
                          : x < threshold_or_value_[node];
        cursor[lane] = static_cast<size_t>(left ? left_[node] : right_[node]);
      }
    }
    for (size_t lane = 0; lane < num_lanes; ++lane) {
      sum[lane] += threshold_or_value_[cursor[lane]];
    }
  }
  for (size_t lane = 0; lane < num_lanes; ++lane) out[lane] = sum[lane];
}

void FlatEvaluator::PredictBatch(const double* rows, size_t num_rows,
                                 size_t num_features, double* out) const {
  for (size_t i = 0; i < num_rows; i += kBlockLanes) {
    PredictBlock(rows + i * num_features, std::min(kBlockLanes, num_rows - i),
                 num_features, out + i);
  }
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
