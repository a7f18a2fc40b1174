#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/interval_domain.h"
#include "common/cpu_features.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "gbt/forest.h"
#include "gbt/trainer.h"
#include "harness/corpus.h"
#include "model/t3_model.h"
#include "treejit/evaluator.h"
#include "treejit/jit.h"
#include "treejit/quick_scorer.h"

namespace t3 {
namespace {

// Builds a random tree into `tree` and returns the new subtree's root index.
// Thresholds are drawn from a small grid so that rows drawn from the same
// grid regularly hit exact threshold values (the x == threshold boundary).
int BuildRandomSubtree(Tree* tree, Rng* rng, int num_features, int depth) {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  const bool leaf = depth <= 0 || rng->Bernoulli(0.3);
  if (leaf) {
    TreeNode& node = tree->nodes[index];
    node.is_leaf = true;
    node.value = rng->UniformDouble(-10, 10);
    return index;
  }
  const int feature = static_cast<int>(rng->UniformInt(0, num_features - 1));
  const double threshold = 0.25 * rng->UniformInt(-8, 8);
  const bool default_left = rng->Bernoulli(0.5);
  const int left = BuildRandomSubtree(tree, rng, num_features, depth - 1);
  const int right = BuildRandomSubtree(tree, rng, num_features, depth - 1);
  TreeNode& node = tree->nodes[index];
  node.is_leaf = false;
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  node.default_left = default_left;
  return index;
}

Forest MakeRandomForest(Rng* rng, int num_features, int num_trees,
                        int max_depth) {
  Forest forest;
  forest.num_features = num_features;
  forest.base_score = rng->UniformDouble(-5, 5);
  for (int t = 0; t < num_trees; ++t) {
    Tree tree;
    BuildRandomSubtree(&tree, rng, num_features, max_depth);
    forest.trees.push_back(std::move(tree));
  }
  return forest;
}

// One random row; roughly 10% NaN entries and the rest drawn from the same
// grid as the thresholds, so boundary hits (x == threshold) are common.
std::vector<double> MakeRandomRow(Rng* rng, int num_features) {
  std::vector<double> row(num_features);
  for (double& v : row) {
    if (rng->Bernoulli(0.1)) {
      v = std::numeric_limits<double>::quiet_NaN();
    } else {
      v = 0.25 * rng->UniformInt(-8, 8);
    }
  }
  return row;
}

// The tentpole invariant: every evaluator is bit-identical to
// Forest::Predict, the reference semantics, on 100+ random forests x random
// rows, including NaN and threshold-boundary inputs.
TEST(EvaluatorAgreementTest, AllEvaluatorsBitExactOnRandomForests) {
  Rng rng(2024);
  int jit_compiled = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const int num_trees = 1 + static_cast<int>(rng.UniformInt(0, 9));
    const int max_depth = 1 + static_cast<int>(rng.UniformInt(0, 5));
    const Forest forest =
        MakeRandomForest(&rng, num_features, num_trees, max_depth);
    ASSERT_TRUE(forest.Validate().ok()) << "trial " << trial;

    const FlatEvaluator flat(forest);
    const QuickScorer quick(forest);
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    if (JitSupported()) {
      ASSERT_TRUE(compiled.ok())
          << "trial " << trial << ": " << compiled.status().ToString();
      ++jit_compiled;
    }

    for (int r = 0; r < 25; ++r) {
      const std::vector<double> row = MakeRandomRow(&rng, num_features);
      const double reference = forest.Predict(row.data());
      ASSERT_EQ(flat.Predict(row.data()), reference)
          << "flat disagrees, trial " << trial << " row " << r;
      ASSERT_EQ(quick.Predict(row.data()), reference)
          << "QuickScorer disagrees, trial " << trial << " row " << r;
      if (compiled.ok()) {
        ASSERT_EQ((*compiled)->Predict(row.data()), reference)
            << "JIT disagrees, trial " << trial << " row " << r;
      }
    }
  }
  if (JitSupported()) {
    EXPECT_EQ(jit_compiled, 120);
  }
}

// NaN-heavy battery: Forest::Predict vs flat interpreter vs QuickScorer vs
// JIT stay bit-identical as the NaN density of the input sweeps from none to every
// feature, with ±inf inputs mixed in and denormal thresholds in the trees —
// the corners where ucomisd's unordered results and strict-< routing are
// easiest to get subtly wrong.
TEST(EvaluatorAgreementTest, NanHeavyTrifectaAcrossNanFractions) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  Rng rng(777);
  for (const double nan_fraction : {0.0, 0.25, 0.75, 1.0}) {
    for (int trial = 0; trial < 15; ++trial) {
      const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 5));
      Forest forest = MakeRandomForest(
          &rng, num_features, 1 + static_cast<int>(rng.UniformInt(0, 4)),
          1 + static_cast<int>(rng.UniformInt(0, 4)));
      // Sprinkle denormal thresholds over the grid ones.
      for (Tree& tree : forest.trees) {
        for (TreeNode& node : tree.nodes) {
          if (!node.is_leaf && rng.Bernoulli(0.3)) {
            node.threshold = kDenorm *
                             static_cast<double>(rng.UniformInt(1, 4)) *
                             (rng.Bernoulli(0.5) ? -1.0 : 1.0);
          }
        }
      }
      ASSERT_TRUE(forest.Validate().ok());

      const FlatEvaluator flat(forest);
      const QuickScorer quick(forest);
      Result<std::unique_ptr<CompiledForest>> compiled =
          CompiledForest::Compile(forest);
      if (JitSupported()) {
        ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      }

      std::vector<double> row(static_cast<size_t>(num_features));
      for (int r = 0; r < 40; ++r) {
        for (double& v : row) {
          if (rng.Bernoulli(nan_fraction)) {
            v = std::numeric_limits<double>::quiet_NaN();
          } else if (rng.Bernoulli(0.2)) {
            v = rng.Bernoulli(0.5) ? kInf : -kInf;
          } else if (rng.Bernoulli(0.2)) {
            v = kDenorm * static_cast<double>(rng.UniformInt(-4, 4));
          } else {
            v = 0.25 * static_cast<double>(rng.UniformInt(-8, 8));
          }
        }
        const double reference = forest.Predict(row.data());
        ASSERT_EQ(flat.Predict(row.data()), reference)
            << "flat disagrees, nan_fraction " << nan_fraction << " trial "
            << trial << " row " << r;
        ASSERT_EQ(quick.Predict(row.data()), reference)
            << "QuickScorer disagrees, nan_fraction " << nan_fraction
            << " trial " << trial << " row " << r;
        if (compiled.ok()) {
          ASSERT_EQ((*compiled)->Predict(row.data()), reference)
              << "JIT disagrees, nan_fraction " << nan_fraction << " trial "
              << trial << " row " << r;
        }
      }
    }
  }
}

TEST(EvaluatorAgreementTest, ThresholdBoundaryGoesRight) {
  // x == threshold must take the right branch (predicate is strict <) in
  // every evaluator.
  Forest forest;
  forest.num_features = 1;
  forest.base_score = 0.0;
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0].feature = 0;
  tree.nodes[0].threshold = 1.5;
  tree.nodes[0].left = 1;
  tree.nodes[0].right = 2;
  tree.nodes[1].is_leaf = true;
  tree.nodes[1].value = -1.0;
  tree.nodes[2].is_leaf = true;
  tree.nodes[2].value = +1.0;
  forest.trees.push_back(tree);
  ASSERT_TRUE(forest.Validate().ok());

  const FlatEvaluator flat(forest);
  const QuickScorer quick(forest);
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);

  const double boundary = 1.5;
  const double below = std::nextafter(1.5, 0.0);
  EXPECT_EQ(forest.Predict(&boundary), 1.0);
  EXPECT_EQ(forest.Predict(&below), -1.0);
  EXPECT_EQ(flat.Predict(&boundary), 1.0);
  EXPECT_EQ(flat.Predict(&below), -1.0);
  EXPECT_EQ(quick.Predict(&boundary), 1.0);
  EXPECT_EQ(quick.Predict(&below), -1.0);
  if (compiled.ok()) {
    EXPECT_EQ((*compiled)->Predict(&boundary), 1.0);
    EXPECT_EQ((*compiled)->Predict(&below), -1.0);
  }
}

TEST(EvaluatorAgreementTest, NanHonorsDefaultLeft) {
  for (bool default_left : {false, true}) {
    Forest forest;
    forest.num_features = 1;
    Tree tree;
    tree.nodes.resize(3);
    tree.nodes[0].feature = 0;
    tree.nodes[0].threshold = 0.0;
    tree.nodes[0].left = 1;
    tree.nodes[0].right = 2;
    tree.nodes[0].default_left = default_left;
    tree.nodes[1].is_leaf = true;
    tree.nodes[1].value = -1.0;
    tree.nodes[2].is_leaf = true;
    tree.nodes[2].value = +1.0;
    forest.trees.push_back(tree);

    const double expected = default_left ? -1.0 : 1.0;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(forest.Predict(&nan), expected);
    EXPECT_EQ(FlatEvaluator(forest).Predict(&nan), expected);
    EXPECT_EQ(QuickScorer(forest).Predict(&nan), expected)
        << "default_left=" << default_left;
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    if (compiled.ok()) {
      EXPECT_EQ((*compiled)->Predict(&nan), expected)
          << "default_left=" << default_left;
    }
  }
}

TEST(EvaluatorAgreementTest, InfinityFollowsStrictLess) {
  Forest forest;
  forest.num_features = 1;
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0].feature = 0;
  tree.nodes[0].threshold = 0.0;
  tree.nodes[0].left = 1;
  tree.nodes[0].right = 2;
  tree.nodes[1].is_leaf = true;
  tree.nodes[1].value = -1.0;
  tree.nodes[2].is_leaf = true;
  tree.nodes[2].value = +1.0;
  forest.trees.push_back(tree);

  const double pos_inf = std::numeric_limits<double>::infinity();
  const double neg_inf = -pos_inf;
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);
  for (const auto& [x, expected] :
       {std::pair{pos_inf, 1.0}, std::pair{neg_inf, -1.0}}) {
    EXPECT_EQ(forest.Predict(&x), expected);
    EXPECT_EQ(FlatEvaluator(forest).Predict(&x), expected);
    EXPECT_EQ(QuickScorer(forest).Predict(&x), expected);
    if (compiled.ok()) {
      EXPECT_EQ((*compiled)->Predict(&x), expected);
    }
  }
}

// Builds a subtree with exactly `leaves` leaves into `tree` and returns its
// root. `shape` 0 splits the leaves at random; 1 peels one leaf off to the
// right at every level, so each left subtree holds all but one of its
// parent's leaves (QuickScorer masks spanning many bitvector words); 2 peels
// one off to the left. Thresholds come from `pool`; `default_left` is 0 or
// 1 for every node, -1 for a coin flip per node.
int BuildShapedSubtree(Tree* tree, Rng* rng, int num_features, int leaves,
                       int shape, const std::vector<double>& pool,
                       int default_left) {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  if (leaves == 1) {
    tree->nodes[static_cast<size_t>(index)].is_leaf = true;
    tree->nodes[static_cast<size_t>(index)].value = rng->UniformDouble(-10, 10);
    return index;
  }
  const int left_leaves =
      shape == 1 ? leaves - 1
      : shape == 2
          ? 1
          : 1 + static_cast<int>(rng->UniformInt(0, leaves - 2));
  const int feature = static_cast<int>(rng->UniformInt(0, num_features - 1));
  const double threshold =
      pool[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  const bool goes_left =
      default_left < 0 ? rng->Bernoulli(0.5) : default_left == 1;
  const int left = BuildShapedSubtree(tree, rng, num_features, left_leaves,
                                      shape, pool, default_left);
  const int right = BuildShapedSubtree(tree, rng, num_features,
                                       leaves - left_leaves, shape, pool,
                                       default_left);
  TreeNode& node = tree->nodes[static_cast<size_t>(index)];
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  node.default_left = goes_left;
  return index;
}

// Checks every evaluator against Forest::Predict on each row of the
// row-major `rows`, one row at a time and in one batch call.
void ExpectEvaluatorsAgree(const Forest& forest,
                           const std::vector<double>& rows,
                           const std::string& label) {
  ASSERT_TRUE(forest.Validate().ok()) << label;
  const size_t dim = static_cast<size_t>(forest.num_features);
  const size_t num_rows = rows.size() / dim;
  const FlatEvaluator flat(forest);
  const QuickScorer quick(forest);
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);
  if (JitSupported()) {
    ASSERT_TRUE(compiled.ok()) << label << ": " << compiled.status().ToString();
  }
  std::vector<double> quick_batch(num_rows);
  quick.PredictBatch(rows.data(), num_rows, dim, quick_batch.data());
  std::vector<double> compiled_batch(num_rows);
  if (compiled.ok()) {
    (*compiled)->PredictBatch(rows.data(), num_rows, dim,
                              compiled_batch.data());
  }
  for (size_t i = 0; i < num_rows; ++i) {
    const double* row = &rows[i * dim];
    const double reference = forest.Predict(row);
    ASSERT_EQ(flat.Predict(row), reference) << label << " flat, row " << i;
    ASSERT_EQ(quick.Predict(row), reference)
        << label << " QuickScorer, row " << i;
    ASSERT_EQ(quick_batch[i], reference)
        << label << " QuickScorer batch, row " << i;
    if (compiled.ok()) {
      ASSERT_EQ((*compiled)->Predict(row), reference)
          << label << " JIT, row " << i;
      ASSERT_EQ(compiled_batch[i], reference)
          << label << " compiled batch, row " << i;
    }
  }
}

// A forest whose trees all have at most 32 leaves takes QuickScorer's
// 8-lane scan wherever the build has it; checks that, then every evaluator
// on `rows` (one batch call each, so whole 8-row blocks go through the
// scan where it is dispatched).
void ExpectVectorScanAgrees(const Forest& forest,
                            const std::vector<double>& rows,
                            const std::string& label) {
  EXPECT_EQ(QuickScorer(forest).vectorized(), BatchJitSupported()) << label;
  ASSERT_NO_FATAL_FAILURE(ExpectEvaluatorsAgree(forest, rows, label));
}

// QuickScorer keeps 64 leaves per bitvector word and as many words as a
// tree needs: one leaf, one word exactly full, one leaf past a word, and
// masks spanning up to four words, in random and one-sided trees mixed
// within one forest. Every leaf a row can reach (each feasible leaf cell)
// gets a witness row.
TEST(EvaluatorAgreementTest, QuickScorerCoversEveryTreeSize) {
  Rng rng(6464);
  const std::vector<double> pool = {-2.0, -1.0, -0.25, 0.0,
                                    0.25, 1.0,  1.5,   2.0};
  const int num_features = 5;
  for (const int leaves : {1, 63, 64, 65, 200}) {
    for (const int shape : {0, 1, 2}) {
      Forest forest;
      forest.num_features = num_features;
      forest.base_score = rng.UniformDouble(-5, 5);
      for (const int tree_leaves : {leaves, 1, 65, leaves}) {
        Tree tree;
        BuildShapedSubtree(&tree, &rng, num_features, tree_leaves, shape,
                           pool, /*default_left=*/-1);
        forest.trees.push_back(std::move(tree));
      }
      std::vector<double> rows;
      for (const Tree& tree : forest.trees) {
        ForEachLeafCell(tree, FeatureBox::Full(num_features),
                        [&rows](int, const FeatureBox& cell) {
                          const std::vector<double> row = cell.Witness();
                          rows.insert(rows.end(), row.begin(), row.end());
                        });
      }
      for (int r = 0; r < 100; ++r) {
        const std::vector<double> row = MakeRandomRow(&rng, num_features);
        rows.insert(rows.end(), row.begin(), row.end());
      }
      ASSERT_NO_FATAL_FAILURE(ExpectEvaluatorsAgree(
          forest, rows,
          "leaves " + std::to_string(leaves) + " shape " +
              std::to_string(shape)));
    }
  }
}

// Rows equal to thresholds go right, +0.0 and -0.0 compare equal as
// thresholds and as values, +inf passes every threshold and -inf none, and
// one threshold value splits several trees and several features (one run
// of equal entries in QuickScorer's sorted arrays). The trees have at most
// 21 leaves, so batches take the 8-lane scan (GE_OQ compares) too.
TEST(EvaluatorAgreementTest, QuickScorerTiesAndSignedZeros) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(2718);
  const std::vector<double> pool = {-0.0, 0.0, 1.5, -2.25};
  const std::vector<double> values = {
      -0.0, 0.0, 1.5, -2.25, std::nextafter(1.5, 0.0),
      std::nextafter(1.5, 2.0), std::nextafter(0.0, 1.0),
      std::nextafter(0.0, -1.0), std::nextafter(-2.25, -3.0), kInf, -kInf};
  for (int trial = 0; trial < 20; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 2));
    Forest forest;
    forest.num_features = num_features;
    for (int t = 0; t < 12; ++t) {
      Tree tree;
      BuildShapedSubtree(&tree, &rng, num_features,
                         1 + static_cast<int>(rng.UniformInt(0, 20)),
                         /*shape=*/0, pool, /*default_left=*/-1);
      forest.trees.push_back(std::move(tree));
    }
    std::vector<double> rows;
    for (int r = 0; r < 200; ++r) {
      for (int f = 0; f < num_features; ++f) {
        rows.push_back(values[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1))]);
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectVectorScanAgrees(
        forest, rows, "trial " + std::to_string(trial)));
  }
}

// +inf passes every threshold and -inf none; NaN routes by default_left,
// with every node routing NaN left, every node right, or a mix.
TEST(EvaluatorAgreementTest, QuickScorerInfinitiesAndNanPolarities) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(1618);
  const std::vector<double> pool = {-3.0, -0.5, 0.0, 0.5, 3.0, 1e300};
  const std::vector<double> values = {nan, kInf, -kInf, -0.5, 0.5, 1e300};
  for (const int default_left : {0, 1, -1}) {
    for (int trial = 0; trial < 10; ++trial) {
      const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 3));
      Forest forest;
      forest.num_features = num_features;
      for (int t = 0; t < 8; ++t) {
        Tree tree;
        BuildShapedSubtree(&tree, &rng, num_features,
                           1 + static_cast<int>(rng.UniformInt(0, 70)),
                           static_cast<int>(rng.UniformInt(0, 2)), pool,
                           default_left);
        forest.trees.push_back(std::move(tree));
      }
      std::vector<double> rows;
      for (int r = 0; r < 200; ++r) {
        for (int f = 0; f < num_features; ++f) {
          rows.push_back(values[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1))]);
        }
      }
      ASSERT_NO_FATAL_FAILURE(ExpectEvaluatorsAgree(
          forest, rows,
          "default_left " + std::to_string(default_left) + " trial " +
              std::to_string(trial)));
    }
  }
}

// Blocks whose lanes mix NaN and finite values of a feature: the block
// scans that feature's whole run, ORing its NaN lanes into each
// default_left == false split while the finite lanes follow the
// thresholds. Every node routes NaN left, every node right, or a mix; the
// NaN share per block runs from none through one lane to all eight.
TEST(EvaluatorAgreementTest, VectorScanMixesNanAndFiniteLanes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(8088);
  const std::vector<double> pool = {-2.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0};
  for (const int default_left : {0, 1, -1}) {
    for (int trial = 0; trial < 10; ++trial) {
      const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 3));
      Forest forest;
      forest.num_features = num_features;
      forest.base_score = rng.UniformDouble(-5, 5);
      for (int t = 0; t < 10; ++t) {
        Tree tree;
        BuildShapedSubtree(&tree, &rng, num_features,
                           1 + static_cast<int>(rng.UniformInt(0, 31)),
                           static_cast<int>(rng.UniformInt(0, 2)), pool,
                           default_left);
        forest.trees.push_back(std::move(tree));
      }
      std::vector<double> rows;
      for (int block = 0; block < 32; ++block) {
        const double nan_share = (block % 8) / 7.0;
        for (int lane = 0; lane < 8; ++lane) {
          for (int f = 0; f < num_features; ++f) {
            rows.push_back(rng.Bernoulli(nan_share)
                               ? nan
                               : 0.25 * static_cast<double>(
                                            rng.UniformInt(-10, 10)));
          }
        }
      }
      ASSERT_NO_FATAL_FAILURE(ExpectVectorScanAgrees(
          forest, rows,
          "default_left " + std::to_string(default_left) + " trial " +
              std::to_string(trial)));
    }
  }
}

// A tree of `leaves` leaves over feature 0 whose every split has a leaf as
// its left child: split k tests x < k, so leaf k (numbered left to right)
// holds 100 + k and is the exit for x < 0 (k = 0) or x in [k - 1, k), and
// the last leaf is the exit for x >= leaves - 2. NaN goes left at every
// split when `nan_left`, so to leaf 0, and otherwise right, so to the last
// leaf.
Tree Caterpillar(int leaves, bool nan_left) {
  Tree tree;
  for (int k = 0; k + 1 < leaves; ++k) {
    TreeNode split;
    split.feature = 0;
    split.threshold = k;
    split.left = 2 * k + 1;
    split.right = 2 * k + 2;
    split.default_left = nan_left;
    TreeNode leaf;
    leaf.is_leaf = true;
    leaf.value = 100.0 + k;
    tree.nodes.push_back(split);
    tree.nodes.push_back(leaf);
  }
  TreeNode last;
  last.is_leaf = true;
  last.value = 100.0 + (leaves - 1);
  tree.nodes.push_back(last);
  return tree;
}

// 72 rows cycling through 9 values of feature 0, so each value lands in
// every lane of the 9 blocks. 30 and up exit at leaf 31 of a 32-leaf
// caterpillar, and 31.5 and up at leaf 32 of a 33-leaf one.
std::vector<double> CaterpillarRows(int num_features) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      -1.0, 0.0, 15.5, 30.0, 30.5, 31.5, kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> rows;
  for (size_t r = 0; r < 72; ++r) {
    rows.push_back(values[r % values.size()]);
    for (int f = 1; f < num_features; ++f) rows.push_back(0.25 * f);
  }
  return rows;
}

// Leaf 31 of a 32-leaf tree is bit 31 of its lane, the sign bit of the
// float the scan converts the lowest set bit to. It must still index leaf
// 31, in every lane of a block.
TEST(EvaluatorAgreementTest, VectorScanExitsAtLeafThirtyOne) {
  for (const bool nan_left : {false, true}) {
    Forest forest;
    forest.num_features = 2;
    forest.base_score = 0.5;
    forest.trees.push_back(Caterpillar(32, nan_left));
    forest.trees.push_back(Caterpillar(1, nan_left));
    const std::vector<double> rows = CaterpillarRows(forest.num_features);
    ASSERT_NO_FATAL_FAILURE(ExpectVectorScanAgrees(
        forest, rows, nan_left ? "NaN left" : "NaN right"));
    std::vector<double> out(rows.size() / 2);
    QuickScorer(forest).PredictBatch(rows.data(), out.size(), 2, out.data());
    for (size_t r = 0; r < out.size(); ++r) {
      const double x = rows[2 * r];
      if (x >= 30.0 || (std::isnan(x) && !nan_left)) {
        EXPECT_EQ(out[r], 0.5 + 131.0 + 100.0) << "row " << r;
      }
    }
  }
}

// One tree of 33 leaves needs a second 32-bit word, so the whole forest
// stays on the one-row scan, and stays bit-exact. 32 leaves is the largest
// tree the 8-lane scan takes.
TEST(EvaluatorAgreementTest, ThirtyThreeLeafTreeStaysOnOneRowScan) {
  Rng rng(3332);
  const std::vector<double> pool = {-1.0, 0.0, 1.0};
  for (const int largest : {32, 33}) {
    Forest forest;
    forest.num_features = 3;
    for (int t = 0; t < 6; ++t) {
      Tree tree;
      BuildShapedSubtree(&tree, &rng, forest.num_features,
                         1 + static_cast<int>(rng.UniformInt(0, 31)),
                         /*shape=*/0, pool, /*default_left=*/-1);
      forest.trees.push_back(std::move(tree));
    }
    forest.trees.insert(forest.trees.begin() + 3, Caterpillar(largest, true));
    const QuickScorer quick(forest);
    EXPECT_EQ(quick.vectorized(), largest == 32 && BatchJitSupported());
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    if (compiled.ok()) {
      EXPECT_EQ((*compiled)->has_batch_kernels(), quick.vectorized());
    }
    ASSERT_NO_FATAL_FAILURE(ExpectEvaluatorsAgree(
        forest, CaterpillarRows(forest.num_features),
        "largest tree " + std::to_string(largest)));
  }
}

TEST(JitTest, WideFeatureOffsetsNeedDisp32) {
  // Features beyond index 15 have byte offsets > 127 and exercise the
  // disp32 addressing path of the emitter.
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Rng rng(5);
  const int num_features = 200;
  const Forest forest = MakeRandomForest(&rng, num_features, 8, 6);
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  for (int r = 0; r < 50; ++r) {
    const std::vector<double> row = MakeRandomRow(&rng, num_features);
    ASSERT_EQ((*compiled)->Predict(row.data()), forest.Predict(row.data()));
  }
}

TEST(JitTest, RejectsInvalidForest) {
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Forest forest;
  forest.num_features = 1;
  Tree tree;
  tree.nodes.resize(1);
  tree.nodes[0].feature = 0;
  tree.nodes[0].threshold = 0.0;
  tree.nodes[0].left = 5;  // Out of range.
  tree.nodes[0].right = 6;
  forest.trees.push_back(tree);
  EXPECT_FALSE(CompiledForest::Compile(forest).ok());
}

TEST(JitTest, UnsupportedHostsReportUnavailable) {
  if (JitSupported()) {
    GTEST_SKIP() << "host supports the JIT; fallback path not reachable";
  }
  Rng rng(1);
  const Forest forest = MakeRandomForest(&rng, 4, 2, 3);
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kUnavailable);
}

TEST(BatchTest, PredictBatchMatchesLoop) {
  Rng rng(77);
  const int num_features = 6;
  const Forest forest = MakeRandomForest(&rng, num_features, 5, 5);
  const FlatEvaluator flat(forest);
  Result<std::unique_ptr<CompiledForest>> compiled =
      CompiledForest::Compile(forest);

  const size_t num_rows = 64;
  std::vector<double> rows;
  for (size_t i = 0; i < num_rows; ++i) {
    const std::vector<double> row = MakeRandomRow(&rng, num_features);
    rows.insert(rows.end(), row.begin(), row.end());
  }

  std::vector<double> out(num_rows);
  flat.PredictBatch(rows.data(), num_rows, num_features, out.data());
  for (size_t i = 0; i < num_rows; ++i) {
    EXPECT_EQ(out[i], flat.Predict(&rows[i * num_features])) << "row " << i;
  }
  if (compiled.ok()) {
    (*compiled)->PredictBatch(rows.data(), num_rows, num_features, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      EXPECT_EQ(out[i], forest.Predict(&rows[i * num_features])) << "row " << i;
    }
  }
}

// One row densely seeded with the 8-lane scan's hard inputs: NaN (lane
// masks must still route by default_left), +/-inf, denormals, and -0.0
// (which must compare equal to +0.0 thresholds).
std::vector<double> MakeAdversarialRow(Rng* rng, int num_features) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> row(static_cast<size_t>(num_features));
  for (double& v : row) {
    switch (rng->UniformInt(0, 6)) {
      case 0: v = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v = rng->Bernoulli(0.5) ? kInf : -kInf; break;
      case 2: v = kDenorm * static_cast<double>(rng->UniformInt(-4, 4)); break;
      case 3: v = -0.0; break;
      default: v = 0.25 * static_cast<double>(rng->UniformInt(-8, 8)); break;
    }
  }
  return row;
}

// Checks `evaluator`'s PredictBatch against its per-row Predict and
// against forest.Predict, bitwise, across the battery's batch sizes: below
// one 8-row block (one-row scan only), whole blocks, and whole blocks with
// a ragged one-row-scan tail.
void CheckBatchAgainstPerRow(const Forest& forest,
                             const ForestEvaluator& evaluator,
                             const std::vector<double>& rows, size_t max_rows,
                             int num_features, const char* label) {
  const size_t dim = static_cast<size_t>(num_features);
  std::vector<double> out(max_rows);
  for (const size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                         size_t{64}, size_t{65}, size_t{73}, size_t{1024},
                         size_t{1053}}) {
    if (n > max_rows) continue;
    evaluator.PredictBatch(rows.data(), n, dim, out.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], evaluator.Predict(&rows[i * dim]))
          << label << " PredictBatch, batch " << n << " row " << i;
      ASSERT_EQ(out[i], forest.Predict(&rows[i * dim]))
          << label << " PredictBatch vs Forest::Predict, batch " << n
          << " row " << i;
    }
  }
}

// The batch tentpole's randomized battery: 100 random forests, the batch
// sizes above, adversarial inputs, every evaluator's batch bit-identical
// to its per-row Predict and to Forest::Predict.
TEST(BatchTest, RandomizedBatteryBitIdenticalAcrossEvaluators) {
  Rng rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const int num_trees = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const int max_depth = 1 + static_cast<int>(rng.UniformInt(0, 5));
    const Forest forest =
        MakeRandomForest(&rng, num_features, num_trees, max_depth);
    ASSERT_TRUE(forest.Validate().ok()) << "trial " << trial;

    // Big batches only every 10th trial to keep the battery fast.
    const size_t max_rows = trial % 10 == 0 ? 1053 : 73;
    std::vector<double> rows;
    rows.reserve(max_rows * static_cast<size_t>(num_features));
    for (size_t i = 0; i < max_rows; ++i) {
      const std::vector<double> row = i % 2 == 0
                                          ? MakeAdversarialRow(&rng, num_features)
                                          : MakeRandomRow(&rng, num_features);
      rows.insert(rows.end(), row.begin(), row.end());
    }

    CheckBatchAgainstPerRow(forest, FlatEvaluator(forest), rows, max_rows,
                            num_features, "flat");
    CheckBatchAgainstPerRow(forest, QuickScorer(forest), rows, max_rows,
                            num_features, "QuickScorer");
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    if (JitSupported()) {
      ASSERT_TRUE(compiled.ok())
          << "trial " << trial << ": " << compiled.status().ToString();
      CheckBatchAgainstPerRow(forest, **compiled, rows, max_rows,
                              num_features, "compiled");
    }
  }
}

// Same battery over 20 trained forests: the trainer's monotone thresholds
// and shrunken leaf values are a different distribution than the random
// builder's grid, and trained trees are where the batch path runs in
// production.
TEST(BatchTest, TrainedForestsBatchBitIdentical) {
  Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t num_features = 2 + rng.UniformInt(0, 3);
    const size_t num_rows = 240;
    std::vector<double> train_rows(num_rows * num_features);
    std::vector<double> targets(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      double y = 1.0;
      for (size_t f = 0; f < num_features; ++f) {
        const double v = rng.UniformDouble(-4, 4);
        train_rows[i * num_features + f] = v;
        y += (f % 2 == 0 ? v : -0.5 * v);
      }
      targets[i] = y + rng.UniformDouble(-0.1, 0.1);
    }
    TrainParams params;
    params.num_trees = 12;
    params.max_leaves = 8;
    params.min_data_in_leaf = 5;
    params.seed = 1000 + static_cast<uint64_t>(trial);
    Result<Forest> trained =
        TrainForest(train_rows, targets, num_features, params);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    const Forest& forest = trained.value();

    const size_t max_rows = 73;
    std::vector<double> rows;
    for (size_t i = 0; i < max_rows; ++i) {
      const std::vector<double> row =
          i % 4 == 0 ? MakeAdversarialRow(&rng, static_cast<int>(num_features))
                     : MakeRandomRow(&rng, static_cast<int>(num_features));
      rows.insert(rows.end(), row.begin(), row.end());
    }
    CheckBatchAgainstPerRow(forest, FlatEvaluator(forest), rows, max_rows,
                            static_cast<int>(num_features), "flat");
    CheckBatchAgainstPerRow(forest, QuickScorer(forest), rows, max_rows,
                            static_cast<int>(num_features), "QuickScorer");
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    if (JitSupported()) {
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      CheckBatchAgainstPerRow(forest, **compiled, rows, max_rows,
                              static_cast<int>(num_features), "compiled");
    }
  }
}

constexpr const char* kFixtureModels[] = {
    "/data/model_ablation_per_pipeline.txt",
    "/data/model_ablation_per_query.txt",
    "/data/model_autowlm_per_query.txt",
    "/data/model_loo_airline.txt",
};

// The dispatched batch path (whatever the host offers — the 8-lane scan or
// the one-row scan alone) agrees bitwise with per-row Predict and with
// Forest::Predict on every checked-in model fixture. The batch is 65 rows,
// so the 8-lane scan takes its whole 8-row blocks and the one-row scan a
// one-row tail. Under T3_FORCE_SCALAR=1 (CI runs the suite that way too)
// the one-row scan takes every row and the test proves the override leaves
// results unchanged. The fixtures' trees have at most 31 leaves, so they
// all fit the 8-lane scan.
TEST(BatchTest, FixtureModelsScalarAndDispatchedPathsAgree) {
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Rng rng(90210);
  for (const char* fixture : kFixtureModels) {
    const std::string path = std::string(T3_SOURCE_DIR) + fixture;
    Result<T3Model> loaded = T3Model::LoadFromFile(path);
    ASSERT_TRUE(loaded.ok()) << path << ": " << loaded.status().ToString();
    const Forest& forest = loaded->forest();

    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ((*compiled)->has_batch_kernels(), BatchJitSupported());

    const size_t num_rows = 65;
    const size_t dim = static_cast<size_t>(forest.num_features);
    std::vector<double> rows;
    for (size_t i = 0; i < num_rows; ++i) {
      const std::vector<double> row =
          MakeRandomRow(&rng, forest.num_features);
      rows.insert(rows.end(), row.begin(), row.end());
    }
    std::vector<double> out(num_rows);
    (*compiled)->PredictBatch(rows.data(), num_rows, dim, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ASSERT_EQ(out[i], (*compiled)->Predict(&rows[i * dim]))
          << fixture << " row " << i;
      ASSERT_EQ(out[i], forest.Predict(&rows[i * dim]))
          << fixture << " row " << i;
    }
  }
}

// Every batch size from 0 to 40, plus 2048, on every fixture over the mini
// corpus's feature rows: the 8-lane scan takes the whole 8-row blocks and
// the one-row scan the rest. Each result bit-equals Forest::Predict, with
// the 8-lane scan dispatched or, under T3_FORCE_SCALAR=1, not.
TEST(BatchTest, PredictBatchEveryBatchSizeOnFixtures) {
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Result<Corpus> corpus = LoadCorpusFromFile(std::string(T3_SOURCE_DIR) +
                                             "/data/corpus_mini.txt");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  std::vector<double> features;
  for (const QueryRecord& record : corpus->records) {
    for (const auto* pipelines : {&record.feat_true, &record.feat_est}) {
      for (const PipelineFeatures& pipeline : *pipelines) {
        features.insert(features.end(), pipeline.values.begin(),
                        pipeline.values.end());
      }
    }
  }
  ASSERT_FALSE(features.empty());
  for (const char* fixture : kFixtureModels) {
    Result<T3Model> loaded =
        T3Model::LoadFromFile(std::string(T3_SOURCE_DIR) + fixture);
    ASSERT_TRUE(loaded.ok()) << fixture << ": " << loaded.status().ToString();
    const Forest& forest = loaded->forest();
    const size_t dim = static_cast<size_t>(forest.num_features);
    ASSERT_EQ(features.size() % dim, 0u) << fixture;
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

    constexpr size_t kMaxRows = 2048;
    std::vector<double> rows(kMaxRows * dim);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = features[i % features.size()];
    }
    std::vector<double> expected(kMaxRows);
    for (size_t i = 0; i < kMaxRows; ++i) {
      expected[i] = forest.Predict(&rows[i * dim]);
    }
    std::vector<size_t> sizes;
    for (size_t n = 0; n <= 40; ++n) {
      sizes.push_back(n);
    }
    sizes.push_back(kMaxRows);
    std::vector<double> out(kMaxRows);
    for (const size_t n : sizes) {
      (*compiled)->PredictBatch(rows.data(), n, dim, out.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], expected[i])
            << fixture << " batch " << n << " row " << i;
      }
    }
  }
}

// The 8-lane scan stops a feature's run once no lane of the block is at or
// above the threshold. Over every fixture, the mini corpus's feature rows
// (real plans, whose blocks share most paths) are followed by two blocks
// per tree: 8 copies of one row, so every lane stops together, and 8
// witnesses in 8 distinct leaves of that tree, so the lanes stop apart and
// exit in different leaves. The dispatched PredictBatch must equal per-row
// Predict and Forest::Predict exactly.
TEST(BatchTest, VectorScanBitExactOnCorpusRowsAndExtremeBlocks) {
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Result<Corpus> corpus = LoadCorpusFromFile(std::string(T3_SOURCE_DIR) +
                                             "/data/corpus_mini.txt");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  for (const char* fixture : kFixtureModels) {
    Result<T3Model> loaded =
        T3Model::LoadFromFile(std::string(T3_SOURCE_DIR) + fixture);
    ASSERT_TRUE(loaded.ok()) << fixture << ": " << loaded.status().ToString();
    const Forest& forest = loaded->forest();
    const size_t dim = static_cast<size_t>(forest.num_features);

    std::vector<double> rows;
    for (const QueryRecord& record : corpus->records) {
      for (const auto* features : {&record.feat_true, &record.feat_est}) {
        for (const PipelineFeatures& pipeline : *features) {
          ASSERT_EQ(pipeline.values.size(), dim);
          rows.insert(rows.end(), pipeline.values.begin(),
                      pipeline.values.end());
        }
      }
    }
    // Whole 8-row blocks, so each synthetic block is one scan block.
    const size_t num_corpus_rows = rows.size() / dim / 8 * 8;
    ASSERT_GT(num_corpus_rows, 0u);
    rows.resize(num_corpus_rows * dim);
    for (size_t t = 0; t < forest.trees.size(); ++t) {
      const size_t pick = t % num_corpus_rows;
      const std::vector<double> row(
          rows.begin() + static_cast<long>(pick * dim),
          rows.begin() + static_cast<long>((pick + 1) * dim));
      for (int lane = 0; lane < 8; ++lane) {
        rows.insert(rows.end(), row.begin(), row.end());
      }
      std::vector<std::vector<double>> witnesses;
      ForEachLeafCell(forest.trees[t], FeatureBox::Full(forest.num_features),
                      [&witnesses](int, const FeatureBox& cell) {
                        witnesses.push_back(cell.Witness());
                      });
      ASSERT_FALSE(witnesses.empty());
      for (size_t lane = 0; lane < 8; ++lane) {  // Spread over the leaves.
        const std::vector<double>& witness =
            witnesses[lane * witnesses.size() / 8];
        rows.insert(rows.end(), witness.begin(), witness.end());
      }
    }

    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ((*compiled)->has_batch_kernels(), BatchJitSupported());
    const size_t num_rows = rows.size() / dim;
    std::vector<double> out(num_rows);
    (*compiled)->PredictBatch(rows.data(), num_rows, dim, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ASSERT_EQ(out[i], (*compiled)->Predict(&rows[i * dim]))
          << fixture << " row " << i << " vs Predict";
      ASSERT_EQ(out[i], forest.Predict(&rows[i * dim]))
          << fixture << " row " << i << " vs Forest::Predict";
    }
  }
}

// Compile with every proof forced on (the release defaults leave them off)
// accepts every random forest and fixture model, and PredictBatch
// bit-equals Forest::Predict on one witness row per leaf cell of every
// tree, zero-padded to whole 8-row blocks, so every witness runs through
// the 8-lane scan where it is dispatched. CI runs it again under
// T3_FORCE_SCALAR=1, where the one-row scan answers every witness.
TEST(BatchTest, LeafCellWitnessesBitExactAfterFullyCheckedCompile) {
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  std::vector<Forest> forests;
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 5));
    forests.push_back(MakeRandomForest(
        &rng, num_features, 1 + static_cast<int>(rng.UniformInt(0, 4)),
        1 + static_cast<int>(rng.UniformInt(0, 4))));
  }
  for (const char* fixture : kFixtureModels) {
    Result<T3Model> model =
        T3Model::LoadFromFile(std::string(T3_SOURCE_DIR) + fixture);
    ASSERT_TRUE(model.ok()) << fixture << ": " << model.status().ToString();
    forests.push_back(model->forest());
  }
  JitCompileOptions options;
  options.audit = true;
  options.validate_translation = true;
  for (size_t i = 0; i < forests.size(); ++i) {
    const Forest& forest = forests[i];
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest, options);
    ASSERT_TRUE(compiled.ok())
        << "forest " << i << ": " << compiled.status().ToString();
    EXPECT_EQ((*compiled)->has_batch_kernels(), BatchJitSupported());
    const size_t width = static_cast<size_t>(forest.num_features);
    std::vector<double> rows;
    for (const Tree& tree : forest.trees) {
      ForEachLeafCell(tree, FeatureBox::Full(forest.num_features),
                      [&rows](int, const FeatureBox& cell) {
                        const std::vector<double> row = cell.Witness();
                        rows.insert(rows.end(), row.begin(), row.end());
                      });
    }
    const size_t num_witness = rows.size() / width;
    rows.resize((num_witness + 7) / 8 * 8 * width);
    std::vector<double> got(rows.size() / width);
    (*compiled)->PredictBatch(rows.data(), got.size(), width, got.data());
    for (size_t r = 0; r < num_witness; ++r) {
      ASSERT_EQ(DoubleBits(got[r]),
                DoubleBits(forest.Predict(&rows[r * width])))
          << "forest " << i << ": witness row " << r;
    }
  }
}

// Pins the emitted machine code itself: an FNV-1a hash over the code bytes
// and tree entry offsets of a checked-in fixture. Emitter refactors must
// leave these bytes unchanged; a deliberate change to the instruction
// grammar updates the golden value here.
uint64_t HashArtifact(const std::vector<uint8_t>& code,
                      const std::vector<size_t>& entries) {
  Fnv1a hash;
  hash.U64(code.size());
  hash.Bytes(code.data(), code.size());
  hash.U64(entries.size());
  for (const size_t entry : entries) hash.U64(entry);
  hash.U64(0);  // Hashed since the golden was pinned; no longer a field.
  return hash.hash();
}

TEST(JitTest, EmittedCodeForFixtureIsPinned) {
  if (!JitSupported()) GTEST_SKIP() << "JIT unsupported on this host";
  Result<T3Model> model = T3Model::LoadFromFile(
      std::string(T3_SOURCE_DIR) + "/data/model_loo_airline.txt");
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  Result<JitArtifact> scalar = EmitForestCode(model->forest());
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  EXPECT_EQ(HashArtifact(scalar->code, scalar->entries),
            0xb35dd2f893d526fcULL);
}

TEST(CpuFeaturesTest, DetectHonorsForceScalarEnv) {
  // DetectCpuFeatures re-reads the environment on every call (the cached
  // GetCpuFeatures does not, by contract).
  ASSERT_EQ(setenv("T3_FORCE_SCALAR", "1", /*overwrite=*/1), 0);
  EXPECT_TRUE(DetectCpuFeatures().force_scalar);
  ASSERT_EQ(setenv("T3_FORCE_SCALAR", "0", /*overwrite=*/1), 0);
  EXPECT_FALSE(DetectCpuFeatures().force_scalar);
  ASSERT_EQ(unsetenv("T3_FORCE_SCALAR"), 0);
  EXPECT_FALSE(DetectCpuFeatures().force_scalar);
  // The cached probe and the dispatch gate are consistent with each other.
  const CpuFeatures& cached = GetCpuFeatures();
  EXPECT_EQ(BatchKernelsEnabled(),
            cached.avx && cached.avx2 && !cached.force_scalar);
}

TEST(BatchTest, PredictSumParallelMatchesSerialSum) {
  Rng rng(99);
  const int num_features = 5;
  const Forest forest = MakeRandomForest(&rng, num_features, 4, 5);
  const FlatEvaluator flat(forest);

  const size_t num_rows = 500;
  std::vector<double> rows(num_rows * num_features);
  for (double& v : rows) v = rng.UniformDouble(-2, 2);

  double serial = 0.0;
  for (size_t i = 0; i < num_rows; ++i) {
    serial += flat.Predict(&rows[i * num_features]);
  }

  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const double parallel =
        PredictSumParallel(flat, &pool, rows.data(), num_rows, num_features);
    // Grouping of partial sums differs, so allow relative rounding slack.
    EXPECT_NEAR(parallel, serial, 1e-9 * std::abs(serial) + 1e-9)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace t3
