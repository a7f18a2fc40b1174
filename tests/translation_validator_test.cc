#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/forest_diff.h"
#include "analysis/interval_domain.h"
#include "analysis/translation_validator.h"
#include "analysis/tree_lifter.h"
#include "analysis/x86_decoder.h"
#include "common/random.h"
#include "gbt/forest.h"
#include "gbt/trainer.h"
#include "model/t3_model.h"
#include "treejit/jit.h"

namespace t3 {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TreeNode Inner(int feature, double threshold, int left, int right,
               bool default_left = false) {
  TreeNode node;
  node.is_leaf = false;
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  node.default_left = default_left;
  return node;
}

TreeNode Leaf(double value) {
  TreeNode node;
  node.is_leaf = true;
  node.value = value;
  return node;
}

Forest OneTreeForest(std::vector<TreeNode> nodes, int num_features = 4) {
  Forest forest;
  forest.num_features = num_features;
  forest.trees.push_back(Tree{std::move(nodes)});
  return forest;
}

/// A randomized, structurally valid forest with distinct leaf values (so a
/// rerouted path always changes the computed function), thresholds
/// including denormals and exact grid values, and random NaN routing.
Forest RandomForest(Rng* rng) {
  Forest forest;
  forest.num_features = static_cast<int>(rng->UniformInt(1, 48));
  forest.base_score = rng->UniformDouble(-10, 10);
  const int num_trees = static_cast<int>(rng->UniformInt(1, 6));
  double next_leaf = rng->UniformDouble(0, 1);
  for (int t = 0; t < num_trees; ++t) {
    Tree tree;
    tree.nodes.push_back(TreeNode{});
    std::vector<int> leaves = {0};
    const int splits = static_cast<int>(rng->UniformInt(0, 30));
    for (int s = 0; s < splits; ++s) {
      const size_t pick = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(leaves.size()) - 1));
      const int index = leaves[pick];
      leaves.erase(leaves.begin() + static_cast<ptrdiff_t>(pick));
      const int left = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back(TreeNode{});
      const int right = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back(TreeNode{});
      double threshold = 0.25 * static_cast<double>(rng->UniformInt(-8, 8));
      if (rng->Bernoulli(0.1)) {
        threshold = std::numeric_limits<double>::denorm_min() *
                    static_cast<double>(rng->UniformInt(1, 5));
      }
      tree.nodes[static_cast<size_t>(index)] = Inner(
          static_cast<int>(rng->UniformInt(0, forest.num_features - 1)),
          threshold, left, right, rng->Bernoulli(0.3));
      leaves.push_back(left);
      leaves.push_back(right);
    }
    for (const int leaf : leaves) {
      tree.nodes[static_cast<size_t>(leaf)] = Leaf(next_leaf);
      next_leaf += 1.0;  // Distinct by construction.
    }
    forest.trees.push_back(std::move(tree));
  }
  return forest;
}

AnalysisReport Validate(const Forest& forest, const JitArtifact& artifact) {
  return TranslationValidator().Validate(forest, artifact.code.data(),
                                         artifact.code.size(),
                                         artifact.entries);
}

bool HasError(const AnalysisReport& report, const std::string& check) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.check == check && d.severity == Severity::kError) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Ordered-key interval domain: the exactness of the cell proof rests on the
// key mapping being a strict order isomorphism (zeros collapsed).

TEST(IntervalDomainTest, OrderedKeyIsMonotoneAndCollapsesZeros) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> ladder = {
      -std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::max(), -1.5, -denorm, 0.0, denorm,
      std::numeric_limits<double>::min(), 1.5,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity()};
  for (size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_LT(OrderedKey(ladder[i - 1]), OrderedKey(ladder[i]))
        << ladder[i - 1] << " vs " << ladder[i];
  }
  EXPECT_EQ(OrderedKey(-0.0), OrderedKey(0.0));
  // The raw -0.0 slot is a phantom: stepping across it skips it, so the
  // interval {x : x < 0} ends at -denorm_min, not at "-0.0".
  EXPECT_EQ(DoubleFromKey(PredKey(OrderedKey(0.0))), -denorm);
  EXPECT_EQ(DoubleFromKey(SuccKey(OrderedKey(-denorm))), 0.0);
}

TEST(IntervalDomainTest, LeafCellsPartitionTheDomain) {
  // Cells of a 2-split tree: evaluating the tree on each cell's witness
  // must reach exactly the cell's leaf.
  const Forest forest = OneTreeForest(
      {Inner(0, 0.5, 1, 2, /*default_left=*/true),
       Inner(1, -0.25, 3, 4), Leaf(7.0), Leaf(8.0), Leaf(9.0)},
      /*num_features=*/2);
  int cells = 0;
  ForEachLeafCell(forest.trees[0], FeatureBox::Full(2),
                  [&](int leaf, const FeatureBox& box) {
                    ++cells;
                    const std::vector<double> row = box.Witness();
                    EXPECT_EQ(PredictTree(forest.trees[0], row.data()),
                              forest.trees[0]
                                  .nodes[static_cast<size_t>(leaf)]
                                  .value);
                  });
  EXPECT_EQ(cells, 3);
}

// ---------------------------------------------------------------------------
// TranslationValidator: clean code proves equivalent.

class TranslationValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!JitSupported()) GTEST_SKIP() << "no x86-64 emitter on this host";
  }
};

TEST_F(TranslationValidatorTest, ProvesEveryCheckedInFixture) {
  for (const char* name :
       {"model_ablation_per_pipeline.txt", "model_ablation_per_query.txt",
        "model_autowlm_per_query.txt", "model_loo_airline.txt",
        "cache_model_main.txt"}) {
    const std::string path =
        std::string(T3_SOURCE_DIR) + "/data/" + name;
    Result<T3Model> model = T3Model::LoadFromFile(path);
    // cache_* files are generated by the workbench, not checked in; they
    // are validated when present (local runs) but a fresh checkout lacks
    // them.
    if (!model.ok() && std::string(name).rfind("cache_", 0) == 0) continue;
    ASSERT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    Result<JitArtifact> artifact = EmitForestCode(model->forest());
    ASSERT_TRUE(artifact.ok()) << name;
    const AnalysisReport report = Validate(model->forest(), *artifact);
    EXPECT_FALSE(report.HasErrors()) << name << ":\n" << report.ToString();
  }
}

TEST_F(TranslationValidatorTest, ProvesHundredRandomizedForests) {
  Rng rng(414243);
  for (int i = 0; i < 100; ++i) {
    const Forest forest = RandomForest(&rng);
    ASSERT_TRUE(forest.Validate().ok()) << "sweep " << i;
    Result<JitArtifact> artifact = EmitForestCode(forest);
    ASSERT_TRUE(artifact.ok()) << "sweep " << i;
    const AnalysisReport report = Validate(forest, *artifact);
    EXPECT_FALSE(report.HasErrors())
        << "sweep " << i << ":\n" << report.ToString();
  }
}

TEST_F(TranslationValidatorTest, ProvesFiftyFreshlyTrainedForests) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const int num_features = 2 + static_cast<int>(rng.UniformInt(0, 4));
    const size_t num_rows = 120;
    std::vector<double> rows(num_rows * static_cast<size_t>(num_features));
    for (double& v : rows) v = rng.UniformDouble(-3, 3);
    std::vector<double> targets(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      targets[r] = rows[r * static_cast<size_t>(num_features)] +
                   0.5 * rows[r * static_cast<size_t>(num_features) + 1] +
                   rng.Gaussian(0, 0.05);
    }
    TrainParams params;
    params.num_trees = 8;
    params.max_leaves = 8;
    Result<Forest> forest =
        TrainForest(rows, targets, num_features, params);
    ASSERT_TRUE(forest.ok()) << "trained forest " << i;
    Result<JitArtifact> artifact = EmitForestCode(*forest);
    ASSERT_TRUE(artifact.ok()) << "trained forest " << i;
    const AnalysisReport report = Validate(*forest, *artifact);
    EXPECT_FALSE(report.HasErrors())
        << "trained forest " << i << ":\n" << report.ToString();
  }
}

// ---------------------------------------------------------------------------
// Mutation coverage: the acceptance bar is that a single byte-flip in any
// threshold/leaf immediate, or one swapped branch polarity, is always
// caught as an equivalence error.

class MutationTest : public TranslationValidatorTest {
 protected:
  void SetUp() override {
    TranslationValidatorTest::SetUp();
    if (IsSkipped()) return;
    // Mixed NaN routing, denormal threshold, disp32 feature, two trees,
    // distinct leaf values everywhere.
    forest_ = Forest();
    forest_.num_features = 24;
    forest_.trees.push_back(
        Tree{{Inner(20, 0.5, 1, 2, /*default_left=*/false), Leaf(1.0),
              Inner(2, std::numeric_limits<double>::denorm_min(), 3, 4,
                    /*default_left=*/true),
              Leaf(2.0), Leaf(3.0)}});
    forest_.trees.push_back(
        Tree{{Inner(0, -0.75, 1, 2, /*default_left=*/true), Leaf(4.0),
              Leaf(5.0)}});
    ASSERT_TRUE(forest_.Validate().ok());
    Result<JitArtifact> artifact = EmitForestCode(forest_);
    ASSERT_TRUE(artifact.ok());
    artifact_ = *std::move(artifact);
  }

  /// Offsets of every instruction of kind `op` across the buffer.
  std::vector<size_t> AllOps(JitOp op) const {
    std::vector<size_t> offsets;
    JitInstruction instruction;
    for (size_t offset = 0; offset < artifact_.code.size();
         offset += instruction.length) {
      if (!DecodeInstruction(artifact_.code.data(), artifact_.code.size(),
                             offset, &instruction)) {
        ADD_FAILURE() << "undecodable at offset " << offset;
        break;
      }
      if (instruction.op == op) offsets.push_back(offset);
    }
    return offsets;
  }

  Forest forest_;
  JitArtifact artifact_;
};

TEST_F(MutationTest, EveryImmediateByteFlipIsAnEquivalenceError) {
  // Every mov rax, imm64 carries either a threshold or a leaf value; every
  // single-byte flip of every immediate must be detected.
  const std::vector<size_t> immediates = AllOps(JitOp::kMovRaxImm64);
  ASSERT_EQ(immediates.size(), forest_.NumNodes());
  int mutations = 0;
  for (const size_t at : immediates) {
    for (size_t byte = 0; byte < 8; ++byte) {
      JitArtifact mutated = artifact_;
      mutated.code[at + 2 + byte] ^= 0x20;
      const AnalysisReport report = Validate(forest_, mutated);
      EXPECT_TRUE(report.HasErrors())
          << "immediate flip at offset " << at << " byte " << byte
          << " not detected";
      EXPECT_TRUE(HasError(report, "threshold-mismatch") ||
                  HasError(report, "leaf-value-mismatch"))
          << report.ToString();
      ++mutations;
    }
  }
  EXPECT_EQ(mutations, static_cast<int>(8 * forest_.NumNodes()));
}

TEST_F(MutationTest, EverySwappedBranchPolarityIsAnEquivalenceError) {
  // ja <-> jb is a one-byte flip (0x87 <-> 0x82) that keeps the buffer
  // decodable but inverts the comparison the node performs.
  std::vector<size_t> branches = AllOps(JitOp::kJa);
  const std::vector<size_t> jbs = AllOps(JitOp::kJb);
  branches.insert(branches.end(), jbs.begin(), jbs.end());
  ASSERT_EQ(branches.size(),
            forest_.NumNodes() - forest_.NumLeaves());
  for (const size_t at : branches) {
    JitArtifact mutated = artifact_;
    mutated.code[at + 1] = mutated.code[at + 1] == 0x87 ? 0x82 : 0x87;
    const AnalysisReport report = Validate(forest_, mutated);
    EXPECT_TRUE(report.HasErrors())
        << "polarity swap at offset " << at << " not detected";
    EXPECT_TRUE(HasError(report, "branch-polarity-mismatch"))
        << report.ToString();
    EXPECT_TRUE(HasError(report, "semantic-mismatch")) << report.ToString();
  }
}

TEST_F(MutationTest, RetargetedBranchIsDetected) {
  // Point the first tree's root branch at the *other* leaf-shaped node
  // boundary... simplest robust variant: swap the branch target to the
  // node that follows the fallthrough node, rerouting the left subtree.
  const std::vector<size_t> branches = AllOps(JitOp::kJa);
  ASSERT_FALSE(branches.empty());
  const size_t at = branches.front();
  // Retarget to the region's own entry: lifts to a cycle.
  const int64_t rel = -(static_cast<int64_t>(at) + 6);
  JitArtifact mutated = artifact_;
  for (int i = 0; i < 4; ++i) {
    mutated.code[at + 2 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(static_cast<uint64_t>(rel) >> (8 * i));
  }
  const AnalysisReport report = Validate(forest_, mutated);
  EXPECT_TRUE(HasError(report, "lifted-cycle")) << report.ToString();
}

TEST_F(MutationTest, FlippedFeatureLoadIsDetected) {
  const std::vector<size_t> loads = AllOps(JitOp::kLoadFeature8);
  ASSERT_FALSE(loads.empty());
  JitArtifact mutated = artifact_;
  mutated.code[loads.front() + 4] ^= 8;  // Feature k -> k ^ 1.
  const AnalysisReport report = Validate(forest_, mutated);
  EXPECT_TRUE(HasError(report, "feature-mismatch")) << report.ToString();
  EXPECT_TRUE(HasError(report, "semantic-mismatch")) << report.ToString();
}

TEST_F(MutationTest, TreeCountMismatchIsDetected) {
  Forest shorter = forest_;
  shorter.trees.pop_back();
  const AnalysisReport report = Validate(shorter, artifact_);
  EXPECT_TRUE(HasError(report, "tree-count-mismatch"));
}

TEST_F(MutationTest, UnknownOpcodeFailsTheLift) {
  JitArtifact mutated = artifact_;
  mutated.code[0] = 0x90;  // nop is not in the whitelist.
  const AnalysisReport report = Validate(forest_, mutated);
  EXPECT_TRUE(HasError(report, "undecodable-code"));
}

// Every injected corruption of the emitted bytes must be detected by the
// validator alone — the lift is the only safety proof Compile runs. Two
// mutations per offset, mirroring the batch battery: a single-bit flip
// (offset-dependent bit, so every bit position is exercised across the
// buffer) and a whole-byte flip.
TEST_F(TranslationValidatorTest, ByteFlipBatteryDetectsEveryCorruption) {
  Rng rng(8086);
  for (int trial = 0; trial < 4; ++trial) {
    Forest forest = RandomForest(&rng);
    forest.trees.resize(std::min<size_t>(forest.trees.size(), 2));
    ASSERT_TRUE(forest.Validate().ok());
    Result<JitArtifact> artifact = EmitForestCode(forest);
    ASSERT_TRUE(artifact.ok());
    const JitArtifact& clean = *artifact;
    ASSERT_FALSE(Validate(forest, clean).HasErrors());
    for (size_t offset = 0; offset < clean.code.size(); ++offset) {
      for (const uint8_t mask :
           {static_cast<uint8_t>(1u << (offset % 8)), uint8_t{0xFF}}) {
        JitArtifact corrupt = clean;
        corrupt.code[offset] ^= mask;
        ASSERT_TRUE(Validate(forest, corrupt).HasErrors())
            << "trial " << trial << ": flip of byte " << offset << " (mask 0x"
            << std::hex << static_cast<int>(mask)
            << ") slipped past the validator";
      }
    }
  }
}

// The lifter models all four ucomisd/jcc combinations; a swapped polarity
// on a NaN-routing-left node yields kGt semantics that differ from the IR
// at x == threshold and on NaN — exactly what the semantic witness shows.
TEST_F(TranslationValidatorTest, LiftedSemanticsMatchExecutionOnMutants) {
  // Build a one-node tree, swap its branch byte, and check the *lifted*
  // semantics agree with what the mutated code actually computes.
  const Forest forest = OneTreeForest(
      {Inner(0, 1.5, 1, 2, /*default_left=*/false), Leaf(-1.0), Leaf(1.0)},
      /*num_features=*/1);
  Result<JitArtifact> artifact = EmitForestCode(forest);
  ASSERT_TRUE(artifact.ok());
  JitArtifact mutated = *artifact;
  bool swapped = false;
  for (size_t i = 0; i + 1 < mutated.code.size(); ++i) {
    if (mutated.code[i] == 0x0F && mutated.code[i + 1] == 0x87) {
      mutated.code[i + 1] = 0x82;  // ja -> jb.
      swapped = true;
      break;
    }
  }
  ASSERT_TRUE(swapped);
  std::vector<LiftedTree> lifted;
  const AnalysisReport report =
      TreeLifter().LiftForest(mutated.code.data(), mutated.code.size(),
                              mutated.entries, forest.num_features, &lifted);
  ASSERT_FALSE(report.HasErrors()) << report.ToString();
  ASSERT_EQ(lifted.size(), 1u);
  const LiftedNode& root = lifted[0].nodes[0];
  // ucomisd xmm1, xmm0 ; jb — taken iff threshold < x or unordered.
  EXPECT_EQ(root.cmp, LiftedNode::Cmp::kGt);
  EXPECT_TRUE(root.nan_jumps);
  // And the validator flags it.
  EXPECT_TRUE(Validate(forest, mutated).HasErrors());
}

// ---------------------------------------------------------------------------
// ForestDiff.

TEST(ForestDiffTest, IdenticalForestsProveZeroDivergence) {
  Rng rng(5150);
  for (int i = 0; i < 10; ++i) {
    const Forest forest = RandomForest(&rng);
    Result<ForestDiffBounds> bounds = ForestDiff(forest, forest);
    ASSERT_TRUE(bounds.ok());
    EXPECT_EQ(bounds->min, 0.0) << "sweep " << i;
    EXPECT_EQ(bounds->max, 0.0) << "sweep " << i;
    EXPECT_EQ(bounds->MaxAbs(), 0.0);
  }
}

TEST(ForestDiffTest, SingleLeafPerturbationIsBoundedExactly) {
  const Forest a = OneTreeForest(
      {Inner(0, 0.5, 1, 2), Leaf(1.0), Leaf(2.0)});
  Forest b = a;
  b.trees[0].nodes[1].value = 1.25;  // Left leaf moved by -0.25 (a - b).
  Result<ForestDiffBounds> bounds = ForestDiff(a, b);
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(bounds->min, -0.25);
  EXPECT_EQ(bounds->max, 0.0);
  EXPECT_EQ(bounds->MaxAbs(), 0.25);
}

TEST(ForestDiffTest, BaseScoreAndExtraTreesContribute) {
  Forest a = OneTreeForest({Leaf(1.0)});
  a.base_score = 2.0;
  Forest b = a;
  b.base_score = 1.5;
  b.trees.push_back(Tree{{Inner(0, 0.0, 1, 2), Leaf(-1.0), Leaf(3.0)}});
  // a - b = 0.5 - extra_tree, extra in [-1, 3] -> diff in [-2.5, 1.5].
  Result<ForestDiffBounds> bounds = ForestDiff(a, b);
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(bounds->min, -2.5);
  EXPECT_EQ(bounds->max, 1.5);
}

TEST(ForestDiffTest, BoundIsSoundOnSampledRows) {
  Rng rng(90210);
  for (int i = 0; i < 20; ++i) {
    Forest a = RandomForest(&rng);
    // b: same shape with every leaf independently nudged — a realistic
    // retraining drift shape.
    Forest b = a;
    for (Tree& tree : b.trees) {
      for (TreeNode& node : tree.nodes) {
        if (node.is_leaf && rng.Bernoulli(0.5)) {
          node.value += rng.UniformDouble(-0.5, 0.5);
        }
      }
    }
    Result<ForestDiffBounds> bounds = ForestDiff(a, b);
    ASSERT_TRUE(bounds.ok());
    std::vector<double> row(static_cast<size_t>(a.num_features));
    for (int r = 0; r < 100; ++r) {
      for (double& v : row) {
        v = rng.Bernoulli(0.15) ? kNan
                                : 0.25 * static_cast<double>(
                                             rng.UniformInt(-8, 8));
      }
      const double d = a.Predict(row.data()) - b.Predict(row.data());
      EXPECT_GE(d, bounds->min - 1e-12) << "sweep " << i;
      EXPECT_LE(d, bounds->max + 1e-12) << "sweep " << i;
    }
  }
}

TEST(ForestDiffTest, RejectsMismatchedFeatureSpacesAndInvalidInput) {
  const Forest a = OneTreeForest({Leaf(1.0)}, /*num_features=*/4);
  const Forest b = OneTreeForest({Leaf(1.0)}, /*num_features=*/5);
  EXPECT_FALSE(ForestDiff(a, b).ok());
  Forest invalid = a;
  invalid.base_score = kNan;
  EXPECT_FALSE(ForestDiff(invalid, a).ok());
}

}  // namespace
}  // namespace t3
