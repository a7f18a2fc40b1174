// Tests of the batch-kernel analysis stack over the bytes
// EmitForestBatchCode produces: the batch lift (TreeLifter::LiftBatchForest,
// the safety proof) and BatchEquivalenceValidator (lift + equivalence). The
// adversarial core is the byte-flip battery: every single-bit and
// whole-byte corruption of the emitted code (pad bytes excluded — they are
// never read) must be rejected by the validator alone. The end-to-end test
// runs one witness row per leaf cell through the mapped kernels.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/interval_domain.h"
#include "analysis/translation_validator.h"
#include "analysis/tree_lifter.h"
#include "common/report.h"
#include "analysis/x86_decoder.h"
#include "common/random.h"
#include "gbt/forest.h"
#include "treejit/jit.h"

namespace t3 {
namespace {

int BuildRandomSubtree(Tree* tree, Rng* rng, int num_features, int depth) {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    tree->nodes[index].is_leaf = true;
    tree->nodes[index].value = rng->UniformDouble(-10, 10);
    return index;
  }
  const int feature = static_cast<int>(rng->UniformInt(0, num_features - 1));
  const double threshold = 0.25 * rng->UniformInt(-8, 8);
  const bool default_left = rng->Bernoulli(0.5);
  const int left = BuildRandomSubtree(tree, rng, num_features, depth - 1);
  const int right = BuildRandomSubtree(tree, rng, num_features, depth - 1);
  TreeNode& node = tree->nodes[index];
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

// Lift + validate one artifact against its forest, the whole proof
// CompiledForest::Compile runs before mapping batch kernels.
AnalysisReport AnalyzeBatch(const Forest& forest,
                            const BatchJitArtifact& artifact) {
  return BatchEquivalenceValidator().Validate(
      forest, artifact.code.data(), artifact.code.size(), artifact.entries,
      artifact.pool_begin);
}

AnalysisReport LiftBatch(const BatchJitArtifact& artifact) {
  std::vector<LiftedTree> lifted;
  return TreeLifter().LiftBatchForest(
      artifact.code.data(), artifact.code.size(), artifact.entries,
      artifact.pool_begin, artifact.num_features, &lifted);
}

constexpr const char* kFixtures[] = {
    "/data/model_ablation_per_pipeline.txt",
    "/data/model_ablation_per_query.txt",
    "/data/model_autowlm_per_query.txt",
    "/data/model_loo_airline.txt",
};

bool HasError(const AnalysisReport& report, const std::string& check) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.check == check && d.severity == Severity::kError) return true;
  }
  return false;
}

/// A random forest whose batch code ends at `pool_begin % 8 == 7`, so the
/// first aligned pool slot is `pool_begin + 1`: the offset a decoder that
/// clamps wild rip-relative targets to "one past the instructions" would
/// produce.
Forest ForestWithPoolBeginOneBeforeAlignment(Rng* rng) {
  for (;;) {
    Forest forest = MakeRandomForest(rng, 4, 3, 2);
    Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
    if (artifact.ok() && artifact->pool_begin % 8 == 7) return forest;
  }
}

TEST(BatchEquivalenceTest, CleanOnRandomForests) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const int num_trees = 1 + static_cast<int>(rng.UniformInt(0, 6));
    const int max_depth = 1 + static_cast<int>(rng.UniformInt(0, 5));
    const Forest forest =
        MakeRandomForest(&rng, num_features, num_trees, max_depth);
    ASSERT_TRUE(forest.Validate().ok());
    Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    const AnalysisReport report = AnalyzeBatch(forest, artifact.value());
    EXPECT_FALSE(report.HasErrors())
        << "trial " << trial << ":\n"
        << report.ToString();
  }
}

TEST(BatchEquivalenceTest, CleanOnFixtureModels) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  for (const char* fixture : kFixtures) {
    const std::string path = std::string(T3_SOURCE_DIR) + fixture;
    Result<Forest> forest = Forest::LoadFromFile(path);
    ASSERT_TRUE(forest.ok()) << path << ": " << forest.status().ToString();
    Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest.value());
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    const AnalysisReport report = AnalyzeBatch(forest.value(), artifact.value());
    EXPECT_FALSE(report.HasErrors()) << fixture << ":\n" << report.ToString();
  }
}

// Every injected corruption of the emitted bytes must be detected. Two
// mutations per offset: a single-bit flip (offset-dependent bit, so every
// bit position is exercised across the buffer) and a whole-byte flip. The
// alignment pad between the last ret and the 8-byte-aligned constant pool
// is excluded: those bytes are neither decoded nor dereferenced, so
// corrupting them is unobservable by construction.
TEST(BatchEquivalenceTest, ByteFlipBatteryDetectsEveryCorruption) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(4097);
  for (int trial = 0; trial < 4; ++trial) {
    const Forest forest = trial < 3
                              ? MakeRandomForest(&rng, 4, 2, 3)
                              : ForestWithPoolBeginOneBeforeAlignment(&rng);
    ASSERT_TRUE(forest.Validate().ok());
    Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    const BatchJitArtifact& clean = artifact.value();
    ASSERT_FALSE(AnalyzeBatch(forest, clean).HasErrors());

    const size_t pad_end = (clean.pool_begin + 7) & ~size_t{7};
    for (size_t offset = 0; offset < clean.code.size(); ++offset) {
      if (offset >= clean.pool_begin && offset < pad_end) continue;
      for (const uint8_t mask :
           {static_cast<uint8_t>(1u << (offset % 8)), uint8_t{0xFF}}) {
        BatchJitArtifact corrupt = clean;
        corrupt.code[offset] ^= mask;
        const AnalysisReport report = AnalyzeBatch(forest, corrupt);
        ASSERT_TRUE(report.HasErrors())
            << "trial " << trial << ": flip of byte " << offset << " (mask 0x"
            << std::hex << static_cast<int>(mask)
            << ") slipped past the validator";
      }
    }
  }
}

TEST(BatchEquivalenceTest, ValidatorRejectsWrongForest) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(55);
  const Forest forest = MakeRandomForest(&rng, 4, 3, 4);
  Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
  ASSERT_TRUE(artifact.ok());

  // Same shape, different thresholds / values: structure or semantics fail.
  Forest other = forest;
  for (Tree& tree : other.trees) {
    for (TreeNode& node : tree.nodes) {
      if (node.is_leaf) {
        node.value += 1.0;
      } else {
        node.threshold += 0.125;
      }
    }
  }
  EXPECT_TRUE(BatchEquivalenceValidator()
                  .Validate(other, artifact->code.data(), artifact->code.size(),
                            artifact->entries, artifact->pool_begin)
                  .HasErrors());

  // Different tree count: rejected before any lifting.
  Forest fewer = forest;
  fewer.trees.pop_back();
  const AnalysisReport report = BatchEquivalenceValidator().Validate(
      fewer, artifact->code.data(), artifact->code.size(), artifact->entries,
      artifact->pool_begin);
  ASSERT_TRUE(report.HasErrors());
  EXPECT_EQ(report.diagnostics()[0].check, "tree-count-mismatch");
}

// The two emitters' grammars are disjoint: batch code lifted as scalar
// tree code and scalar code lifted as batch kernels both fail their lift,
// so a linker or cache mix-up of the two buffers cannot pass either proof.
TEST(BatchEquivalenceTest, VocabularySeparationBetweenScalarAndBatch) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(7);
  const Forest forest = MakeRandomForest(&rng, 3, 2, 3);
  Result<JitArtifact> scalar = EmitForestCode(forest);
  Result<BatchJitArtifact> batch = EmitForestBatchCode(forest);
  ASSERT_TRUE(scalar.ok());
  ASSERT_TRUE(batch.ok());

  std::vector<LiftedTree> lifted;
  // Scalar bytes lifted as batch kernels.
  EXPECT_TRUE(HasError(
      TreeLifter().LiftBatchForest(scalar->code.data(), scalar->code.size(),
                                   scalar->entries, scalar->code.size(),
                                   forest.num_features, &lifted),
      "unliftable-batch-code"));
  // Batch bytes lifted as scalar tree code.
  EXPECT_TRUE(HasError(
      TreeLifter().LiftForest(batch->code.data(), batch->pool_begin,
                              batch->entries, forest.num_features, &lifted),
      "unliftable-code"));
}

TEST(BatchEquivalenceTest, LiftRejectsBadPoolBounds) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(11);
  const Forest forest = MakeRandomForest(&rng, 3, 1, 3);
  Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
  ASSERT_TRUE(artifact.ok());
  artifact->pool_begin = artifact->code.size() + 8;
  const AnalysisReport report = LiftBatch(*artifact);
  ASSERT_TRUE(report.HasErrors());
  EXPECT_EQ(report.diagnostics()[0].check, "bad-pool-ref");
}

// A broadcast whose disp32 points before the buffer must be a pool error
// even when the instructions end one byte short of an 8-byte boundary:
// there, "one past the instructions" is exactly the first pool constant,
// which the first broadcast of the first kernel legitimately reads.
TEST(BatchEquivalenceTest, WildBroadcastBeforeAlignedPoolIsRejected) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  Rng rng(4242);
  const Forest forest = ForestWithPoolBeginOneBeforeAlignment(&rng);
  Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
  ASSERT_TRUE(artifact.ok());
  ASSERT_EQ(artifact->pool_begin % 8, 7u);
  const DecodedCode decoded =
      DecodeLinear(artifact->code.data(), artifact->pool_begin);
  ASSERT_TRUE(decoded.ok);
  size_t broadcast = 0;
  while (decoded.At(broadcast)->op != JitOp::kVbroadcastsd) {
    broadcast += decoded.At(broadcast)->length;
  }
  // The top byte of the disp32: the operand now reads ~16 MiB before the
  // buffer.
  artifact->code[broadcast + 8] ^= 0xFF;
  EXPECT_TRUE(HasError(AnalyzeBatch(forest, *artifact), "bad-pool-ref"))
      << AnalyzeBatch(forest, *artifact).ToString();
}

/// Each case corrupts one batch safety obligation the emitter grammar
/// alone does not pin, and asserts the lift's diagnostic. The forest has
/// splits at depths 0 and 1, so its frame is 128 bytes; node 1 is a leaf
/// child and node 2 a split child, the one node behind a dead-subtree guard.
class BatchLiftCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!BatchJitSupported()) {
      GTEST_SKIP() << "batch JIT not supported in this build";
    }
    Forest forest;
    forest.num_features = 3;
    Tree tree;
    tree.nodes.resize(5);
    tree.nodes[0].feature = 2;
    tree.nodes[0].threshold = 0.5;
    tree.nodes[0].left = 1;
    tree.nodes[0].right = 2;
    tree.nodes[1].is_leaf = true;
    tree.nodes[1].value = 1.0;
    tree.nodes[2].feature = 1;
    tree.nodes[2].threshold = -0.5;
    tree.nodes[2].left = 3;
    tree.nodes[2].right = 4;
    tree.nodes[3].is_leaf = true;
    tree.nodes[3].value = 2.0;
    tree.nodes[4].is_leaf = true;
    tree.nodes[4].value = 3.0;
    forest.trees.push_back(tree);
    ASSERT_TRUE(forest.Validate().ok());
    Result<BatchJitArtifact> artifact = EmitForestBatchCode(forest);
    ASSERT_TRUE(artifact.ok());
    artifact_ = *std::move(artifact);
    ASSERT_FALSE(LiftBatch(artifact_).HasErrors());
  }

  /// Offsets of every instruction of kind `op`, in order.
  std::vector<size_t> AllOps(JitOp op) const {
    const DecodedCode decoded =
        DecodeLinear(artifact_.code.data(), artifact_.pool_begin);
    EXPECT_TRUE(decoded.ok);
    std::vector<size_t> offsets;
    for (const JitInstruction& instruction : decoded.instructions) {
      if (instruction.op == op) offsets.push_back(instruction.offset);
    }
    return offsets;
  }

  void Patch32(size_t at, uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      artifact_.code[at + static_cast<size_t>(i)] =
          static_cast<uint8_t>(value >> (8 * i));
    }
  }

  /// Offset of the fixture's one guard: `vorpd ymm7, ymm5, ymm6` (4 bytes),
  /// `vptest ymm7, ymm7` (5), `jz rel32` (6).
  size_t Guard() const {
    const std::vector<size_t> tests = AllOps(JitOp::kVptest);
    EXPECT_EQ(tests.size(), 1u);
    return tests.empty() ? 0 : tests[0] - 4;
  }

  /// Replaces `erase` bytes at `at` with `insert` and relinks the code the
  /// way the emitter lays it out: the pool moves with the end of the code,
  /// and every broadcast and every jz outside the replaced bytes keeps its
  /// target.
  void Splice(size_t at, size_t erase, const std::vector<uint8_t>& insert) {
    const std::vector<uint8_t>& old = artifact_.code;
    const DecodedCode decoded = DecodeLinear(old.data(), artifact_.pool_begin);
    ASSERT_TRUE(decoded.ok);
    const auto moved = [&](size_t offset) {
      return offset < at + erase ? offset : offset - erase + insert.size();
    };
    const size_t old_pool = (artifact_.pool_begin + 7) & ~size_t{7};
    std::vector<uint8_t> code(old.begin(), old.begin() + static_cast<long>(at));
    code.insert(code.end(), insert.begin(), insert.end());
    code.insert(code.end(), old.begin() + static_cast<long>(at + erase),
                old.begin() + static_cast<long>(artifact_.pool_begin));
    const size_t pool_begin = code.size();
    while (code.size() % 8 != 0) code.push_back(0);
    const size_t pool = code.size();
    code.insert(code.end(), old.begin() + static_cast<long>(old_pool),
                old.end());
    for (const JitInstruction& instruction : decoded.instructions) {
      if (instruction.offset >= at && instruction.offset < at + erase) {
        continue;
      }
      const size_t from = moved(instruction.offset);
      size_t target = 0;
      if (instruction.op == JitOp::kVbroadcastsd) {
        target = instruction.target - old_pool + pool;
      } else if (instruction.op == JitOp::kJz) {
        target = moved(instruction.target);
      } else {
        continue;
      }
      const size_t end = from + instruction.length;
      const uint32_t rel = static_cast<uint32_t>(target - end);
      for (int i = 0; i < 4; ++i) {
        code[end - 4 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(rel >> (8 * i));
      }
    }
    artifact_.code = std::move(code);
    artifact_.pool_begin = pool_begin;
  }

  /// Rewrites the imm32 of the kernel's `sub rsp` and `add rsp` together,
  /// keeping them balanced.
  void SetFrame(uint32_t frame) {
    for (const JitOp op : {JitOp::kSubRspImm32, JitOp::kAddRspImm32}) {
      const std::vector<size_t> at = AllOps(op);
      ASSERT_EQ(at.size(), 1u);
      Patch32(at[0] + 3, frame);
    }
  }

  BatchJitArtifact artifact_;
};

TEST_F(BatchLiftCorruptionTest, MisSizedFrameIsRejected) {
  // 64: the depth-1 split spills to [rsp + 64, rsp + 128), beyond the
  // frame. 136 and 192: larger than the spills need. 0xFFFFFF80: sub rsp,
  // -128 to the CPU, a "frame" above rsp.
  for (const uint32_t frame :
       {uint32_t{64}, uint32_t{136}, uint32_t{192}, uint32_t{0xFFFFFF80}}) {
    SetFrame(frame);
    EXPECT_TRUE(HasError(LiftBatch(artifact_), "bad-frame"))
        << "frame " << frame << ": " << LiftBatch(artifact_).ToString();
  }
}

TEST_F(BatchLiftCorruptionTest, UnbalancedFrameIsRejected) {
  const std::vector<size_t> adds = AllOps(JitOp::kAddRspImm32);
  ASSERT_EQ(adds.size(), 1u);
  Patch32(adds[0] + 3, 64);  // sub rsp, 128 ... add rsp, 64.
  EXPECT_TRUE(HasError(LiftBatch(artifact_), "unliftable-batch-code"))
      << LiftBatch(artifact_).ToString();
}

TEST_F(BatchLiftCorruptionTest, UnknownOpcodeIsRejected) {
  artifact_.code[0] = 0x90;  // nop is not in the whitelist.
  EXPECT_TRUE(HasError(LiftBatch(artifact_), "undecodable-batch-code"))
      << LiftBatch(artifact_).ToString();
}

TEST_F(BatchLiftCorruptionTest, OutOfBoundsLaneLoadIsRejected) {
  // Both halves of the root compare now read feature column 3 of 3.
  const std::vector<size_t> loads = AllOps(JitOp::kVcmppdRdiMem);
  ASSERT_GE(loads.size(), 2u);
  Patch32(loads[0] + 4, 3 * 64);
  Patch32(loads[1] + 4, 3 * 64 + 32);
  EXPECT_TRUE(HasError(LiftBatch(artifact_), "lifted-feature-oob"))
      << LiftBatch(artifact_).ToString();
}

TEST_F(BatchLiftCorruptionTest, BranchInKernelIsRejected) {
  // Overwrite the first 9-byte mask spill with `jb +0; vzeroupper`: every
  // byte still decodes, but the grammar has no slot for a branch.
  const std::vector<size_t> spills = AllOps(JitOp::kVmovupdStoreRsp);
  ASSERT_FALSE(spills.empty());
  const uint8_t jb_vzeroupper[] = {0x0F, 0x82, 0, 0, 0, 0, 0xC5, 0xF8, 0x77};
  std::copy(std::begin(jb_vzeroupper), std::end(jb_vzeroupper),
            artifact_.code.begin() + static_cast<long>(spills[0]));
  EXPECT_TRUE(HasError(LiftBatch(artifact_), "unliftable-batch-code"))
      << LiftBatch(artifact_).ToString();
}

TEST_F(BatchLiftCorruptionTest, ScalarInstructionInKernelIsRejected) {
  // vandpd (4 bytes) -> ucomisd xmm1, xmm0 (4 bytes).
  const std::vector<size_t> ands = AllOps(JitOp::kVandpd);
  ASSERT_FALSE(ands.empty());
  const uint8_t ucomisd[] = {0x66, 0x0F, 0x2E, 0xC8};
  std::copy(std::begin(ucomisd), std::end(ucomisd),
            artifact_.code.begin() + static_cast<long>(ands[0]));
  EXPECT_TRUE(HasError(LiftBatch(artifact_), "unliftable-batch-code"))
      << LiftBatch(artifact_).ToString();
}

TEST_F(BatchLiftCorruptionTest, AccumulatorStoreOutsideOutputBlockIsRejected) {
  // The hi-half store [rsi + 32] -> [rsi + 64], one past the 8 doubles.
  const std::vector<size_t> stores = AllOps(JitOp::kVmovupdStoreRsi);
  ASSERT_EQ(stores.size(), 2u);
  Patch32(stores[1] + 4, 64);
  EXPECT_TRUE(HasError(LiftBatch(artifact_), "unliftable-batch-code"))
      << LiftBatch(artifact_).ToString();
}

TEST_F(BatchLiftCorruptionTest, GuardJumpingOffItsChildsEndIsRejected) {
  const size_t jz = Guard() + 9;
  const DecodedCode decoded =
      DecodeLinear(artifact_.code.data(), artifact_.pool_begin);
  ASSERT_TRUE(decoded.ok);
  const size_t child_end = decoded.At(jz)->target;
  ASSERT_NE(decoded.At(child_end), nullptr);
  size_t last = 0;  // The child's last instruction.
  for (const JitInstruction& instruction : decoded.instructions) {
    if (instruction.offset + instruction.length == child_end) {
      last = instruction.offset;
    }
  }
  const size_t one_late = child_end + decoded.At(child_end)->length;
  for (const size_t target : {last, one_late}) {
    Patch32(jz + 2, static_cast<uint32_t>(target - (jz + 6)));
    EXPECT_TRUE(HasError(LiftBatch(artifact_), "bad-guard"))
        << "jz to " << target << ", child ends at " << child_end << ": "
        << LiftBatch(artifact_).ToString();
  }
}

TEST_F(BatchLiftCorruptionTest, GuardTestingOtherRegistersIsRejected) {
  const size_t guard = Guard();
  const std::vector<uint8_t> clean(
      artifact_.code.begin() + static_cast<long>(guard),
      artifact_.code.begin() + static_cast<long>(guard + 9));
  // vorpd ymm7, ymm3, ymm4 / vorpd ymm7, ymm5, ymm5 / vorpd ymm0, ymm5,
  // ymm6 (into an accumulator) / vptest ymm7, ymm5.
  const std::vector<std::vector<uint8_t>> guards = {
      {0xC5, 0xE5, 0x56, 0xFC, 0xC4, 0xE2, 0x7D, 0x17, 0xFF},
      {0xC5, 0xD5, 0x56, 0xFD, 0xC4, 0xE2, 0x7D, 0x17, 0xFF},
      {0xC5, 0xD5, 0x56, 0xC6, 0xC4, 0xE2, 0x7D, 0x17, 0xFF},
      {0xC5, 0xD5, 0x56, 0xFE, 0xC4, 0xE2, 0x7D, 0x17, 0xFD},
  };
  ASSERT_EQ(clean, std::vector<uint8_t>({0xC5, 0xD5, 0x56, 0xFE, 0xC4, 0xE2,
                                         0x7D, 0x17, 0xFF}));
  for (const std::vector<uint8_t>& bytes : guards) {
    std::copy(bytes.begin(), bytes.end(),
              artifact_.code.begin() + static_cast<long>(guard));
    EXPECT_TRUE(HasError(LiftBatch(artifact_), "bad-guard"))
        << LiftBatch(artifact_).ToString();
  }
}

TEST_F(BatchLiftCorruptionTest, GuardBeforeLeafChildIsRejected) {
  // Node 1, the root's left child, is a leaf: its block starts with the
  // second broadcast and is 25 bytes long. A guard that skips exactly that
  // block is still not in the grammar.
  const std::vector<size_t> broadcasts = AllOps(JitOp::kVbroadcastsd);
  ASSERT_GE(broadcasts.size(), 2u);
  Splice(broadcasts[1], 0,
         {0xC5, 0xD5, 0x56, 0xFE, 0xC4, 0xE2, 0x7D, 0x17, 0xFF, 0x0F, 0x84,
          25, 0, 0, 0});
  EXPECT_TRUE(HasError(LiftBatch(artifact_), "bad-guard"))
      << LiftBatch(artifact_).ToString();
}

TEST_F(BatchLiftCorruptionTest, SplitChildWithoutGuardIsRejected) {
  const size_t guard = Guard();
  const std::vector<uint8_t> bytes(
      artifact_.code.begin() + static_cast<long>(guard),
      artifact_.code.begin() + static_cast<long>(guard + 15));
  Splice(guard, 15, {});
  EXPECT_TRUE(HasError(LiftBatch(artifact_), "bad-guard"))
      << LiftBatch(artifact_).ToString();
  // Splicing the guard back in restores a clean lift, so the rejection
  // above is the missing guard and not the relinking.
  Splice(guard, 0, bytes);
  EXPECT_FALSE(LiftBatch(artifact_).HasErrors())
      << LiftBatch(artifact_).ToString();
}

TEST_F(BatchLiftCorruptionTest, BadEntriesAreRejected) {
  artifact_.entries = {8};
  EXPECT_TRUE(HasError(LiftBatch(artifact_), "bad-entry"));
  artifact_.entries = {0, artifact_.pool_begin};
  EXPECT_TRUE(HasError(LiftBatch(artifact_), "bad-entry"));
}

// End to end: Compile with every proof forced on (the release defaults
// leave them off) accepts every random forest and fixture model, and the
// mapped kernels bit-equal Forest::Predict on one witness row per leaf cell
// of every tree, zero-padded to whole 8-row blocks so none lands in the
// per-row tail.
TEST(BatchEquivalenceTest, CompileWithFullValidationSucceeds) {
  if (!BatchJitSupported()) {
    GTEST_SKIP() << "batch JIT not supported in this build";
  }
  std::vector<Forest> forests;
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const int num_features = 1 + static_cast<int>(rng.UniformInt(0, 5));
    forests.push_back(MakeRandomForest(
        &rng, num_features, 1 + static_cast<int>(rng.UniformInt(0, 4)),
        1 + static_cast<int>(rng.UniformInt(0, 4))));
  }
  for (const char* fixture : kFixtures) {
    Result<Forest> forest =
        Forest::LoadFromFile(std::string(T3_SOURCE_DIR) + fixture);
    ASSERT_TRUE(forest.ok()) << fixture << ": " << forest.status().ToString();
    forests.push_back(*std::move(forest));
  }
  JitCompileOptions options;
  options.audit = true;
  options.validate_translation = true;
  options.validate_batch = true;
  for (size_t i = 0; i < forests.size(); ++i) {
    const Forest& forest = forests[i];
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(forest, options);
    ASSERT_TRUE(compiled.ok())
        << "forest " << i << ": " << compiled.status().ToString();
    EXPECT_TRUE((*compiled)->has_batch_kernels());
    EXPECT_GT((*compiled)->batch_code_size(), 0u);
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

}  // namespace
}  // namespace t3
