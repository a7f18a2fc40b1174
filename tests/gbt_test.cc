#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "gbt/forest.h"
#include "gbt/trainer.h"
#include "model/t3_model.h"

namespace t3 {
namespace {

// Training rows for y = f(x) + noise over uniform features.
struct Problem {
  std::vector<double> rows;
  std::vector<double> targets;
  size_t num_features;
};

Problem MakeMonotoneProblem(size_t num_rows, uint64_t seed) {
  Problem problem;
  problem.num_features = 4;
  Rng rng(seed);
  for (size_t i = 0; i < num_rows; ++i) {
    double x0 = rng.UniformDouble(0, 1);
    problem.rows.push_back(x0);
    for (size_t f = 1; f < problem.num_features; ++f) {
      problem.rows.push_back(rng.UniformDouble(0, 1));
    }
    // Strictly increasing in x0; the other features are noise.
    problem.targets.push_back(5.0 * x0 + rng.Gaussian(0, 0.02));
  }
  return problem;
}

TEST(TrainerTest, FitsMonotoneFunctionWithDecreasingValidationLoss) {
  const Problem problem = MakeMonotoneProblem(2000, 3);
  TrainParams params;
  params.num_trees = 60;
  params.max_leaves = 15;
  params.early_stopping_rounds = 60;  // Keep all trees for this test.
  TrainStats stats;
  Result<Forest> forest = TrainForest(problem.rows, problem.targets,
                                      problem.num_features, params, &stats);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();

  // Validation loss decreases substantially from the first boosting rounds
  // to the last ones.
  ASSERT_GE(stats.valid_loss_history.size(), 10u);
  const double early = stats.valid_loss_history[0];
  const double late = stats.valid_loss_history.back();
  EXPECT_LT(late, early * 0.2);
  EXPECT_LT(stats.final_train_loss, 0.05);

  // The learned function is monotone along x0 at a few probe points.
  std::vector<double> row(problem.num_features, 0.5);
  double previous = -1e300;
  for (double x0 : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    row[0] = x0;
    const double pred = forest->Predict(row.data());
    EXPECT_GT(pred, previous) << "not monotone at x0=" << x0;
    previous = pred;
    // And close to the ground truth 5 * x0.
    EXPECT_NEAR(pred, 5.0 * x0, 0.5);
  }
}

TEST(TrainerTest, EarlyStoppingTriggersOnNoise) {
  // Targets independent of the features: after a couple of trees the
  // validation loss cannot improve, so early stopping must fire long before
  // the 400-tree budget.
  Rng rng(17);
  const size_t num_rows = 600, num_features = 3;
  std::vector<double> rows(num_rows * num_features);
  for (double& v : rows) v = rng.UniformDouble(0, 1);
  std::vector<double> targets(num_rows);
  for (double& v : targets) v = rng.Gaussian(0, 1);

  TrainParams params;
  params.num_trees = 400;
  params.max_leaves = 31;
  params.early_stopping_rounds = 10;
  params.validation_fraction = 0.2;
  TrainStats stats;
  Result<Forest> forest =
      TrainForest(rows, targets, num_features, params, &stats);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  EXPECT_TRUE(stats.early_stopped);
  EXPECT_LT(stats.num_trees, 400);
  EXPECT_EQ(forest->trees.size(), static_cast<size_t>(stats.num_trees));
}

TEST(TrainerTest, MapeObjectiveTrains) {
  const Problem problem = MakeMonotoneProblem(1500, 5);
  // Shift targets positive; MAPE is scale-sensitive around zero.
  std::vector<double> targets = problem.targets;
  for (double& v : targets) v += 10.0;

  TrainParams params;
  params.objective = Objective::kMape;
  params.num_trees = 80;
  TrainStats stats;
  Result<Forest> forest = TrainForest(problem.rows, targets,
                                      problem.num_features, params, &stats);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  // Relative error well under 2% on a probe point.
  std::vector<double> row(problem.num_features, 0.5);
  const double pred = forest->Predict(row.data());
  EXPECT_NEAR(pred, 12.5, 0.25);
}

TEST(TrainerTest, RejectsNonFiniteInputs) {
  const std::vector<double> rows = {1.0, std::nan(""), 2.0, 3.0};
  const std::vector<double> targets = {1.0, 2.0};
  Result<Forest> forest = TrainForest(rows, targets, 2, TrainParams{});
  EXPECT_FALSE(forest.ok());
  EXPECT_EQ(forest.status().code(), StatusCode::kInvalidArgument);
}

TEST(ForestIoTest, TextRoundTripIsBitExact) {
  const Problem problem = MakeMonotoneProblem(800, 11);
  TrainParams params;
  params.num_trees = 20;
  Result<Forest> forest = TrainForest(problem.rows, problem.targets,
                                      problem.num_features, params);
  ASSERT_TRUE(forest.ok());

  const std::string text = forest->ToText();
  Result<Forest> reloaded = Forest::FromText(text);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  // Bit-exact: serializing again yields the identical string, and
  // predictions agree exactly.
  EXPECT_EQ(reloaded->ToText(), text);
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> row(problem.num_features);
    for (double& v : row) v = rng.UniformDouble(-1, 2);
    const double a = forest->Predict(row.data());
    const double b = reloaded->Predict(row.data());
    ASSERT_EQ(a, b);
  }
}

TEST(ForestIoTest, RejectsMalformedText) {
  EXPECT_FALSE(Forest::FromText("garbage").ok());
  EXPECT_FALSE(Forest::FromText("t3gbt v2\n").ok());
  // Tree with an out-of-range child index fails validation.
  EXPECT_FALSE(Forest::FromText("t3gbt v1\nnum_features 2\nbase_score 0\n"
                                "num_trees 1\ntree 1\n0 0 0.5 3 4 0\n")
                   .ok());
  // Counts far beyond what the remaining bytes can encode are rejected
  // before anything is allocated (they used to end in std::bad_alloc).
  for (const char* text :
       {"t3gbt v1\nnum_features 2\nbase_score 0\nnum_trees 100000000000\n",
        "t3gbt v1\nnum_features 2\nbase_score 0\nnum_trees 1\n"
        "tree 100000000000\n1 -1 0 -1 -1 0\n"}) {
    const Result<Forest> forest = Forest::FromText(text);
    ASSERT_FALSE(forest.ok()) << text;
    EXPECT_EQ(forest.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

// std::from_chars is stricter than the strtod/strtoll reader it replaced:
// a leading '+' and a hex float used to parse, and strtoll clamped an
// out-of-range integer to INT64_MAX. The parser now rejects each of them.
TEST(ForestIoTest, NumbersMustBePlainDecimalInRange) {
  const std::string head = "t3gbt v1\nnum_features 2\nbase_score ";
  const std::string one_leaf = "\nnum_trees 1\ntree 1\n1 -1 0 -1 -1 ";
  ASSERT_TRUE(Forest::FromText(head + "0.5" + one_leaf + "0.25\n").ok());
  for (const std::string& text : {
           head + "+0.5" + one_leaf + "0.25\n",   // leading '+'
           head + "0.5" + one_leaf + "+0.25\n",
           head + "0x1p-1" + one_leaf + "0.25\n",  // hex float
           head + "0.5" + one_leaf + "0x1p-2\n",
           std::string("t3gbt v1\nnum_features 99999999999999999999\n"
                       "base_score 0.5") + one_leaf + "0.25\n",
       }) {
    const Result<Forest> forest = Forest::FromText(text);
    ASSERT_FALSE(forest.ok()) << text;
    EXPECT_EQ(forest.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

namespace {

Tree Stump(int feature, double threshold, double left, double right,
           bool default_left) {
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0].feature = feature;
  tree.nodes[0].threshold = threshold;
  tree.nodes[0].left = 1;
  tree.nodes[0].right = 2;
  tree.nodes[0].default_left = default_left;
  tree.nodes[1].is_leaf = true;
  tree.nodes[1].value = left;
  tree.nodes[2].is_leaf = true;
  tree.nodes[2].value = right;
  return tree;
}

// A forest whose every number sits at an edge of the double format.
Forest EdgeValueForest() {
  Forest forest;
  forest.num_features = 3;
  forest.base_score = -0.0;
  forest.trees.push_back(Stump(0, 0.0, -0.0, 0.0, false));
  forest.trees.push_back(Stump(1, -0.0, DBL_TRUE_MIN, -DBL_TRUE_MIN, true));
  forest.trees.push_back(Stump(2, DBL_MIN, DBL_MAX, -DBL_MAX, false));
  forest.trees.push_back(Stump(0, -DBL_MAX, -DBL_MIN, DBL_MIN, true));
  // One-ulp neighbours of a threshold: the root splits at t, its children
  // at the doubles just below and just above t.
  const double t = 0.1;
  Tree ulps = Stump(1, t, 0.0, 0.0, false);
  ulps.nodes[1] = Stump(1, std::nextafter(t, -1.0), 1.0, 2.0, true).nodes[0];
  ulps.nodes[1].left = 3;
  ulps.nodes[1].right = 4;
  ulps.nodes[2] = Stump(1, std::nextafter(t, 1.0), 3.0, 4.0, false).nodes[0];
  ulps.nodes[2].left = 5;
  ulps.nodes[2].right = 6;
  for (const double value : {std::nextafter(1.0, 0.0), 1.0,
                             std::nextafter(1.0, 2.0), 0.1}) {
    TreeNode leaf;
    leaf.is_leaf = true;
    leaf.value = value;
    ulps.nodes.push_back(leaf);
  }
  forest.trees.push_back(ulps);
  return forest;
}

}  // namespace

TEST(ForestIoTest, SameForestHoldsAcrossRoundTripOfEdgeValues) {
  const Forest forest = EdgeValueForest();
  ASSERT_TRUE(forest.Validate().ok()) << forest.Validate().ToString();
  Result<Forest> reloaded = Forest::FromText(forest.ToText());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(SameForest(forest, *reloaded));
  EXPECT_TRUE(SameForest(*reloaded, forest));
  EXPECT_TRUE(std::signbit(reloaded->base_score));
  EXPECT_EQ(reloaded->trees[1].nodes[1].value, DBL_TRUE_MIN);
}

TEST(ForestIoTest, SameForestRejectsEachSingleFieldChange) {
  const Forest forest = EdgeValueForest();
  ASSERT_TRUE(SameForest(forest, forest));

  Forest ulp_leaf = forest;
  double& value = ulp_leaf.trees[4].nodes[3].value;
  value = std::nextafter(value, 2.0);
  EXPECT_FALSE(SameForest(forest, ulp_leaf));

  Forest zero_sign = forest;  // +0.0 leaf becomes -0.0; == cannot tell.
  ASSERT_EQ(zero_sign.trees[0].nodes[2].value, 0.0);
  zero_sign.trees[0].nodes[2].value = -0.0;
  EXPECT_FALSE(SameForest(forest, zero_sign));

  Forest nan_routing = forest;
  nan_routing.trees[2].nodes[0].default_left = true;
  EXPECT_FALSE(SameForest(forest, nan_routing));

  Forest swapped = forest;
  std::swap(swapped.trees[4].nodes[0].left, swapped.trees[4].nodes[0].right);
  EXPECT_FALSE(SameForest(forest, swapped));

  Forest fewer_trees = forest;
  fewer_trees.trees.pop_back();
  EXPECT_FALSE(SameForest(forest, fewer_trees));
}

namespace {

// A double for a threshold, a leaf or base_score, drawn from an edge pool:
// a signed format edge, a one-ulp neighbour of one, or a random finite bit
// pattern.
double EdgeDouble(Rng* rng) {
  static constexpr double kEdges[] = {0.0, DBL_TRUE_MIN, DBL_MIN, DBL_MAX, 0.1, 1.0};
  const double edge =
      kEdges[rng->UniformInt(0, static_cast<int64_t>(std::size(kEdges)) - 1)];
  const double sign = rng->Bernoulli(0.5) ? -1.0 : 1.0;
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return sign * edge;
    case 1:
      return sign * std::nextafter(edge, rng->Bernoulli(0.5) ? 0.0 : DBL_MAX);
    default:
      for (;;) {
        const uint64_t bits = rng->Next();
        double value;
        std::memcpy(&value, &bits, sizeof(value));
        if (std::isfinite(value)) return value;
      }
  }
}

// Appends a random subtree of at most `depth` levels to `tree`, numbered in
// preorder, and returns its root's index.
int AddEdgeSubtree(Tree* tree, Rng* rng, int num_features, int depth) {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  if (depth == 0 || rng->Bernoulli(0.3)) {
    tree->nodes[index].is_leaf = true;
    tree->nodes[index].value = EdgeDouble(rng);
    return index;
  }
  TreeNode split;
  split.feature = static_cast<int>(rng->UniformInt(0, num_features - 1));
  split.threshold = EdgeDouble(rng);
  split.default_left = rng->Bernoulli(0.5);
  split.left = AddEdgeSubtree(tree, rng, num_features, depth - 1);
  split.right = AddEdgeSubtree(tree, rng, num_features, depth - 1);
  tree->nodes[index] = split;
  return index;
}

}  // namespace

// The serializer's contract over random forests whose every number comes
// from the edge pool: the text reparses, the reparsed forest is SameForest
// with the original both ways, and ToText is a fixed point. No model needs
// to re-prove this when it is served.
TEST(ForestIoTest, RandomEdgeValueForestsRoundTripBitExact) {
  Rng rng(20240917);
  for (int i = 0; i < 1000; ++i) {
    Forest forest;
    forest.num_features = 1 + static_cast<int>(rng.UniformInt(0, 7));
    forest.base_score = EdgeDouble(&rng);
    const int num_trees = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int t = 0; t < num_trees; ++t) {
      forest.trees.emplace_back();
      AddEdgeSubtree(&forest.trees.back(), &rng, forest.num_features,
                     static_cast<int>(rng.UniformInt(0, 4)));
    }
    ASSERT_TRUE(forest.Validate().ok()) << i << ": " << forest.Validate().ToString();

    const std::string text = forest.ToText();
    Result<Forest> reparsed = Forest::FromText(text);
    ASSERT_TRUE(reparsed.ok()) << i << ": " << reparsed.status().ToString() << "\n"
                               << text;
    ASSERT_TRUE(SameForest(forest, *reparsed)) << i << ":\n" << text;
    ASSERT_TRUE(SameForest(*reparsed, forest)) << i << ":\n" << text;
    ASSERT_EQ(reparsed->ToText(), text) << i;
  }
}

TEST(ForestIoTest, EveryCheckedInFixtureRoundTripsBitExact) {
  // Load(Save(f)) must reproduce every checked-in model bit-exactly: the
  // harness caches trained models through this serializer, and the
  // translation validator proves equivalence against the *loaded* forest —
  // any save/load drift would silently undermine both.
  for (const char* name :
       {"model_ablation_per_pipeline.txt", "model_ablation_per_query.txt",
        "model_autowlm_per_query.txt", "model_loo_airline.txt",
        "cache_model_main.txt"}) {
    const std::string path = std::string(T3_SOURCE_DIR) + "/data/" + name;
    Result<T3Model> model = T3Model::LoadFromFile(path);
    // cache_* files are generated by the workbench, not checked in; they
    // are validated when present (local runs) but a fresh checkout lacks
    // them.
    if (!model.ok() && std::string(name).rfind("cache_", 0) == 0) continue;
    ASSERT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    const Forest& forest = model->forest();

    Result<Forest> reloaded = Forest::FromText(forest.ToText());
    ASSERT_TRUE(reloaded.ok()) << name << ": "
                               << reloaded.status().ToString();
    // Text equality and field-by-field bit equality: the bit-exactness
    // proof the workbench cache runs.
    EXPECT_EQ(reloaded->ToText(), forest.ToText()) << name;
    EXPECT_TRUE(SameForest(*reloaded, forest)) << name;
  }
}

// ToText reproduces every tracked model file byte for byte after its
// "t3model target <n>" header line, so the serializer has not drifted from
// the text the fixtures were written with.
TEST(ForestIoTest, ToTextMatchesEveryTrackedModelFileBody) {
  for (const char* name :
       {"model_ablation_per_pipeline.txt", "model_ablation_per_query.txt",
        "model_autowlm_per_query.txt", "model_loo_airline.txt"}) {
    const std::string path = std::string(T3_SOURCE_DIR) + "/data/" + name;
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file) << path;
    std::stringstream content;
    content << file.rdbuf();
    const std::string text = content.str();
    ASSERT_EQ(text.rfind("t3model target ", 0), 0u) << name;
    const std::string body = text.substr(text.find('\n') + 1);

    Result<Forest> forest = Forest::FromText(body);
    ASSERT_TRUE(forest.ok()) << name << ": " << forest.status().ToString();
    EXPECT_TRUE(forest->ToText() == body) << name;
  }
}

TEST(ForestIoTest, LoadsCheckedInModelFixture) {
  const std::string path =
      std::string(T3_SOURCE_DIR) + "/data/model_autowlm_per_query.txt";
  Result<T3Model> model = T3Model::LoadFromFile(path);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const Forest* forest = &model->forest();

  // The fixture is the paper configuration: 200 trees, 48 features.
  EXPECT_EQ(forest->num_features, 48);
  EXPECT_EQ(forest->trees.size(), 200u);
  EXPECT_DOUBLE_EQ(forest->base_score, 7.7257788436153465);
  EXPECT_EQ(forest->trees[0].nodes.size(), 61u);
  // Root of the first tree as checked in.
  const TreeNode& root = forest->trees[0].nodes[0];
  EXPECT_FALSE(root.is_leaf);
  EXPECT_EQ(root.feature, 1);
  EXPECT_DOUBLE_EQ(root.threshold, 20000.0);

  // Round-trips exactly through our writer (modulo the t3model header).
  Result<Forest> reloaded = Forest::FromText(forest->ToText());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->ToText(), forest->ToText());

  // And predicts something finite on a plausible feature row.
  std::vector<double> row(48, 1.0);
  EXPECT_TRUE(std::isfinite(forest->Predict(row.data())));
}

TEST(T3ModelTest, LoadsTargetFromModelHeader) {
  const std::string base = std::string(T3_SOURCE_DIR) + "/data/";
  Result<T3Model> per_query =
      T3Model::LoadFromFile(base + "model_autowlm_per_query.txt");
  ASSERT_TRUE(per_query.ok()) << per_query.status().ToString();
  EXPECT_EQ(per_query->target(), PredictionTarget::kPerQuery);

  Result<T3Model> per_tuple =
      T3Model::LoadFromFile(base + "model_loo_airline.txt");
  ASSERT_TRUE(per_tuple.ok());
  EXPECT_EQ(per_tuple->target(), PredictionTarget::kPerTuple);

  Result<T3Model> per_pipeline =
      T3Model::LoadFromFile(base + "model_ablation_per_pipeline.txt");
  ASSERT_TRUE(per_pipeline.ok());
  EXPECT_EQ(per_pipeline->target(), PredictionTarget::kPerPipeline);
}

TEST(T3ModelTest, SaveLoadPreservesTargetAndForest) {
  const Problem problem = MakeMonotoneProblem(500, 31);
  TrainParams params;
  params.num_trees = 5;
  Result<Forest> forest = TrainForest(problem.rows, problem.targets,
                                      problem.num_features, params);
  ASSERT_TRUE(forest.ok());
  const T3Model model(*std::move(forest), PredictionTarget::kPerPipeline);

  const std::string path = testing::TempDir() + "/t3_model_roundtrip.txt";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  Result<T3Model> reloaded = T3Model::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->target(), PredictionTarget::kPerPipeline);
  EXPECT_EQ(reloaded->forest().ToText(), model.forest().ToText());
}

TEST(T3ModelTest, RejectsMalformedTargetHeader) {
  // Regression: the header value was parsed with std::atoi, which silently
  // truncates "2x" to the valid target 2 and reads "" as 0. The strict
  // parser must reject the whole file instead.
  const std::string fixture =
      std::string(T3_SOURCE_DIR) + "/tests/data/model_bad_target.txt";
  Result<T3Model> bad = T3Model::LoadFromFile(fixture);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  Result<T3Model> good_fixture_body = T3Model::LoadFromFile(
      std::string(T3_SOURCE_DIR) + "/tests/data/model_corrupt.txt");
  // The same forest body with target "0" gets past the header (it fails
  // later, in the forest validator) — proof the fixture above fails on the
  // header, not the body.
  if (!good_fixture_body.ok()) {
    EXPECT_EQ(good_fixture_body.status().code(),
              StatusCode::kInvalidArgument);
  }

  for (const char* header : {"t3model target 2x\n", "t3model target \n",
                             "t3model target -0x1\n",
                             "t3model target 99999999999999999999\n"}) {
    const std::string path = testing::TempDir() + "/t3_model_bad_header.txt";
    ASSERT_TRUE(WriteStringToFile(path, std::string(header) +
                                            "t3gbt v1\nnum_features 1\n"
                                            "base_score 0\nnum_trees 0\n")
                    .ok());
    Result<T3Model> loaded = T3Model::LoadFromFile(path);
    EXPECT_FALSE(loaded.ok()) << "header accepted: " << header;
  }
}

// The per-query fixture's forest body behind `header`, loaded from a file.
Result<T3Model> LoadPerQueryBodyWithHeader(const std::string& header) {
  Result<std::string> text = ReadFileToString(
      std::string(T3_SOURCE_DIR) + "/data/model_autowlm_per_query.txt");
  if (!text.ok()) return text.status();
  const std::string path = testing::TempDir() + "/t3_model_header.txt";
  const Status written =
      WriteStringToFile(path, header + text->substr(text->find('\n') + 1));
  if (!written.ok()) return written;
  return T3Model::LoadFromFile(path);
}

// The header is read by the forest body's token rules: runs of spaces or
// tabs and a CRLF line end do not change which target a file declares.
TEST(T3ModelTest, HeaderWhitespaceDoesNotChangeTheTarget) {
  for (const char* header : {"t3model target 2\n", "t3model  target 2\n",
                             "t3model\ttarget 2\n", "t3model target 2\r\n",
                             "t3model target\t 2 \n"}) {
    Result<T3Model> loaded = LoadPerQueryBodyWithHeader(header);
    ASSERT_TRUE(loaded.ok()) << header << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->target(), PredictionTarget::kPerQuery) << header;
  }
}

// A target outside 0..2, and a file with no header at all, are refused:
// no file gets the per-tuple meaning by default.
TEST(T3ModelTest, RejectsUnknownTargetAndMissingHeader) {
  for (const char* header : {"t3model target 3\n", "t3model target -1\n",
                             "t3model target 9\n", "", "t3model\n",
                             "t3model target 2 2\n"}) {
    Result<T3Model> loaded = LoadPerQueryBodyWithHeader(header);
    ASSERT_FALSE(loaded.ok()) << "header accepted: " << header;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << header;
  }
  const std::string fixture =
      std::string(T3_SOURCE_DIR) + "/tests/data/model_unknown_target.txt";
  Result<T3Model> unknown = T3Model::LoadFromFile(fixture);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

// ParseModelHeader consumes line 1 and leaves the view at the forest body.
TEST(T3ModelTest, ParseModelHeaderLeavesTheBody) {
  std::string_view text = "t3model target 1\r\nt3gbt v1\n";
  Result<PredictionTarget> target = ParseModelHeader(&text);
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  EXPECT_EQ(*target, PredictionTarget::kPerPipeline);
  EXPECT_EQ(text, "t3gbt v1\n");

  std::string_view body_only = "t3gbt v1\n";
  EXPECT_FALSE(ParseModelHeader(&body_only).ok());
  EXPECT_EQ(body_only, "t3gbt v1\n");
}

TEST(T3ModelTest, TargetTransformRoundTrips) {
  for (double seconds : {1e-9, 4.2e-6, 0.37, 12.0}) {
    EXPECT_NEAR(InverseTransformTarget(TransformTarget(seconds)), seconds,
                seconds * 1e-12);
  }
  // Times below the floor clamp instead of producing infinities.
  EXPECT_TRUE(std::isfinite(TransformTarget(0.0)));
}

}  // namespace
}  // namespace t3
