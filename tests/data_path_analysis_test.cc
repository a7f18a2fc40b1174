// Tests for the plan -> features -> corpus data-path verification stack:
// PlanVerifier, FeatureAuditor, CorpusAuditor, and the "t3plan v1" file
// format. Fixture-based tests load the tracked golden plans and the mini
// corpus; mutation tests prove the passes catch seeded corruption.

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/corpus_auditor.h"
#include "analysis/feature_auditor.h"
#include "analysis/plan_verifier.h"
#include "common/check.h"
#include "common/file_util.h"
#include "common/stats.h"
#include "datagen/generator.h"
#include "datagen/spec.h"
#include "features/feature_registry.h"
#include "gbt/forest.h"
#include "harness/corpus.h"
#include "plan/pipeline.h"
#include "plan/plan.h"
#include "plan/plan_file.h"
#include "querygen/querygen.h"

namespace t3 {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

bool HasCheck(const AnalysisReport& report, const std::string& check,
              Severity severity) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.check == check && d.severity == severity) return true;
  }
  return false;
}

bool HasError(const AnalysisReport& report, const std::string& check) {
  return HasCheck(report, check, Severity::kError);
}

// Fixture loaders fail the calling test, not the whole binary; call them
// under ASSERT_NO_FATAL_FAILURE.
void LoadPlanFixture(const std::string& name,
                     std::vector<PlanNodeRecord>* records) {
  Result<std::string> content =
      ReadFileToString(std::string(T3_SOURCE_DIR) + "/" + name);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  Result<std::vector<PlanNodeRecord>> parsed = ParsePlanText(*content);
  ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
  *records = *std::move(parsed);
}

void LoadMiniCorpus(Corpus* corpus) {
  Result<Corpus> loaded =
      LoadCorpusFromFile(std::string(T3_SOURCE_DIR) + "/data/corpus_mini.txt");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  *corpus = *std::move(loaded);
}

/// The small tpch instance the live-plan tests build over.
Catalog MakeTestCatalog() {
  Result<const InstanceSpec*> spec = FindInstance("tpch_sf0");
  T3_CHECK_OK(spec);
  DatagenOptions options;
  options.scale_override = 0.05;
  Result<Catalog> catalog = GenerateInstance(**spec, options);
  T3_CHECK_OK(catalog);
  return *std::move(catalog);
}

/// The first FK edge whose fact table has a float64 column, and that column.
std::pair<JoinEdge, int> EdgeWithFloatColumn(const Catalog& catalog) {
  for (const JoinEdge& edge : DiscoverJoinEdges(catalog)) {
    const Table& fact = catalog.table(edge.fk_table);
    for (size_t c = 0; c < fact.num_columns(); ++c) {
      if (fact.column(c).type() == ColumnType::kFloat64) {
        return {edge, static_cast<int>(c)};
      }
    }
  }
  return {JoinEdge{}, -1};
}

/// A built plan as tracked fixture text: stage-tagged skeleton records.
std::string SkeletonText(Result<PhysicalPlan> plan) {
  T3_CHECK_OK(plan);
  Result<PipelineDecomposition> decomposition = DecomposePipelines(*plan);
  T3_CHECK_OK(decomposition);
  AnnotatePipelineStages(&*plan, *decomposition);
  return PlanRecordsToText(PlanToRecords(*plan));
}

// --- Plan file format. ---

TEST(PlanFileTest, GoldenFixturesMatchBuiltPlans) {
  // The tracked golden plans are PlanBuilder output over a fixed datagen
  // instance: data/plan_agg_golden.txt is scan -> filter -> hash aggregate
  // (records[2]) -> output, data/plan_join_golden.txt is an FK hash join
  // under an aggregate (three pipelines). Regenerate intentionally with
  //   T3_UPDATE_GOLDEN=1 ./build/tests/data_path_analysis_test
  //     --gtest_filter='*GoldenFixturesMatchBuiltPlans*'
  const Catalog catalog = MakeTestCatalog();
  const auto [edge, float_column] = EdgeWithFloatColumn(catalog);
  ASSERT_GE(float_column, 0) << "no FK edge with a float column in the fact";
  const std::string& fact_name = catalog.table(edge.fk_table).name();
  const int fk = static_cast<int>(edge.fk_column);
  const int pk = static_cast<int>(edge.pk_column);

  PlanBuilder builder(&catalog);
  std::vector<std::pair<std::string, std::string>> fixtures;
  {
    Result<int> scan = builder.Scan(fact_name);
    T3_CHECK_OK(scan);
    Result<int> filter =
        builder.Filter(*scan, {{float_column, CompareOp::kLt, 100.0}});
    T3_CHECK_OK(filter);
    Result<int> agg = builder.HashAggregate(
        *filter, {fk},
        {{AggFunc::kCountStar, -1}, {AggFunc::kSum, float_column}});
    T3_CHECK_OK(agg);
    fixtures.emplace_back("data/plan_agg_golden.txt",
                          SkeletonText(builder.Output(*agg)));
  }
  {
    Result<int> fact = builder.Scan(fact_name);
    T3_CHECK_OK(fact);
    Result<int> dim = builder.Scan(catalog.table(edge.pk_table).name());
    T3_CHECK_OK(dim);
    Result<int> join = builder.HashJoin(*fact, *dim, {fk}, {pk});
    T3_CHECK_OK(join);
    Result<int> agg =
        builder.HashAggregate(*join, {fk}, {{AggFunc::kCountStar, -1}});
    T3_CHECK_OK(agg);
    fixtures.emplace_back("data/plan_join_golden.txt",
                          SkeletonText(builder.Output(*agg)));
  }

  const bool update = std::getenv("T3_UPDATE_GOLDEN") != nullptr;
  for (const auto& [name, text] : fixtures) {
    const std::string path = std::string(T3_SOURCE_DIR) + "/" + name;
    if (update) {
      ASSERT_TRUE(WriteStringToFile(path, text).ok()) << path;
      continue;
    }
    Result<std::string> golden = ReadFileToString(path);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    EXPECT_EQ(text, *golden)
        << name << " drifted from the plan it is built from; if the "
           "change is intended, regenerate with T3_UPDATE_GOLDEN=1.";
  }
  if (update) GTEST_SKIP() << "regenerated the golden plan fixtures";
}

TEST(PlanFileTest, GoldenFixturesRoundTrip) {
  for (const char* name :
       {"data/plan_agg_golden.txt", "data/plan_join_golden.txt"}) {
    std::vector<PlanNodeRecord> records;
    ASSERT_NO_FATAL_FAILURE(LoadPlanFixture(name, &records));
    const std::string text = PlanRecordsToText(records);
    Result<std::vector<PlanNodeRecord>> reparsed = ParsePlanText(text);
    ASSERT_TRUE(reparsed.ok()) << name;
    EXPECT_EQ(PlanRecordsToText(*reparsed), text) << name;
  }
}

/// Parses `text` from an exact-size heap copy (no NUL after it, so a read
/// past the view is a sanitizer error) and rehydrates it; the first failing
/// step's status.
Status ParseAndRehydrate(const std::string& text) {
  const std::vector<char> copy(text.begin(), text.end());
  Result<std::vector<PlanNodeRecord>> records =
      ParsePlanText(std::string_view(copy.data(), copy.size()));
  if (!records.ok()) return records.status();
  Result<PhysicalPlan> plan = PlanFromRecords(*records);
  return plan.ok() ? Status::OK() : plan.status();
}

/// A scan -> filter -> output plan with the filter's fields spliced in.
std::string FilterPlan(const std::string& filter_fields) {
  return "t3plan v1\nnodes 3\nN 0 -1 -1 100 1 8 0\nN " + filter_fields +
         "\nN 8 1 -1 50 0 8 0\n";
}

TEST(PlanFileTest, RejectsMalformedText) {
  EXPECT_TRUE(ParseAndRehydrate(FilterPlan("1 0 -1 50 1 8 0")).ok());
  for (const std::string& text : {
           std::string(""),
           std::string("t3model v1\n"),
           std::string("t3plan v1\nnodes -1\n"),
           std::string("t3plan v1\nnodes 1\nN 0 -1\n"),
           std::string("t3plan v1\nnodes 1\nN 8 -1 -1 1 0 8 0\ntrailing\n"),
           // A count the text cannot hold is refused before it sizes
           // anything (it used to throw std::bad_alloc from reserve).
           std::string("t3plan v1\nnodes 99999999999999\n"),
           std::string("t3plan v1\nnodes 2\nN 8 -1 -1 1 0 8 0\n"),
           // Placeholder payloads sized by extra: 1e18 threw
           // std::length_error, 1e300 was an out-of-range float cast.
           FilterPlan("1 0 -1 50 1e18 8 0"),
           FilterPlan("1 0 -1 50 1e300 8 0"),
           // Extras the skeleton cannot reproduce bit for bit.
           FilterPlan("1 0 -1 50 2.5 8 0"),
           FilterPlan("1 0 -1 50 0 8 0"),
           FilterPlan("1 0 -1 50 -0 8 0"),
           FilterPlan("1 0 -1 50 65 8 0"),
           // Int fields out of int range used to be truncated: op
           // 4294967296 read as a scan.
           FilterPlan("4294967296 0 -1 50 1 8 0"),
           FilterPlan("1 4294967296 -1 50 1 8 0"),
           FilterPlan("1 0 -1 50 1 8 4294967296"),
           // A negative serialized stage tag; a limit of 2^63.
           FilterPlan("1 0 -1 50 1 8 -1"),
           FilterPlan("6 0 -1 50 9223372036854775808 8 0"),
       }) {
    const Status status = ParseAndRehydrate(text);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(PlanFileTest, TruncatedPlanIsAnErrorNotACrash) {
  Result<std::string> content = ReadFileToString(
      std::string(T3_SOURCE_DIR) + "/data/plan_join_golden.txt");
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  const std::string& full = *content;
  // Every prefix cut before the final token must fail with a Status (a cut
  // inside the final number is indistinguishable from a shorter value).
  const size_t last_token = full.find_last_of(' ') + 1;
  for (size_t cut = 0; cut <= last_token; ++cut) {
    const std::vector<char> prefix(full.begin(),
                                   full.begin() + static_cast<long>(cut));
    Result<std::vector<PlanNodeRecord>> records =
        ParsePlanText(std::string_view(prefix.data(), prefix.size()));
    EXPECT_FALSE(records.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST(PlanRecordsTest, AcceptedRecordsRoundTripBitForBit) {
  // Every extra a record may carry rehydrates to a skeleton PlanToRecords
  // maps back to the same bits, including the limit's int64 edge.
  for (const std::string& text : {
           FilterPlan("1 0 -1 50 64 8 0"),
           FilterPlan("6 0 -1 50 9223372036854774784 8 0"),
           FilterPlan("6 0 -1 50 0 8 0"),
           FilterPlan("4 0 -1 50 0 8 0"),
           FilterPlan("2 0 -1 -0 0 8 0"),
       }) {
    Result<std::vector<PlanNodeRecord>> records = ParsePlanText(text);
    ASSERT_TRUE(records.ok()) << text;
    Result<PhysicalPlan> plan = PlanFromRecords(*records);
    ASSERT_TRUE(plan.ok()) << text << plan.status().ToString();
    // %.17g is injective on doubles, so equal text is equal bits.
    EXPECT_EQ(PlanRecordsToText(PlanToRecords(*plan)),
              PlanRecordsToText(*records));
  }
}

// --- PlanVerifier. ---

TEST(PlanVerifierTest, GoldenFixturesVerifyClean) {
  for (const char* name :
       {"data/plan_agg_golden.txt", "data/plan_join_golden.txt"}) {
    std::vector<PlanNodeRecord> records;
    ASSERT_NO_FATAL_FAILURE(LoadPlanFixture(name, &records));
    const AnalysisReport report = PlanVerifier().VerifyRecords(records);
    EXPECT_TRUE(report.empty()) << name << ":\n" << report.ToString();
  }
}

TEST(PlanVerifierTest, CatchesCycle) {
  // tests/data/plan_bad.txt: node 1's child references node 2 — a forward
  // edge, i.e. a cycle under children-before-parents order.
  Result<std::string> content = ReadFileToString(
      std::string(T3_SOURCE_DIR) + "/tests/data/plan_bad.txt");
  ASSERT_TRUE(content.ok());
  Result<std::vector<PlanNodeRecord>> records = ParsePlanText(*content);
  ASSERT_TRUE(records.ok());
  const AnalysisReport report = PlanVerifier().VerifyRecords(*records);
  EXPECT_TRUE(HasError(report, "plan-topology")) << report.ToString();
}

TEST(PlanVerifierTest, CatchesZeroedStageTags) {
  // Zeroing every stage tag of a multi-pipeline plan is the signature of
  // dropped breaker annotations; the recomputed decomposition disagrees.
  std::vector<PlanNodeRecord> records;
  ASSERT_NO_FATAL_FAILURE(
      LoadPlanFixture("data/plan_join_golden.txt", &records));
  for (PlanNodeRecord& record : records) record.stage = 0;
  const AnalysisReport report = PlanVerifier().VerifyRecords(records);
  EXPECT_TRUE(HasError(report, "plan-stage")) << report.ToString();
}

TEST(PlanVerifierTest, CatchesMissingBreaker) {
  // Downgrading the hash aggregate to a streaming project removes the
  // breaker: the plan collapses to one pipeline and every downstream stage
  // tag diverges from the recomputed decomposition.
  std::vector<PlanNodeRecord> records;
  ASSERT_NO_FATAL_FAILURE(
      LoadPlanFixture("data/plan_agg_golden.txt", &records));
  ASSERT_EQ(records[2].op, static_cast<int>(PlanOp::kHashAggregate));
  records[2].op = static_cast<int>(PlanOp::kProject);
  const AnalysisReport report = PlanVerifier().VerifyRecords(records);
  EXPECT_TRUE(HasError(report, "plan-stage")) << report.ToString();
}

TEST(PlanVerifierTest, CatchesNonFiniteAnnotations) {
  std::vector<PlanNodeRecord> records;
  ASSERT_NO_FATAL_FAILURE(
      LoadPlanFixture("data/plan_agg_golden.txt", &records));
  records[0].cardinality = -5.0;
  records[1].width = kNan;
  const AnalysisReport report = PlanVerifier().VerifyRecords(records);
  EXPECT_TRUE(HasError(report, "plan-annotation")) << report.ToString();
}

TEST(PlanVerifierTest, CatchesTypeMismatchedJoinKey) {
  // Build a live FK join, then retarget the probe key at a float column:
  // ResolvePlanSchemas (the executor's type checks) must reject it.
  const Catalog catalog = MakeTestCatalog();
  const auto [edge, float_column] = EdgeWithFloatColumn(catalog);
  ASSERT_GE(float_column, 0) << "no FK edge with a float column in the fact";

  PlanBuilder builder(&catalog);
  Result<int> fact = builder.Scan(catalog.table(edge.fk_table).name());
  T3_CHECK_OK(fact);
  Result<int> dim = builder.Scan(catalog.table(edge.pk_table).name());
  T3_CHECK_OK(dim);
  Result<int> join = builder.HashJoin(*fact, *dim,
                                      {static_cast<int>(edge.fk_column)},
                                      {static_cast<int>(edge.pk_column)});
  T3_CHECK_OK(join);
  Result<PhysicalPlan> plan = builder.Output(*join);
  T3_CHECK_OK(plan);
  EXPECT_TRUE(PlanVerifier().Verify(*plan, &catalog).empty());

  plan->nodes[static_cast<size_t>(*join)].left_keys[0] = float_column;
  const AnalysisReport report = PlanVerifier().Verify(*plan, &catalog);
  EXPECT_TRUE(HasError(report, "plan-schema")) << report.ToString();
}

// --- FeatureAuditor. ---

TEST(FeatureAuditorTest, RegistryIsClean) {
  const AnalysisReport report = FeatureAuditor().AuditRegistry();
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(FeatureAuditorTest, VectorChecks) {
  const FeatureRegistry& registry = FeatureRegistry::Get();
  const FeatureAuditor auditor;
  std::vector<double> values(static_cast<size_t>(kFeatureDim), 0.0);
  EXPECT_TRUE(auditor.AuditVector(values, "clean").empty());

  std::vector<double> wrong_dim(10, 0.0);
  EXPECT_TRUE(HasError(auditor.AuditVector(wrong_dim, "dim"), "feature-dim"));

  // Filter pass-through: index 3 = count, 4 = in_percentage.
  const int count_index = registry.StageFeature(1, FeatureKind::kCount);
  const int pct_index = registry.StageFeature(1, FeatureKind::kInPercentage);
  ASSERT_GE(count_index, 0);
  ASSERT_GE(pct_index, 0);

  values[static_cast<size_t>(pct_index)] = 150.0;
  EXPECT_TRUE(
      HasError(auditor.AuditVector(values, "pct"), "feature-range"));
  values[static_cast<size_t>(pct_index)] = 0.5;
  EXPECT_TRUE(auditor.AuditVector(values, "pct").empty());

  values[static_cast<size_t>(count_index)] = 1.5;
  EXPECT_TRUE(
      HasError(auditor.AuditVector(values, "count"), "feature-count"));
  values[static_cast<size_t>(count_index)] = 2.0;

  values[0] = kNan;
  EXPECT_TRUE(
      HasError(auditor.AuditVector(values, "nan"), "feature-finite"));
}

TEST(FeatureAuditorTest, PairComparesCountFeaturesOnly) {
  const FeatureRegistry& registry = FeatureRegistry::Get();
  const FeatureAuditor auditor;
  std::vector<double> feat_true(static_cast<size_t>(kFeatureDim), 0.0);
  std::vector<double> feat_est = feat_true;

  // Percentages may differ between cardinality modes.
  const int pct_index = registry.StageFeature(1, FeatureKind::kInPercentage);
  feat_est[static_cast<size_t>(pct_index)] = 0.25;
  EXPECT_TRUE(auditor.AuditVectorPair(feat_true, feat_est, "pct").empty());

  // Counts are structural and must be bit-equal.
  const int count_index = registry.StageFeature(1, FeatureKind::kCount);
  feat_est[static_cast<size_t>(count_index)] = 1.0;
  EXPECT_TRUE(HasError(auditor.AuditVectorPair(feat_true, feat_est, "count"),
                       "feature-mode"));

  std::vector<double> truncated(10, 0.0);
  EXPECT_TRUE(HasError(auditor.AuditVectorPair(feat_true, truncated, "dim"),
                       "feature-dim"));
}

TEST(FeatureAuditorTest, DeadFeatureReport) {
  Forest forest;
  forest.num_features = kFeatureDim;
  TreeNode split;
  split.is_leaf = false;
  split.feature = 0;
  split.threshold = 10.0;
  split.left = 1;
  split.right = 2;
  TreeNode leaf;
  leaf.is_leaf = true;
  leaf.value = 1.0;
  forest.trees.push_back(Tree{{split, leaf, leaf}});

  const std::vector<std::string> dead = FeatureAuditor().DeadFeatures(forest);
  EXPECT_EQ(dead.size(), static_cast<size_t>(kFeatureDim - 1));
  const std::string used = FeatureRegistry::Get().def(0).name;
  for (const std::string& name : dead) EXPECT_NE(name, used);

  // Foreign feature spaces get no report (the names would be wrong).
  forest.num_features = 7;
  EXPECT_TRUE(FeatureAuditor().DeadFeatures(forest).empty());
}

// --- CorpusAuditor. ---

TEST(CorpusAuditorTest, MiniCorpusIsClean) {
  Corpus corpus;
  ASSERT_NO_FATAL_FAILURE(LoadMiniCorpus(&corpus));
  const AnalysisReport report =
      CorpusAuditor().Audit(corpus, "data/corpus_mini.txt");
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(CorpusAuditorTest, CatchesTamperedMedian) {
  Corpus corpus;
  ASSERT_NO_FATAL_FAILURE(LoadMiniCorpus(&corpus));
  corpus.records[0].median_seconds *= 2.0;
  const AnalysisReport report = CorpusAuditor().Audit(corpus, "");
  EXPECT_TRUE(HasError(report, "corpus-median")) << report.ToString();
}

TEST(CorpusAuditorTest, CatchesNegativeLabel) {
  Corpus corpus;
  ASSERT_NO_FATAL_FAILURE(LoadMiniCorpus(&corpus));
  corpus.records[1].median_seconds = -0.5;
  EXPECT_TRUE(
      HasError(CorpusAuditor().Audit(corpus, ""), "corpus-label"));
}

TEST(CorpusAuditorTest, CatchesTruncatedFeatureVector) {
  Corpus corpus;
  ASSERT_NO_FATAL_FAILURE(LoadMiniCorpus(&corpus));
  corpus.records[0].feat_est[0].values.resize(40);
  EXPECT_TRUE(HasError(CorpusAuditor().Audit(corpus, ""), "feature-dim"));
}

TEST(CorpusAuditorTest, CatchesTamperedStageCount) {
  Corpus corpus;
  ASSERT_NO_FATAL_FAILURE(LoadMiniCorpus(&corpus));
  const FeatureRegistry& registry = FeatureRegistry::Get();
  const int count_index = registry.StageFeature(0, FeatureKind::kCount);
  corpus.records[0].feat_true[0].values[static_cast<size_t>(count_index)] +=
      1.0;
  const AnalysisReport report = CorpusAuditor().Audit(corpus, "");
  // The extra scan shows up both against the recomputed decomposition and
  // against the untouched estimated-mode vector.
  EXPECT_TRUE(HasError(report, "corpus-count")) << report.ToString();
  EXPECT_TRUE(HasError(report, "feature-mode")) << report.ToString();
}

TEST(CorpusAuditorTest, FlagsDuplicateRecords) {
  Corpus corpus;
  ASSERT_NO_FATAL_FAILURE(LoadMiniCorpus(&corpus));
  QueryRecord copy = corpus.records[3];
  // Fresh timings: a duplicate is about (instance, plan, features), not
  // about identical measurements.
  for (double& v : copy.total_run_seconds) v *= 1.5;
  copy.median_seconds = Median(copy.total_run_seconds);
  corpus.records.push_back(copy);
  const AnalysisReport report = CorpusAuditor().Audit(corpus, "");
  EXPECT_TRUE(HasCheck(report, "corpus-duplicate", Severity::kWarning))
      << report.ToString();
  EXPECT_FALSE(report.HasErrors()) << report.ToString();
}

TEST(CorpusAuditorTest, DiagnosticsCarryPathAndLine) {
  Corpus corpus;
  ASSERT_NO_FATAL_FAILURE(LoadMiniCorpus(&corpus));
  corpus.records[0].median_seconds = -1.0;
  const AnalysisReport report =
      CorpusAuditor().Audit(corpus, "data/corpus_mini.txt");
  ASSERT_FALSE(report.empty());
  const std::string& message = report.diagnostics()[0].message;
  EXPECT_NE(message.find("data/corpus_mini.txt line "), std::string::npos)
      << message;
}

}  // namespace
}  // namespace t3
