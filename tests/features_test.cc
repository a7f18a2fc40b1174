#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "datagen/generator.h"
#include "datagen/spec.h"
#include "features/feature_registry.h"
#include "features/featurizer.h"
#include "features/stage_catalog.h"
#include "plan/pipeline.h"
#include "plan/plan.h"

namespace t3 {
namespace {

// The corpus stores feature vectors by index only, so the index <-> name
// assignment is part of the persistent format: any change silently
// reinterprets every stored corpus and trained model. This golden list pins
// all 48 assignments; changing the registry means regenerating corpora and
// models, and this test must be updated deliberately in the same commit.
TEST(FeatureRegistryTest, GoldenIndexNameAssignments) {
  const char* const kExpected[] = {
      // clang-format off
      "TableScan_Scan_count",            // 0
      "TableScan_Scan_in_card",          // 1
      "TableScan_Scan_in_size",          // 2
      "Filter_PassThrough_count",        // 3
      "Filter_PassThrough_in_percentage",   // 4
      "Filter_PassThrough_out_percentage",  // 5
      "Project_PassThrough_count",       // 6
      "Project_PassThrough_in_percentage",  // 7
      "HashJoin_Probe_count",            // 8
      "HashJoin_Probe_in_percentage",    // 9
      "HashJoin_Probe_right_percentage", // 10
      "HashJoin_Probe_out_percentage",   // 11
      "HashJoin_Probe_out_card",         // 12
      "HashJoin_Probe_out_size",         // 13
      "HashJoin_Build_count",            // 14
      "HashJoin_Build_in_percentage",    // 15
      "HashJoin_Build_in_card",          // 16
      "HashJoin_Build_in_size",          // 17
      "GroupBy_Build_count",             // 18
      "GroupBy_Build_in_percentage",     // 19
      "GroupBy_Build_out_percentage",    // 20
      "GroupBy_Build_out_card",          // 21
      "GroupBy_Scan_count",              // 22
      "GroupBy_Scan_in_card",            // 23
      "GroupBy_Scan_in_size",            // 24
      "Sort_Build_count",                // 25
      "Sort_Build_in_percentage",        // 26
      "Sort_Build_in_card",              // 27
      "Sort_Build_in_size",              // 28
      "Sort_Scan_count",                 // 29
      "Sort_Scan_in_card",               // 30
      "Sort_Scan_in_size",               // 31
      "Limit_PassThrough_count",         // 32
      "Limit_PassThrough_out_percentage",   // 33
      "Limit_PassThrough_out_card",      // 34
      "Output_Sink_count",               // 35
      "Output_Sink_in_percentage",       // 36
      "Output_Sink_out_card",            // 37
      "Output_Sink_out_size",            // 38
      "Pred_eq_int_percentage",          // 39
      "Pred_eq_float_percentage",        // 40
      "Pred_eq_date_percentage",         // 41
      "Pred_neq_int_percentage",         // 42
      "Pred_neq_float_percentage",       // 43
      "Pred_neq_date_percentage",        // 44
      "Pred_range_int_percentage",       // 45
      "Pred_range_float_percentage",     // 46
      "Pred_range_date_percentage",      // 47
      // clang-format on
  };
  const FeatureRegistry& registry = FeatureRegistry::Get();
  ASSERT_EQ(registry.num_features(), kFeatureDim);
  ASSERT_EQ(static_cast<int>(std::size(kExpected)), kFeatureDim);
  for (int i = 0; i < kFeatureDim; ++i) {
    EXPECT_EQ(registry.def(i).name, kExpected[i]) << "index " << i;
    EXPECT_EQ(registry.FindByName(kExpected[i]), i) << kExpected[i];
  }
}

TEST(FeatureRegistryTest, StageAndPredLookupsAgreeWithDefs) {
  const FeatureRegistry& registry = FeatureRegistry::Get();
  for (int i = 0; i < registry.num_features(); ++i) {
    const FeatureDef& def = registry.def(i);
    if (def.kind == FeatureKind::kPredicatePercentage) {
      EXPECT_EQ(registry.PredFeature(def.pred_slot), i);
    } else {
      EXPECT_EQ(registry.StageFeature(def.stage, def.kind), i);
    }
  }
  // Absent (stage, kind) pairs report -1, e.g. a scan has no out_card.
  const int scan = StageIndexOf(PlanOp::kScan, OpStage::kScan);
  ASSERT_GE(scan, 0);
  EXPECT_EQ(registry.StageFeature(scan, FeatureKind::kOutCard), -1);
}

TEST(StageCatalogTest, PredicateClassSlots) {
  // 3 classes x 3 column types; strings carry no predicate feature.
  EXPECT_EQ(PredClassSlot(CompareOp::kEq, ColumnType::kInt64), 0);
  EXPECT_EQ(PredClassSlot(CompareOp::kNe, ColumnType::kFloat64), 4);
  EXPECT_EQ(PredClassSlot(CompareOp::kLt, ColumnType::kDate), 8);
  EXPECT_EQ(PredClassSlot(CompareOp::kGe, ColumnType::kInt64), 6);
  EXPECT_EQ(PredClassSlot(CompareOp::kEq, ColumnType::kString), -1);
}

// A small generated instance backing the featurizer tests below.
const Catalog& TestCatalog() {
  static const Catalog* catalog = []() {
    Result<const InstanceSpec*> spec = FindInstance("tpch_sf0");
    T3_CHECK_OK(spec);
    DatagenOptions options;
    options.scale_override = 0.05;
    Result<Catalog> generated = GenerateInstance(**spec, options);
    T3_CHECK_OK(generated);
    return new Catalog(*std::move(generated));
  }();
  return *catalog;
}

std::vector<PipelineFeatures> Featurize(const PhysicalPlan& plan) {
  Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
  T3_CHECK_OK(decomposition);
  Result<std::vector<PipelineFeatures>> features = ComputePipelineFeatures(
      TestCatalog(), plan, *decomposition, NodeOutputRowsFromPlan(plan));
  T3_CHECK_OK(features);
  return *features;
}

int Index(const char* name) {
  const int index = FeatureRegistry::Get().FindByName(name);
  T3_CHECK(index >= 0);
  return index;
}

int ColIndex(const Table& table, const std::string& name) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).name() == name) return static_cast<int>(c);
  }
  T3_CHECK(false);
  return -1;
}

TEST(FeaturizerTest, ScanFilterOutputPipeline) {
  const Catalog& catalog = TestCatalog();
  PlanBuilder b(&catalog);
  Result<int> scan = b.Scan("lineitem");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  Result<const Table*> lineitem = catalog.FindTable("lineitem");
  ASSERT_TRUE(lineitem.ok());
  const int qty = ColIndex(**lineitem, "l_qty");
  Result<int> filter = b.Filter(*scan, {{qty, CompareOp::kLt, 10.0}});
  ASSERT_TRUE(filter.ok());
  Result<PhysicalPlan> plan = b.Output(*filter);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const auto features = Featurize(*plan);
  ASSERT_EQ(features.size(), 1u);
  const PipelineFeatures& f = features[0];
  const double rows = static_cast<double>((*lineitem)->num_rows());
  EXPECT_EQ(f.input_cardinality, rows);
  ASSERT_EQ(f.values.size(), static_cast<size_t>(kFeatureDim));
  EXPECT_EQ(f.values[Index("TableScan_Scan_count")], 1.0);
  EXPECT_EQ(f.values[Index("TableScan_Scan_in_card")], rows);
  EXPECT_EQ(f.values[Index("Filter_PassThrough_count")], 1.0);
  EXPECT_EQ(f.values[Index("Filter_PassThrough_in_percentage")], 1.0);
  // The builder's default filter estimate: 1/3 per conjunct.
  EXPECT_NEAR(f.values[Index("Filter_PassThrough_out_percentage")], 1.0 / 3,
              1e-2);
  // l_qty is an integer column under a range comparison.
  EXPECT_GT(f.values[Index("Pred_range_int_percentage")], 0.0);
  EXPECT_EQ(f.values[Index("Pred_eq_int_percentage")], 0.0);
  EXPECT_EQ(f.values[Index("Output_Sink_count")], 1.0);
}

TEST(FeaturizerTest, DuplicateStagesAddTheirContributions) {
  const Catalog& catalog = TestCatalog();
  PlanBuilder b(&catalog);
  Result<int> scan = b.Scan("lineitem");
  ASSERT_TRUE(scan.ok());
  Result<const Table*> lineitem = catalog.FindTable("lineitem");
  ASSERT_TRUE(lineitem.ok());
  const int qty = ColIndex(**lineitem, "l_qty");
  Result<int> f1 = b.Filter(*scan, {{qty, CompareOp::kLt, 30.0}});
  ASSERT_TRUE(f1.ok());
  Result<int> f2 = b.Filter(*f1, {{qty, CompareOp::kGt, 5.0}});
  ASSERT_TRUE(f2.ok());
  Result<PhysicalPlan> plan = b.Output(*f2);
  ASSERT_TRUE(plan.ok());

  const auto features = Featurize(*plan);
  ASSERT_EQ(features.size(), 1u);
  const PipelineFeatures& f = features[0];
  // Two filter occurrences in one pipeline: counts and percentages add
  // (Listing 1's += on repeated stages).
  EXPECT_EQ(f.values[Index("Filter_PassThrough_count")], 2.0);
  // in% of the first filter is 1.0, of the second ~1/3.
  EXPECT_NEAR(f.values[Index("Filter_PassThrough_in_percentage")], 4.0 / 3,
              1e-2);
  EXPECT_EQ(f.values[Index("Pred_eq_int_percentage")], 0.0);
  EXPECT_GT(f.values[Index("Pred_range_int_percentage")], 1.0);
}

TEST(FeaturizerTest, JoinAndAggregatePipelinesCarryStageFeatures) {
  const Catalog& catalog = TestCatalog();
  PlanBuilder b(&catalog);
  Result<int> lineitem = b.Scan("lineitem");
  ASSERT_TRUE(lineitem.ok());
  Result<int> orders = b.Scan("orders");
  ASSERT_TRUE(orders.ok());
  Result<const Table*> li = catalog.FindTable("lineitem");
  Result<const Table*> ord = catalog.FindTable("orders");
  ASSERT_TRUE(li.ok());
  ASSERT_TRUE(ord.ok());
  const int l_order = ColIndex(**li, "l_order");
  const int o_id = ColIndex(**ord, "o_id");
  Result<int> join = b.HashJoin(*lineitem, *orders, {l_order}, {o_id});
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  Result<int> agg = b.HashAggregate(*join, {l_order},
                                    {{AggFunc::kCountStar, -1}});
  ASSERT_TRUE(agg.ok());
  Result<PhysicalPlan> plan = b.Output(*agg);
  ASSERT_TRUE(plan.ok());

  const auto features = Featurize(*plan);
  // Build-side pipeline, probe+agg-build pipeline, agg-scan+output pipeline.
  ASSERT_EQ(features.size(), 3u);
  double build_count = 0, probe_count = 0, groupby_scan = 0;
  for (const PipelineFeatures& f : features) {
    build_count += f.values[Index("HashJoin_Build_count")];
    probe_count += f.values[Index("HashJoin_Probe_count")];
    groupby_scan += f.values[Index("GroupBy_Scan_count")];
  }
  EXPECT_EQ(build_count, 1.0);
  EXPECT_EQ(probe_count, 1.0);
  EXPECT_EQ(groupby_scan, 1.0);
  // The probe pipeline's right_percentage is build rows / driving rows.
  bool found_probe = false;
  for (const PipelineFeatures& f : features) {
    if (f.values[Index("HashJoin_Probe_count")] == 0.0) continue;
    found_probe = true;
    const double right = f.values[Index("HashJoin_Probe_right_percentage")];
    EXPECT_NEAR(right,
                static_cast<double>((*ord)->num_rows()) /
                    static_cast<double>((*li)->num_rows()),
                1e-9);
  }
  EXPECT_TRUE(found_probe);
}

TEST(FeaturizerTest, RejectsMismatchedCardinalityVector) {
  const Catalog& catalog = TestCatalog();
  PlanBuilder b(&catalog);
  Result<int> scan = b.Scan("lineitem");
  ASSERT_TRUE(scan.ok());
  Result<PhysicalPlan> plan = b.Output(*scan);
  ASSERT_TRUE(plan.ok());
  Result<PipelineDecomposition> decomposition = DecomposePipelines(*plan);
  ASSERT_TRUE(decomposition.ok());
  Result<std::vector<PipelineFeatures>> features =
      ComputePipelineFeatures(catalog, *plan, *decomposition, {1.0});
  EXPECT_FALSE(features.ok());
}

}  // namespace
}  // namespace t3
