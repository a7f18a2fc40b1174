// Round-trip and edge-case coverage for the columnar storage layer: empty
// tables, all-null columns, single-row tables, strings with embedded
// separators, stats idempotence, catalog lookups, checksum sensitivity.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "storage/checksum.h"
#include "storage/column.h"
#include "storage/column_stats.h"
#include "storage/table.h"
#include "storage/types.h"

namespace t3 {
namespace {

TEST(TypesTest, DateCivilRoundTrip) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DaysFromCivil(1969, 12, 31), -1);
  EXPECT_EQ(FormatDate(0), "1970-01-01");
  EXPECT_EQ(FormatDate(DaysFromCivil(2000, 2, 29)), "2000-02-29");
  // Round-trip across a wide range, including leap-century boundaries.
  for (int64_t days = -200000; days <= 200000; days += 373) {
    int y = 0, m = 0, d = 0;
    CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(DaysFromCivil(y, m, d), days);
  }
}

TEST(ColumnTest, AppendAndReadBack) {
  Column col("c", ColumnType::kInt64);
  col.AppendInt64(7);
  col.AppendNull();
  col.AppendInt64(-3);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.Int64At(0), 7);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_EQ(col.Int64At(2), -3);
}

TEST(ColumnTest, ResizeSetMatchesAppend) {
  Column appended("c", ColumnType::kFloat64);
  appended.AppendFloat64(1.5);
  appended.AppendNull();
  appended.AppendFloat64(-2.25);

  Column set("c", ColumnType::kFloat64);
  set.Resize(3);
  set.SetFloat64(0, 1.5);
  set.SetNull(1);
  set.SetFloat64(2, -2.25);

  EXPECT_EQ(ColumnChecksum(appended), ColumnChecksum(set));
}

TEST(ColumnTest, StringsWithEmbeddedSeparators) {
  const std::vector<std::string> values = {
      "plain",  "comma,inside",      "pipe|inside", "tab\tinside",
      "newline\ninside", "quote\"inside", " leading and trailing ", ""};
  Column col("s", ColumnType::kString);
  for (const std::string& v : values) col.AppendString(v);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(col.StringAt(i), values[i]);
  }

  // Separator bytes must flow into the checksum; "a,b" split differently from
  // {"a," "b"} must not collide thanks to length prefixing.
  Column a("s", ColumnType::kString);
  a.AppendString("a,");
  a.AppendString("b");
  Column b("s", ColumnType::kString);
  b.AppendString("a");
  b.AppendString(",b");
  EXPECT_NE(ColumnChecksum(a), ColumnChecksum(b));

  const ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.ndv, values.size());
  EXPECT_TRUE(stats.ndv_exact);
  EXPECT_EQ(stats.min_str, "");  // Empty string sorts first.
}

TEST(ColumnStatsTest, EmptyColumn) {
  Column col("c", ColumnType::kInt64);
  const ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.row_count, 0u);
  EXPECT_EQ(stats.null_count, 0u);
  EXPECT_FALSE(stats.has_range);
  EXPECT_EQ(stats.ndv, 0u);
  EXPECT_TRUE(stats.histogram_bounds.empty());
}

TEST(ColumnStatsTest, AllNullColumn) {
  Column col("c", ColumnType::kFloat64);
  for (int i = 0; i < 100; ++i) col.AppendNull();
  const ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.row_count, 100u);
  EXPECT_EQ(stats.null_count, 100u);
  EXPECT_DOUBLE_EQ(stats.null_fraction(), 1.0);
  EXPECT_FALSE(stats.has_range);
  EXPECT_EQ(stats.ndv, 0u);
  EXPECT_TRUE(stats.histogram_bounds.empty());
}

TEST(ColumnStatsTest, SingleRow) {
  Column col("c", ColumnType::kInt64);
  col.AppendInt64(42);
  const ColumnStats stats = ComputeColumnStats(col);
  EXPECT_TRUE(stats.has_range);
  EXPECT_EQ(stats.min_i64, 42);
  EXPECT_EQ(stats.max_i64, 42);
  EXPECT_EQ(stats.ndv, 1u);
  ASSERT_EQ(stats.histogram_bounds.size(), kNumHistogramBuckets + 1);
  EXPECT_DOUBLE_EQ(stats.histogram_bounds.front(), 42.0);
  EXPECT_DOUBLE_EQ(stats.histogram_bounds.back(), 42.0);
}

TEST(ColumnStatsTest, RecomputationIsIdempotent) {
  Column col("c", ColumnType::kInt64);
  for (int i = 0; i < 5000; ++i) {
    if (i % 7 == 0) {
      col.AppendNull();
    } else {
      col.AppendInt64(i % 123);
    }
  }
  const ColumnStats first = ComputeColumnStats(col);
  const ColumnStats second = ComputeColumnStats(col);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.ndv, 123u);  // Every residue survives the null thinning.
}

TEST(ColumnStatsTest, ExactNdvSmallAndEstimateLarge) {
  Column small("c", ColumnType::kInt64);
  for (int i = 0; i < 200; ++i) small.AppendInt64(i % 50);
  const ColumnStats small_stats = ComputeColumnStats(small);
  EXPECT_TRUE(small_stats.ndv_exact);
  EXPECT_EQ(small_stats.ndv, 50u);

  Column large("c", ColumnType::kInt64);
  for (int i = 0; i < 50000; ++i) large.AppendInt64(i);
  const ColumnStats large_stats = ComputeColumnStats(large);
  EXPECT_FALSE(large_stats.ndv_exact);
  // KMV with k=256 should land within ~20% on 50k distinct values.
  EXPECT_GT(large_stats.ndv, 40000u);
  EXPECT_LT(large_stats.ndv, 60000u);
}

TEST(ColumnStatsTest, EquiDepthHistogramBoundsAreQuantiles) {
  Column col("c", ColumnType::kFloat64);
  for (int i = 0; i <= 1600; ++i) col.AppendFloat64(i);
  const ColumnStats stats = ComputeColumnStats(col);
  ASSERT_EQ(stats.histogram_bounds.size(), kNumHistogramBuckets + 1);
  EXPECT_DOUBLE_EQ(stats.histogram_bounds.front(), 0.0);
  EXPECT_DOUBLE_EQ(stats.histogram_bounds.back(), 1600.0);
  EXPECT_DOUBLE_EQ(stats.histogram_bounds[8], 800.0);  // Median.
}

TEST(TableTest, EmptyTable) {
  Table table("empty");
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_EQ(table.num_columns(), 0u);
  table.ComputeStats();
  EXPECT_TRUE(table.stats().empty());
  EXPECT_NE(TableChecksum(table), 0u);
}

TEST(TableTest, FindColumnAndStats) {
  Table table("t");
  Column& a = table.AddColumn("a", ColumnType::kInt64);
  a.AppendInt64(1);
  a.AppendInt64(2);
  Column& b = table.AddColumn("b", ColumnType::kString);
  b.AppendString("x");
  b.AppendNull();
  EXPECT_EQ(table.num_rows(), 2u);

  Result<const Column*> found = table.FindColumn("b");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->name(), "b");
  EXPECT_EQ(table.FindColumn("zzz").status().code(), StatusCode::kNotFound);

  table.ComputeStats();
  ASSERT_EQ(table.stats().size(), 2u);
  EXPECT_EQ(table.stats()[1].null_count, 1u);
}

TEST(CatalogTest, AddFindAndNames) {
  Catalog catalog;
  catalog.AddTable("t1");
  catalog.AddTable("t2");
  EXPECT_EQ(catalog.num_tables(), 2u);
  EXPECT_TRUE(catalog.FindTable("t1").ok());
  EXPECT_EQ(catalog.FindTable("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"t1", "t2"}));
}

TEST(ChecksumTest, SensitiveToValueNullsAndOrder) {
  Column base("c", ColumnType::kInt64);
  base.AppendInt64(1);
  base.AppendInt64(2);

  Column value_changed("c", ColumnType::kInt64);
  value_changed.AppendInt64(1);
  value_changed.AppendInt64(3);
  EXPECT_NE(ColumnChecksum(base), ColumnChecksum(value_changed));

  Column null_changed("c", ColumnType::kInt64);
  null_changed.AppendInt64(1);
  null_changed.AppendInt64(2);
  null_changed.SetNull(1);  // Same buffer values, one extra null bit.
  EXPECT_NE(ColumnChecksum(base), ColumnChecksum(null_changed));

  Column reordered("c", ColumnType::kInt64);
  reordered.AppendInt64(2);
  reordered.AppendInt64(1);
  EXPECT_NE(ColumnChecksum(base), ColumnChecksum(reordered));

  // A NULL row (placeholder 0) must differ from an actual 0.
  Column null_row("c", ColumnType::kInt64);
  null_row.AppendNull();
  Column zero_row("c", ColumnType::kInt64);
  zero_row.AppendInt64(0);
  EXPECT_NE(ColumnChecksum(null_row), ColumnChecksum(zero_row));
}

}  // namespace
}  // namespace t3
