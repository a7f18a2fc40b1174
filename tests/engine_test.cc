// Cross-checks the vectorized executor against scalar reference
// computations: NULL semantics on a hand-built table, strings and NULLs
// through every copying operator, filter/aggregate and join/sort queries
// over generated datagen instances, and the ExplainAnalyze invariants
// (per-pipeline times sum to ~total, operator tuple counts match the data).
// A digest over the generator's full query mix pins results bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "datagen/spec.h"
#include "common/hash.h"
#include "engine/executor.h"
#include "plan/pipeline.h"
#include "plan/plan.h"
#include "querygen/querygen.h"
#include "querygen/suites.h"
#include "storage/catalog.h"

namespace t3 {
namespace {

Catalog GenerateSmall(const std::string& instance) {
  Result<const InstanceSpec*> spec = FindInstance(instance);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  DatagenOptions options;
  options.seed = 42;
  options.scale_override = 0.05;
  Result<Catalog> catalog = GenerateInstance(**spec, options);
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  return *std::move(catalog);
}

const Table& LargestTable(const Catalog& catalog) {
  size_t best = 0;
  for (size_t t = 1; t < catalog.num_tables(); ++t) {
    if (catalog.table(t).num_rows() > catalog.table(best).num_rows()) {
      best = t;
    }
  }
  return catalog.table(best);
}

/// First column of an integer-backed / float64 type, or -1.
int FindColumnOfType(const Table& table, bool want_float) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ColumnType type = table.column(c).type();
    if (want_float ? type == ColumnType::kFloat64 : IsIntegerBacked(type)) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

double NumericValueAt(const Column& column, size_t row) {
  return column.type() == ColumnType::kFloat64
             ? column.Float64At(row)
             : static_cast<double>(column.Int64At(row));
}

/// Group key for the scalar reference: NULL is its own group.
using RefKey = std::optional<int64_t>;

TEST(EngineTest, NullSemanticsOnHandBuiltTable) {
  // Each column is filled before the next AddColumn call: AddColumn returns
  // a reference that a later AddColumn may invalidate.
  Catalog catalog;
  Table& t = catalog.AddTable("t");
  Column& k = t.AddColumn("k", ColumnType::kInt64);
  k.AppendInt64(1);
  k.AppendNull();
  k.AppendInt64(1);
  k.AppendInt64(2);
  k.AppendNull();
  Column& v = t.AddColumn("v", ColumnType::kFloat64);
  v.AppendFloat64(1.5);
  v.AppendFloat64(2.5);
  v.AppendNull();
  v.AppendFloat64(4.0);
  v.AppendFloat64(5.0);

  PlanBuilder builder(&catalog);
  const int scan = *builder.Scan("t");
  const int agg = *builder.HashAggregate(
      scan, {0},
      {{AggFunc::kCountStar, -1}, {AggFunc::kCount, 1}, {AggFunc::kSum, 1}});
  const PhysicalPlan plan = *builder.Output(agg);

  const Executor executor(catalog);
  Result<ExplainAnalyze> run = executor.Execute(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const DataChunk& result = run->result;
  ASSERT_EQ(result.num_rows, 3u);  // Groups 1, 2, and NULL.

  std::map<RefKey, std::pair<int64_t, std::pair<int64_t, double>>> got;
  for (size_t r = 0; r < result.num_rows; ++r) {
    RefKey key;
    if (!result.columns[0].IsNull(r)) key = result.columns[0].i64[r];
    got[key] = {result.columns[1].i64[r],
                {result.columns[2].i64[r], result.columns[3].f64[r]}};
  }
  // count(*) counts rows; count(v) and sum(v) skip NULL inputs.
  EXPECT_EQ(got[RefKey{1}].first, 2);
  EXPECT_EQ(got[RefKey{1}].second.first, 1);
  EXPECT_DOUBLE_EQ(got[RefKey{1}].second.second, 1.5);
  EXPECT_EQ(got[RefKey{2}].first, 1);
  EXPECT_DOUBLE_EQ(got[RefKey{2}].second.second, 4.0);
  EXPECT_EQ(got[RefKey{}].first, 2);
  EXPECT_EQ(got[RefKey{}].second.first, 2);
  EXPECT_DOUBLE_EQ(got[RefKey{}].second.second, 7.5);
}

TEST(EngineTest, JoinSkipsNullKeysOnBothSides) {
  Catalog catalog;
  Table& dim = catalog.AddTable("dim");
  Column& d_k = dim.AddColumn("k", ColumnType::kInt64);
  d_k.AppendInt64(1);
  d_k.AppendInt64(2);
  d_k.AppendNull();
  Table& fact = catalog.AddTable("fact");
  Column& f_k = fact.AddColumn("k", ColumnType::kInt64);
  f_k.AppendInt64(1);
  f_k.AppendNull();
  f_k.AppendInt64(2);
  f_k.AppendInt64(1);

  PlanBuilder builder(&catalog);
  const int probe = *builder.Scan("fact");
  const int build = *builder.Scan("dim");
  const int join = *builder.HashJoin(probe, build, {0}, {0});
  const PhysicalPlan plan = *builder.Output(join);

  const Executor executor(catalog);
  Result<ExplainAnalyze> run = executor.Execute(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // NULL keys never match: rows 0, 2, 3 of fact match, NULLs drop out.
  EXPECT_EQ(run->result_rows(), 3u);
  EXPECT_EQ(run->operators[static_cast<size_t>(join)].rows_out, 3u);
}

/// One value of a hand-built string/NULL table, for scalar references.
struct RefCell {
  bool null = false;
  int64_t i64 = 0;
  double f64 = 0.0;
  std::string str;
  /// A non-NULL string cell's storage bytes (Column::StringAt's data()).
  const char* data = nullptr;
};

RefCell CellAt(const Column& column, size_t row) {
  RefCell cell;
  cell.null = column.IsNull(row);
  if (cell.null) return cell;
  switch (column.type()) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
      cell.i64 = column.Int64At(row);
      break;
    case ColumnType::kFloat64:
      cell.f64 = column.Float64At(row);
      break;
    case ColumnType::kString:
      cell.str = column.StringAt(row);
      cell.data = column.StringAt(row).data();
      break;
  }
  return cell;
}

/// Asserts that row `row` of `got` holds `want`, including the zero/empty
/// placeholder a NULL row carries.
void ExpectCell(const ColumnVector& got, size_t row, const RefCell& want) {
  ASSERT_EQ(got.IsNull(row), want.null) << row;
  switch (got.type) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
      EXPECT_EQ(got.i64[row], want.i64) << row;
      break;
    case ColumnType::kFloat64:
      EXPECT_EQ(got.f64[row], want.f64) << row;
      break;
    case ColumnType::kString:
      EXPECT_EQ(got.str[row], want.str) << row;
      break;
  }
}

/// fact(k int64, s string, v float64) over several morsels and
/// dim(k int64, name string) with a duplicate and a NULL key. Both string
/// columns hold NULLs and empty strings.
Catalog StringCatalog() {
  constexpr size_t kFactRows = 2500;
  Catalog catalog;
  Table& fact = catalog.AddTable("fact");
  Column& k = fact.AddColumn("k", ColumnType::kInt64);
  for (size_t i = 0; i < kFactRows; ++i) {
    if (i % 11 == 0) {
      k.AppendNull();
    } else {
      k.AppendInt64(static_cast<int64_t>(i % 7));
    }
  }
  Column& s = fact.AddColumn("s", ColumnType::kString);
  for (size_t i = 0; i < kFactRows; ++i) {
    if (i % 5 == 0) {
      s.AppendNull();
    } else if (i % 3 == 0) {
      s.AppendString("");
    } else {
      std::string value = "s";
      value += std::to_string(i % 13);
      s.AppendString(value);
    }
  }
  Column& v = fact.AddColumn("v", ColumnType::kFloat64);
  for (size_t i = 0; i < kFactRows; ++i) {
    if (i % 17 == 0) {
      v.AppendNull();
    } else {
      v.AppendFloat64(static_cast<double>(i % 100) * 0.5);
    }
  }
  Table& dim = catalog.AddTable("dim");
  Column& d_k = dim.AddColumn("k", ColumnType::kInt64);
  for (int64_t key : {0, 1, 2, 3, 2, 5, -1}) {
    if (key < 0) {
      d_k.AppendNull();
    } else {
      d_k.AppendInt64(key);
    }
  }
  Column& name = dim.AddColumn("name", ColumnType::kString);
  name.AppendString("zero");
  name.AppendNull();
  name.AppendString("");
  name.AppendString("three");
  name.AppendString("two-b");
  name.AppendNull();
  name.AppendString("orphan");
  return catalog;
}

/// Scalar reference for scan(fact) -> filter(v < threshold) ->
/// join(fact.k = dim.k): probe rows in order, build rows ascending.
std::vector<std::vector<RefCell>> ReferenceJoin(const Catalog& catalog,
                                                double threshold) {
  const Table& fact = **catalog.FindTable("fact");
  const Table& dim = **catalog.FindTable("dim");
  std::vector<std::vector<RefCell>> rows;
  for (size_t f = 0; f < fact.num_rows(); ++f) {
    const RefCell v = CellAt(fact.column(2), f);
    if (v.null || !(v.f64 < threshold)) continue;
    const RefCell key = CellAt(fact.column(0), f);
    if (key.null) continue;
    for (size_t d = 0; d < dim.num_rows(); ++d) {
      const RefCell build_key = CellAt(dim.column(0), d);
      if (build_key.null || build_key.i64 != key.i64) continue;
      rows.push_back({CellAt(fact.column(0), f), CellAt(fact.column(1), f), v,
                      build_key, CellAt(dim.column(1), d)});
    }
  }
  return rows;
}

/// Three-way order of two cells of one string column: NULL after every
/// value.
int CompareStrings(const RefCell& a, const RefCell& b) {
  if (a.null || b.null) return (a.null ? 1 : 0) - (b.null ? 1 : 0);
  return a.str < b.str ? -1 : (a.str == b.str ? 0 : 1);
}

/// ReferenceJoin sorted by dim.name ascending, then fact.s descending; NULLs
/// after every value ascending and before it descending; ties keep input
/// order.
std::vector<std::vector<RefCell>> ReferenceSortedJoin(const Catalog& catalog,
                                                      double threshold) {
  std::vector<std::vector<RefCell>> rows = ReferenceJoin(catalog, threshold);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const std::vector<RefCell>& a,
                      const std::vector<RefCell>& b) {
                     const int by_name = CompareStrings(a[4], b[4]);
                     if (by_name != 0) return by_name < 0;
                     return CompareStrings(a[1], b[1]) > 0;
                   });
  return rows;
}

/// scan(fact) -> filter(v < threshold) -> join(fact.k = dim.k) ->
/// sort(dim.name asc, fact.s desc), the plan ReferenceSortedJoin mirrors;
/// returns the sort's node id.
int BuildSortedJoin(PlanBuilder* builder, double threshold) {
  const int probe = *builder->Scan("fact");
  const int filter =
      *builder->Filter(probe, {{2, CompareOp::kLt, threshold}});
  const int build = *builder->Scan("dim");
  const int join = *builder->HashJoin(filter, build, {0}, {0});
  return *builder->Sort(join, {{4, true}, {1, false}});
}

/// Runs `plan` and asserts that its result holds `expected`: row count,
/// column count, and every cell and NULL placeholder. `expected` must hold
/// a row, which fixes the column count.
void ExpectResult(const Catalog& catalog, const PhysicalPlan& plan,
                  const std::vector<std::vector<RefCell>>& expected) {
  const Executor executor(catalog);
  Result<ExplainAnalyze> run = executor.Execute(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const DataChunk& result = run->result;
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(result.num_rows, expected.size());
  ASSERT_EQ(result.columns.size(), expected[0].size());
  for (size_t c = 0; c < result.columns.size(); ++c) {
    SCOPED_TRACE(c);
    ASSERT_EQ(result.columns[c].size(), result.num_rows);
    for (size_t r = 0; r < result.num_rows; ++r) {
      ASSERT_EQ(expected[r].size(), result.columns.size());
      ExpectCell(result.columns[c], r, expected[r][c]);
    }
  }
}

TEST(EngineTest, StringsAndNullsFlowThroughEveryOperator) {
  const Catalog catalog = StringCatalog();
  constexpr double kThreshold = 40.0;
  constexpr int64_t kLimit = 300;
  std::vector<std::vector<RefCell>> expected =
      ReferenceSortedJoin(catalog, kThreshold);
  ASSERT_GT(expected.size(), static_cast<size_t>(kLimit));
  expected.resize(static_cast<size_t>(kLimit));

  PlanBuilder builder(&catalog);
  const int sort = BuildSortedJoin(&builder, kThreshold);
  const int limit = *builder.Limit(sort, kLimit);
  const PhysicalPlan plan = *builder.Output(limit);
  ASSERT_EQ(builder.schema(limit).size(), 5u);
  ASSERT_EQ(expected[0].size(), 5u);  // ExpectResult checks the result's.
  ExpectResult(catalog, plan, expected);
}

TEST(EngineTest, StringMinMaxMatchesScalarReference) {
  const Catalog catalog = StringCatalog();
  constexpr double kThreshold = 1e9;  // Keeps every non-NULL v.
  const std::vector<std::vector<RefCell>> joined =
      ReferenceJoin(catalog, kThreshold);

  // Groups on fact.k in first-seen order; min/max skip NULL inputs and
  // yield NULL for a group that saw none.
  struct RefGroup {
    int64_t key = 0;
    std::optional<std::string> min_s, max_s, min_name, max_name;
  };
  std::vector<RefGroup> expected;
  auto fold = [](const RefCell& cell, std::optional<std::string>* min,
                 std::optional<std::string>* max) {
    if (cell.null) return;
    if (!min->has_value() || cell.str < **min) *min = cell.str;
    if (!max->has_value() || cell.str > **max) *max = cell.str;
  };
  for (const std::vector<RefCell>& row : joined) {
    auto it = std::find_if(expected.begin(), expected.end(),
                           [&](const RefGroup& g) {
                             return g.key == row[0].i64;
                           });
    if (it == expected.end()) {
      expected.push_back(RefGroup{row[0].i64, {}, {}, {}, {}});
      it = expected.end() - 1;
    }
    fold(row[1], &it->min_s, &it->max_s);
    fold(row[4], &it->min_name, &it->max_name);
  }

  PlanBuilder builder(&catalog);
  const int probe = *builder.Scan("fact");
  const int filter =
      *builder.Filter(probe, {{2, CompareOp::kLt, kThreshold}});
  const int build = *builder.Scan("dim");
  const int join = *builder.HashJoin(filter, build, {0}, {0});
  const int agg = *builder.HashAggregate(
      join, {0},
      {{AggFunc::kMin, 1}, {AggFunc::kMax, 1}, {AggFunc::kMin, 4},
       {AggFunc::kMax, 4}});
  const PhysicalPlan plan = *builder.Output(agg);

  const Executor executor(catalog);
  Result<ExplainAnalyze> run = executor.Execute(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const DataChunk& result = run->result;
  ASSERT_EQ(result.num_rows, expected.size());
  auto as_cell = [](const std::optional<std::string>& value) {
    RefCell cell;
    cell.null = !value.has_value();
    if (value.has_value()) cell.str = *value;
    return cell;
  };
  for (size_t g = 0; g < expected.size(); ++g) {
    SCOPED_TRACE(g);
    EXPECT_EQ(result.columns[0].i64[g], expected[g].key);
    ExpectCell(result.columns[1], g, as_cell(expected[g].min_s));
    ExpectCell(result.columns[2], g, as_cell(expected[g].max_s));
    ExpectCell(result.columns[3], g, as_cell(expected[g].min_name));
    ExpectCell(result.columns[4], g, as_cell(expected[g].max_name));
  }
}

/// `rows` with each row replaced by its cells at `columns`, in that order.
std::vector<std::vector<RefCell>> SelectCells(
    const std::vector<std::vector<RefCell>>& rows,
    const std::vector<size_t>& columns) {
  std::vector<std::vector<RefCell>> out;
  for (const std::vector<RefCell>& row : rows) {
    std::vector<RefCell> cells;
    for (size_t c : columns) cells.push_back(row[c]);
    out.push_back(std::move(cells));
  }
  return out;
}

/// The one-row result of min(fact.s), max(fact.s): each the first row
/// holding the extreme value, NULL inputs skipped.
std::vector<std::vector<RefCell>> ReferenceMinMaxOfS(const Catalog& catalog) {
  const Table& fact = **catalog.FindTable("fact");
  RefCell min, max;
  min.null = max.null = true;
  for (size_t f = 0; f < fact.num_rows(); ++f) {
    const RefCell s = CellAt(fact.column(1), f);
    if (s.null) continue;
    if (min.null || s.str < min.str) min = s;
    if (max.null || s.str > max.str) max = s;
  }
  return {{min, max}};
}

TEST(EngineTest, UnreadColumnsDoNotChangeResults) {
  // Plans in which some operator's input columns are read by no later
  // operator. The executor never materializes those columns; the results
  // must still match the scalar reference cell for cell.
  const Catalog catalog = StringCatalog();
  const Table& fact = **catalog.FindTable("fact");
  std::vector<std::vector<RefCell>> fact_rows;  // k, s, v.
  for (size_t f = 0; f < fact.num_rows(); ++f) {
    fact_rows.push_back({CellAt(fact.column(0), f), CellAt(fact.column(1), f),
                         CellAt(fact.column(2), f)});
  }
  constexpr double kThreshold = 40.0;

  {
    SCOPED_TRACE("filter on a column a later project drops");
    std::vector<std::vector<RefCell>> kept;
    for (const std::vector<RefCell>& row : fact_rows) {
      if (!row[2].null && row[2].f64 < kThreshold) kept.push_back(row);
    }
    PlanBuilder builder(&catalog);
    const int scan = *builder.Scan("fact");
    const int filter = *builder.Filter(scan, {{2, CompareOp::kLt, kThreshold}});
    const int project = *builder.Project(filter, {1, 0});
    ExpectResult(catalog, *builder.Output(project), SelectCells(kept, {1, 0}));
  }
  {
    SCOPED_TRACE("join whose key columns are projected away");
    PlanBuilder builder(&catalog);
    const int probe = *builder.Scan("fact");
    const int filter =
        *builder.Filter(probe, {{2, CompareOp::kLt, kThreshold}});
    const int build = *builder.Scan("dim");
    const int join = *builder.HashJoin(filter, build, {0}, {0});
    const int project = *builder.Project(join, {4, 1});
    ExpectResult(catalog, *builder.Output(project),
                 SelectCells(ReferenceJoin(catalog, kThreshold), {4, 1}));
  }
  {
    SCOPED_TRACE("project that repeats and reorders columns");
    PlanBuilder builder(&catalog);
    const int scan = *builder.Scan("fact");
    const int project = *builder.Project(scan, {2, 1, 2, 0});
    ExpectResult(catalog, *builder.Output(project),
                 SelectCells(fact_rows, {2, 1, 2, 0}));
    // Over it, a project that reads neither copy of v.
    const int scan2 = *builder.Scan("fact");
    const int wide = *builder.Project(scan2, {2, 1, 2, 0});
    const int narrow = *builder.Project(wide, {3, 1, 1});
    ExpectResult(catalog, *builder.Output(narrow),
                 SelectCells(fact_rows, {0, 1, 1}));
  }
  {
    SCOPED_TRACE("sort whose key is projected away after it");
    constexpr size_t kLimit = 700;
    // v descending: NULLs first, ties in input order.
    std::vector<std::vector<RefCell>> sorted = fact_rows;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const std::vector<RefCell>& a,
                        const std::vector<RefCell>& b) {
                       if (a[2].null || b[2].null) return a[2].null > b[2].null;
                       return a[2].f64 > b[2].f64;
                     });
    sorted.resize(kLimit);
    PlanBuilder builder(&catalog);
    const int scan = *builder.Scan("fact");
    const int sort = *builder.Sort(scan, {{2, false}});
    const int limit = *builder.Limit(sort, static_cast<int64_t>(kLimit));
    const int project = *builder.Project(limit, {1, 0});
    ExpectResult(catalog, *builder.Output(project),
                 SelectCells(sorted, {1, 0}));
  }
  {
    SCOPED_TRACE("count(*) over a scan none of whose columns are read");
    RefCell count;
    count.i64 = static_cast<int64_t>(fact.num_rows());
    PlanBuilder builder(&catalog);
    const int scan = *builder.Scan("fact");
    const int agg =
        *builder.HashAggregate(scan, {}, {{AggFunc::kCountStar, -1}});
    ExpectResult(catalog, *builder.Output(agg), {{count}});
  }
  {
    SCOPED_TRACE("string min/max whose input only the aggregate reads");
    PlanBuilder builder(&catalog);
    const int scan = *builder.Scan("fact");
    const int agg = *builder.HashAggregate(
        scan, {}, {{AggFunc::kMin, 1}, {AggFunc::kMax, 1}});
    ExpectResult(catalog, *builder.Output(agg), ReferenceMinMaxOfS(catalog));
  }
}

/// Asserts that every non-NULL string cell of `got` points at the storage
/// bytes of the reference cell it came from.
void ExpectStorageViews(const DataChunk& got,
                        const std::vector<std::vector<RefCell>>& expected) {
  ASSERT_EQ(got.num_rows, expected.size());
  size_t checked = 0;
  for (size_t c = 0; c < got.columns.size(); ++c) {
    const ColumnVector& column = got.columns[c];
    if (column.type != ColumnType::kString) continue;
    for (size_t r = 0; r < got.num_rows; ++r) {
      ASSERT_EQ(column.IsNull(r), expected[r][c].null) << c << " " << r;
      if (column.IsNull(r)) continue;
      ASSERT_NE(expected[r][c].data, nullptr);
      EXPECT_EQ(static_cast<const void*>(column.str[r].data()),
                static_cast<const void*>(expected[r][c].data))
          << c << " " << r;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(EngineTest, StringCellsViewCatalogStorage) {
  // No operator copies string bytes: through filter, join build and probe,
  // sort and output, and out of a string min/max, every non-NULL result
  // cell is a view of the catalog cell it came from.
  const Catalog catalog = StringCatalog();
  constexpr double kThreshold = 40.0;
  const Executor executor(catalog);
  {
    PlanBuilder builder(&catalog);
    const PhysicalPlan plan =
        *builder.Output(BuildSortedJoin(&builder, kThreshold));
    Result<ExplainAnalyze> run = executor.Execute(plan);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectStorageViews(run->result, ReferenceSortedJoin(catalog, kThreshold));
  }
  {
    PlanBuilder builder(&catalog);
    const int scan = *builder.Scan("fact");
    const int agg = *builder.HashAggregate(
        scan, {}, {{AggFunc::kMin, 1}, {AggFunc::kMax, 1}});
    Result<ExplainAnalyze> run = executor.Execute(*builder.Output(agg));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectStorageViews(run->result, ReferenceMinMaxOfS(catalog));
  }
}

TEST(EngineTest, EmptyInputGlobalAggregateEmitsOneRow) {
  Catalog catalog;
  Table& t = catalog.AddTable("t");
  t.AddColumn("v", ColumnType::kFloat64);  // Zero rows.

  PlanBuilder builder(&catalog);
  const int scan = *builder.Scan("t");
  const int agg = *builder.HashAggregate(
      scan, {}, {{AggFunc::kCountStar, -1}, {AggFunc::kSum, 0}});
  const PhysicalPlan plan = *builder.Output(agg);

  const Executor executor(catalog);
  Result<ExplainAnalyze> run = executor.Execute(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->result_rows(), 1u);
  EXPECT_EQ(run->result.columns[0].i64[0], 0);       // count(*) = 0.
  EXPECT_TRUE(run->result.columns[1].IsNull(0));     // sum of nothing = NULL.
}

TEST(EngineTest, FilterAggregateMatchesScalarReference) {
  // The same filter + grouped aggregation computed two ways — vectorized
  // morsels vs a plain scalar loop over the storage columns — on three
  // generated instances from different schema families.
  for (const std::string instance :
       {"tpch_sf0", "tpcds_sf0", "airline_small"}) {
    SCOPED_TRACE(instance);
    const Catalog catalog = GenerateSmall(instance);
    const Table& table = LargestTable(catalog);
    const int group_col = FindColumnOfType(table, /*want_float=*/false);
    const int value_col = FindColumnOfType(table, /*want_float=*/true);
    ASSERT_GE(group_col, 0);
    ASSERT_GE(value_col, 0);
    const Column& group = table.column(static_cast<size_t>(group_col));
    const Column& value = table.column(static_cast<size_t>(value_col));

    // Threshold at the mean so the filter keeps a nontrivial fraction.
    double sum = 0.0;
    size_t n = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (value.IsNull(r)) continue;
      sum += NumericValueAt(value, r);
      ++n;
    }
    ASSERT_GT(n, 0u);
    const double threshold = sum / static_cast<double>(n);

    // Scalar reference, in row order (so float accumulation order matches).
    std::map<RefKey, std::pair<int64_t, double>> expected;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (value.IsNull(r) || !(NumericValueAt(value, r) < threshold)) {
        continue;  // NULL never passes a predicate.
      }
      RefKey key;
      if (!group.IsNull(r)) key = group.Int64At(r);
      auto& acc = expected[key];
      ++acc.first;
      acc.second += NumericValueAt(value, r);
    }

    PlanBuilder builder(&catalog);
    const int scan = *builder.Scan(table.name());
    const int filter =
        *builder.Filter(scan, {{value_col, CompareOp::kLt, threshold}});
    const int agg = *builder.HashAggregate(
        filter, {group_col},
        {{AggFunc::kCountStar, -1}, {AggFunc::kSum, value_col}});
    const PhysicalPlan plan = *builder.Output(agg);

    const Executor executor(catalog);
    Result<ExplainAnalyze> run = executor.Execute(plan);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const DataChunk& result = run->result;
    ASSERT_EQ(result.num_rows, expected.size());
    for (size_t r = 0; r < result.num_rows; ++r) {
      RefKey key;
      if (!result.columns[0].IsNull(r)) key = result.columns[0].i64[r];
      auto it = expected.find(key);
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(result.columns[1].i64[r], it->second.first);
      EXPECT_NEAR(result.columns[2].f64[r], it->second.second,
                  1e-9 * std::max(1.0, std::fabs(it->second.second)));
    }
  }
}

/// First (fact table, fk column, dim table, key column) relationship of an
/// instance spec, resolved to catalog column indices.
struct FkJoin {
  std::string fact;
  std::string dim;
  int fk_col = -1;
  int key_col = -1;
};

std::optional<FkJoin> FindFkJoin(const InstanceSpec& spec) {
  for (const TableSpec& table : spec.tables) {
    for (size_t c = 0; c < table.columns.size(); ++c) {
      if (table.columns[c].dist != DistKind::kForeignKey) continue;
      for (const TableSpec& target : spec.tables) {
        if (target.name != table.columns[c].fk_table) continue;
        for (size_t k = 0; k < target.columns.size(); ++k) {
          if (target.columns[k].dist == DistKind::kSequential) {
            return FkJoin{table.name, target.name, static_cast<int>(c),
                          static_cast<int>(k)};
          }
        }
      }
    }
  }
  return std::nullopt;
}

TEST(EngineTest, JoinCountMatchesScalarReference) {
  for (const std::string instance : {"tpch_sf0", "tpcds_sf0"}) {
    SCOPED_TRACE(instance);
    Result<const InstanceSpec*> spec = FindInstance(instance);
    ASSERT_TRUE(spec.ok());
    const std::optional<FkJoin> fk = FindFkJoin(**spec);
    ASSERT_TRUE(fk.has_value()) << "no FK relationship in " << instance;
    const Catalog catalog = GenerateSmall(instance);
    const Table& fact = **catalog.FindTable(fk->fact);
    const Table& dim = **catalog.FindTable(fk->dim);

    // Scalar reference: count matches through a multiplicity map.
    std::map<int64_t, uint64_t> dim_count;
    const Column& key = dim.column(static_cast<size_t>(fk->key_col));
    for (size_t r = 0; r < dim.num_rows(); ++r) {
      if (!key.IsNull(r)) ++dim_count[key.Int64At(r)];
    }
    uint64_t expected_matches = 0;
    const Column& fk_col = fact.column(static_cast<size_t>(fk->fk_col));
    for (size_t r = 0; r < fact.num_rows(); ++r) {
      if (fk_col.IsNull(r)) continue;
      auto it = dim_count.find(fk_col.Int64At(r));
      if (it != dim_count.end()) expected_matches += it->second;
    }

    PlanBuilder builder(&catalog);
    const int probe = *builder.Scan(fk->fact);
    const int build = *builder.Scan(fk->dim, {fk->key_col});
    const int join = *builder.HashJoin(probe, build, {fk->fk_col}, {0});
    const int agg =
        *builder.HashAggregate(join, {}, {{AggFunc::kCountStar, -1}});
    const PhysicalPlan plan = *builder.Output(agg);

    const Executor executor(catalog);
    Result<ExplainAnalyze> run = executor.Execute(plan);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->result_rows(), 1u);
    EXPECT_EQ(static_cast<uint64_t>(run->result.columns[0].i64[0]),
              expected_matches);
    EXPECT_EQ(run->operators[static_cast<size_t>(join)].rows_out,
              expected_matches);
    EXPECT_GT(expected_matches, 0u);
  }
}

TEST(EngineTest, SortLimitMatchesScalarReference) {
  const Catalog catalog = GenerateSmall("airline_small");
  const Table& table = LargestTable(catalog);
  const int sort_col = FindColumnOfType(table, /*want_float=*/true);
  ASSERT_GE(sort_col, 0);
  const Column& column = table.column(static_cast<size_t>(sort_col));
  constexpr int64_t kLimit = 25;

  // Scalar reference: ascending, NULLs last, ties in input order.
  std::vector<size_t> order(table.num_rows());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const bool null_a = column.IsNull(a);
    const bool null_b = column.IsNull(b);
    if (null_a != null_b) return null_b;
    if (null_a) return false;
    return NumericValueAt(column, a) < NumericValueAt(column, b);
  });
  order.resize(static_cast<size_t>(
      std::min<int64_t>(kLimit, static_cast<int64_t>(order.size()))));

  PlanBuilder builder(&catalog);
  const int scan = *builder.Scan(table.name());
  const int sort = *builder.Sort(scan, {{sort_col, true}});
  const int limit = *builder.Limit(sort, kLimit);
  const PhysicalPlan plan = *builder.Output(limit);

  const Executor executor(catalog);
  Result<ExplainAnalyze> run = executor.Execute(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const DataChunk& result = run->result;
  ASSERT_EQ(result.num_rows, order.size());
  const ColumnVector& got = result.columns[static_cast<size_t>(sort_col)];
  for (size_t r = 0; r < order.size(); ++r) {
    ASSERT_EQ(got.IsNull(r), column.IsNull(order[r])) << r;
    if (!got.IsNull(r)) {
      EXPECT_DOUBLE_EQ(got.f64[r], column.Float64At(order[r])) << r;
    }
  }
}

// Int64 and date keys sort in their own type: 2^53 and 2^53 + 1 are one
// double but two keys. Checked both ways against a scalar reference over
// int64 values, NULLs last ascending and first descending, ties in input
// order; the row ids show where each row went.
TEST(EngineTest, IntegerSortKeysBeyondDoublePrecision) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  const std::vector<std::optional<int64_t>> values = {
      kTwo53 + 1, kTwo53,     -3,          std::nullopt, -kTwo53 - 1,
      -kTwo53,    kTwo53 + 1, 0,           std::nullopt, kTwo53,
      7,          -3,         kTwo53 + 3,  kTwo53 + 2,   -kTwo53 - 2,
  };
  for (const ColumnType type : {ColumnType::kInt64, ColumnType::kDate}) {
    Catalog catalog;
    Table& t = catalog.AddTable("t");
    Column& k = t.AddColumn("k", type);
    for (const std::optional<int64_t>& value : values) {
      if (value.has_value()) {
        k.AppendInt64(*value);
      } else {
        k.AppendNull();
      }
    }
    Column& id = t.AddColumn("id", ColumnType::kInt64);
    for (size_t r = 0; r < values.size(); ++r) {
      id.AppendInt64(static_cast<int64_t>(r));
    }

    for (const bool ascending : {true, false}) {
      std::vector<int64_t> expected(values.size());
      for (size_t r = 0; r < expected.size(); ++r) {
        expected[r] = static_cast<int64_t>(r);
      }
      const auto before = [&](int64_t a, int64_t b) {
        const std::optional<int64_t>& va = values[static_cast<size_t>(a)];
        const std::optional<int64_t>& vb = values[static_cast<size_t>(b)];
        if (!va.has_value() || !vb.has_value()) {  // NULL is the largest key.
          return ascending ? vb.has_value() < va.has_value()
                           : va.has_value() < vb.has_value();
        }
        return ascending ? *va < *vb : *va > *vb;
      };
      std::stable_sort(expected.begin(), expected.end(), before);

      PlanBuilder builder(&catalog);
      const int scan = *builder.Scan("t");
      const int sort = *builder.Sort(scan, {{0, ascending}});
      const PhysicalPlan plan = *builder.Output(sort);
      Result<ExplainAnalyze> run = Executor(catalog).Execute(plan);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const DataChunk& result = run->result;
      ASSERT_EQ(result.num_rows, values.size());
      for (size_t r = 0; r < expected.size(); ++r) {
        EXPECT_EQ(result.columns[1].i64[r], expected[r])
            << ColumnTypeName(type) << (ascending ? " asc" : " desc")
            << ", output row " << r;
      }
    }
  }
}

TEST(EngineTest, LimitStopsReadingTheSource) {
  const Catalog catalog = GenerateSmall("tpch_sf0");
  const Table& table = LargestTable(catalog);
  ASSERT_GT(table.num_rows(), kMorselRows);

  PlanBuilder builder(&catalog);
  const int scan = *builder.Scan(table.name());
  const int limit = *builder.Limit(scan, 5);
  const PhysicalPlan plan = *builder.Output(limit);

  const Executor executor(catalog);
  Result<ExplainAnalyze> run = executor.Execute(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->result_rows(), 5u);
  // Early stop: one morsel read, not the whole table.
  ASSERT_EQ(run->pipelines.size(), 1u);
  EXPECT_EQ(run->pipelines[0].source_rows, kMorselRows);
  EXPECT_EQ(run->pipelines[0].morsels, 1u);
}

TEST(EngineTest, ExplainAnalyzeInvariantsHold) {
  const Catalog catalog = GenerateSmall("tpch_sf0");
  Result<const InstanceSpec*> spec = FindInstance("tpch_sf0");
  ASSERT_TRUE(spec.ok());
  const std::optional<FkJoin> fk = FindFkJoin(**spec);
  ASSERT_TRUE(fk.has_value());
  const Table& fact = **catalog.FindTable(fk->fact);

  PlanBuilder builder(&catalog);
  const int probe = *builder.Scan(fk->fact);
  const int build = *builder.Scan(fk->dim, {fk->key_col});
  const int join = *builder.HashJoin(probe, build, {fk->fk_col}, {0});
  const int agg = *builder.HashAggregate(
      join, {fk->fk_col}, {{AggFunc::kCountStar, -1}});
  const int sort = *builder.Sort(agg, {{1, false}});
  PhysicalPlan plan = *builder.Output(sort);

  const Executor executor(catalog);
  Result<ExplainAnalyze> run = executor.Execute(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // The pipeline set matches the static decomposition.
  Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
  ASSERT_TRUE(decomposition.ok());
  ASSERT_EQ(run->pipelines.size(), decomposition->pipelines.size());
  for (size_t p = 0; p < run->pipelines.size(); ++p) {
    EXPECT_EQ(run->pipelines[p].nodes, decomposition->pipelines[p].nodes);
    EXPECT_DOUBLE_EQ(run->pipelines[p].driving_cardinality,
                     decomposition->pipelines[p].driving_cardinality);
  }

  // Per-pipeline wall times: non-negative, and they sum to ~total (the
  // remainder is orchestration overhead outside any pipeline).
  double pipeline_sum = 0.0;
  for (const PipelineStats& stats : run->pipelines) {
    EXPECT_GE(stats.seconds, 0.0);
    pipeline_sum += stats.seconds;
  }
  EXPECT_LE(pipeline_sum, run->total_seconds + 1e-6);
  EXPECT_LE(run->total_seconds - pipeline_sum,
            std::max(0.5 * run->total_seconds, 0.01));

  // Tuple-count invariants against the data.
  EXPECT_EQ(run->operators[static_cast<size_t>(probe)].rows_out,
            fact.num_rows());
  EXPECT_EQ(run->operators[static_cast<size_t>(join)].rows_in,
            fact.num_rows() + (**catalog.FindTable(fk->dim)).num_rows());
  EXPECT_EQ(run->operators[static_cast<size_t>(agg)].rows_in,
            run->operators[static_cast<size_t>(join)].rows_out);
  EXPECT_EQ(run->operators[static_cast<size_t>(agg)].rows_out,
            run->operators[static_cast<size_t>(sort)].rows_in);
  EXPECT_EQ(run->operators[static_cast<size_t>(sort)].rows_out,
            run->result_rows());

  // Rendering includes the pipeline table and per-operator counts.
  const std::string rendered = run->ToString(plan);
  EXPECT_NE(rendered.find("pipeline 0"), std::string::npos);
  EXPECT_NE(rendered.find("hash_join"), std::string::npos);
}

/// Folds one result chunk into `fnv`: types, null flags and values, column
/// by column in row order.
void DigestChunk(const DataChunk& chunk, Fnv1a* fnv) {
  fnv->U64(chunk.num_rows);
  fnv->U64(chunk.columns.size());
  for (const ColumnVector& column : chunk.columns) {
    fnv->U64(static_cast<uint64_t>(column.type));
    for (size_t r = 0; r < chunk.num_rows; ++r) {
      fnv->U64(column.null[r]);
      switch (column.type) {
        case ColumnType::kInt64:
        case ColumnType::kDate:
          fnv->U64(static_cast<uint64_t>(column.i64[r]));
          break;
        case ColumnType::kFloat64:
          fnv->F64(column.f64[r]);
          break;
        case ColumnType::kString:
          fnv->LengthPrefixedString(column.str[r]);
          break;
      }
    }
  }
}

TEST(EngineTest, GeneratedQueryResultsArePinned) {
  // Every generated and fixed-suite query over three instances, digested:
  // result values, NULL flags and row order, per-operator tuple counts and
  // per-pipeline source rows and morsels. Any change to what the engine
  // computes (not how fast) moves the digest.
  constexpr int kQueriesPerGroup = 6;
  constexpr uint64_t kPinnedDigest = 0xe252fc06c32471e5ULL;
  Fnv1a fnv;
  size_t queries = 0;
  for (const std::string instance :
       {"tpch_sf0", "retail_small", "tpcds_sf0"}) {
    SCOPED_TRACE(instance);
    const Catalog catalog = GenerateSmall(instance);
    QueryGenerator generator(&catalog, 42);
    std::vector<GeneratedQuery> suite =
        generator.GenerateAll(kQueriesPerGroup);
    Result<const InstanceSpec*> spec = FindInstance(instance);
    ASSERT_TRUE(spec.ok());
    Result<std::vector<GeneratedQuery>> fixed =
        FixedSuiteForFamily(catalog, (*spec)->family);
    ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
    for (GeneratedQuery& query : *fixed) suite.push_back(std::move(query));

    const Executor executor(catalog);
    for (const GeneratedQuery& query : suite) {
      SCOPED_TRACE(query.name);
      Result<ExplainAnalyze> run = executor.Execute(query.plan);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      fnv.CString(query.name);
      DigestChunk(run->result, &fnv);
      for (const OperatorStats& stats : run->operators) {
        fnv.U64(stats.rows_in);
        fnv.U64(stats.rows_out);
      }
      for (const PipelineStats& stats : run->pipelines) {
        fnv.U64(stats.source_rows);
        fnv.U64(stats.morsels);
      }
      ++queries;
    }
  }
  EXPECT_GT(queries, 100u);
  EXPECT_EQ(fnv.hash(), kPinnedDigest)
      << "digest 0x" << std::hex << fnv.hash() << " over " << std::dec
      << queries << " queries";
}

TEST(EngineTest, InvalidPlansAreErrorsNotCrashes) {
  const Catalog catalog = GenerateSmall("tpch_sf0");
  const Executor executor(catalog);
  // Unknown table.
  PhysicalPlan plan;
  PlanNode scan;
  scan.op = PlanOp::kScan;
  scan.table = "nonexistent";
  plan.nodes.push_back(scan);
  PlanNode output;
  output.op = PlanOp::kOutput;
  output.left = 0;
  plan.nodes.push_back(output);
  EXPECT_FALSE(executor.Execute(plan).ok());
  // Structurally broken plan (no output root).
  PhysicalPlan broken;
  broken.nodes.push_back(scan);
  Result<ExplainAnalyze> run = executor.Execute(broken);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace t3
