#include "datagen/stats_json.h"

#include "common/check.h"
#include "common/string_util.h"
#include "datagen/generator.h"
#include "storage/checksum.h"
#include "storage/column_stats.h"
#include "storage/types.h"

namespace t3 {
namespace {

/// Shortest-round-trip double rendering: %.17g is exact for IEEE doubles, so
/// the JSON is a faithful bit-level fingerprint of the stats.
std::string JsonDouble(double v) { return StrFormat("%.17g", v); }

std::string MinMaxJson(const ColumnStats& stats) {
  if (!stats.has_range) return "\"min\": null, \"max\": null";
  switch (stats.type) {
    case ColumnType::kInt64:
      return StrFormat("\"min\": %lld, \"max\": %lld",
                       static_cast<long long>(stats.min_i64),
                       static_cast<long long>(stats.max_i64));
    case ColumnType::kFloat64:
      return "\"min\": " + JsonDouble(stats.min_f64) +
             ", \"max\": " + JsonDouble(stats.max_f64);
    case ColumnType::kDate:
      return "\"min\": " + JsonQuote(FormatDate(stats.min_i64)) +
             ", \"max\": " + JsonQuote(FormatDate(stats.max_i64));
    case ColumnType::kString:
      return "\"min\": " + JsonQuote(stats.min_str) +
             ", \"max\": " + JsonQuote(stats.max_str);
  }
  T3_CHECK(false);
  return "";
}

}  // namespace

std::string CatalogStatsJson(const Catalog& catalog, const std::string& indent) {
  const std::string i1 = indent + "  ";
  const std::string i2 = i1 + "  ";
  const std::string i3 = i2 + "  ";
  std::string out = "{\n";
  out += i1 + StrFormat("\"checksum\": \"%016llx\",\n",
                        static_cast<unsigned long long>(CatalogChecksum(catalog)));
  out += i1 + "\"tables\": [\n";
  for (size_t t = 0; t < catalog.num_tables(); ++t) {
    const Table& table = catalog.table(t);
    T3_CHECK(table.stats().size() == table.num_columns());  // ComputeStats ran.
    out += i2 + "{\n";
    out += i3 + "\"name\": " + JsonQuote(table.name()) + ",\n";
    out += i3 + StrFormat("\"rows\": %llu,\n",
                          static_cast<unsigned long long>(table.num_rows()));
    out += i3 + "\"columns\": [\n";
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& column = table.column(c);
      const ColumnStats& stats = table.stats()[c];
      out += i3 + "  {\"name\": " + JsonQuote(column.name()) +
             ", \"type\": " + JsonQuote(ColumnTypeName(column.type())) +
             StrFormat(", \"nulls\": %llu, \"ndv\": %llu, ",
                       static_cast<unsigned long long>(stats.null_count),
                       static_cast<unsigned long long>(stats.ndv)) +
             MinMaxJson(stats) + "}";
      out += c + 1 < table.num_columns() ? ",\n" : "\n";
    }
    out += i3 + "]\n";
    out += i2 + (t + 1 < catalog.num_tables() ? "},\n" : "}\n");
  }
  out += i1 + "]\n";
  out += indent + "}";
  return out;
}

std::string GoldenStatsJson(uint64_t seed, double scale, ThreadPool* pool) {
  std::string out = "{\n";
  out += StrFormat("  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  out += "  \"scale\": " + StrFormat("%.17g", scale) + ",\n";
  out += "  \"instances\": {\n";
  const std::vector<InstanceSpec>& instances = AllInstances();
  for (size_t i = 0; i < instances.size(); ++i) {
    DatagenOptions options;
    options.seed = seed;
    options.scale_override = scale;
    options.pool = pool;
    Result<Catalog> catalog = GenerateInstance(instances[i], options);
    T3_CHECK_OK(catalog);
    out += "    " + JsonQuote(instances[i].name) + ": " +
           CatalogStatsJson(*catalog, "    ");
    out += i + 1 < instances.size() ? ",\n" : "\n";
  }
  out += "  }\n";
  out += "}\n";
  return out;
}

}  // namespace t3
