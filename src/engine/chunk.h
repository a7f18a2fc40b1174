#ifndef T3_ENGINE_CHUNK_H_
#define T3_ENGINE_CHUNK_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "storage/types.h"

namespace t3 {

/// Rows per morsel pushed through a pipeline. Join probes may emit more
/// rows than this per input morsel; chunks grow as needed.
inline constexpr size_t kMorselRows = 1024;

/// One column of an in-flight chunk: a typed value buffer plus a byte-per-
/// row null flag (1 = NULL; the value slot is a zero/empty placeholder).
/// Unlike storage Columns these are small, transient, and append-only.
/// String cells are views of the catalog's column storage, never copies of
/// the bytes.
///
/// A dead column is one no later operator reads: it stays empty whatever
/// the chunk's row count, and both copy primitives skip it.
///
/// Operators copy rows with the two bulk primitives, Gather and
/// AppendRange: each checks and switches on the type once per call, then
/// runs one typed loop over the rows.
struct ColumnVector {
  ColumnType type = ColumnType::kInt64;
  /// False for a dead column.
  bool live = true;
  std::vector<int64_t> i64;           // kInt64, kDate
  std::vector<double> f64;            // kFloat64
  std::vector<std::string_view> str;  // kString
  std::vector<uint8_t> null;

  explicit ColumnVector(ColumnType t = ColumnType::kInt64, bool is_live = true)
      : type(t), live(is_live) {}

  size_t size() const { return null.size(); }

  void Clear() {
    i64.clear();
    f64.clear();
    str.clear();
    null.clear();
  }

  /// Appends rows `sel[0], sel[1], ...` of `source` (same type), in that
  /// order. Every index must be < source.size(). A no-op on a dead column.
  void Gather(const ColumnVector& source, const std::vector<uint32_t>& sel);

  /// Appends rows [begin, end) of `source` (same type). A no-op on a dead
  /// column.
  void AppendRange(const ColumnVector& source, size_t begin, size_t end);

  bool IsNull(size_t row) const { return null[row] != 0; }
};

/// A batch of rows flowing through a pipeline: equally sized live column
/// vectors, and empty dead ones. Also used (with unbounded size) to
/// materialize breaker state and the final query result.
struct DataChunk {
  std::vector<ColumnVector> columns;
  size_t num_rows = 0;

  /// One column per schema entry; column c is live when `live` is empty or
  /// `live[c]` is set.
  explicit DataChunk(const std::vector<ColumnType>& schema = {},
                     const std::vector<bool>& live = {}) {
    columns.reserve(schema.size());
    for (size_t c = 0; c < schema.size(); ++c) {
      columns.emplace_back(schema[c], live.empty() || live[c]);
    }
  }

  void Clear() {
    for (ColumnVector& column : columns) column.Clear();
    num_rows = 0;
  }

  /// Appends rows `sel[0], sel[1], ...` of `source` (same schema), in that
  /// order, one column at a time.
  void Gather(const DataChunk& source, const std::vector<uint32_t>& sel);

  /// Appends rows [begin, end) of `source` (same schema).
  void AppendRange(const DataChunk& source, size_t begin, size_t end);
};

}  // namespace t3

#endif  // T3_ENGINE_CHUNK_H_
