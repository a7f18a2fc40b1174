#include "engine/chunk.h"

#include <cstddef>

#include "common/check.h"

namespace t3 {

namespace {

template <typename T>
void GatherValues(const std::vector<T>& source,
                  const std::vector<uint32_t>& sel, std::vector<T>* out) {
  const size_t base = out->size();
  out->resize(base + sel.size());
  T* dst = out->data() + base;
  for (size_t i = 0; i < sel.size(); ++i) dst[i] = source[sel[i]];
}

}  // namespace

void ColumnVector::Gather(const ColumnVector& source,
                          const std::vector<uint32_t>& sel) {
  // A dead column's source may be dead (empty) too, so this returns before
  // the index check; a live column's source never is.
  if (!live) return;
  T3_CHECK(source.type == type);
#ifndef NDEBUG
  // Debug builds (and so the sanitizer job) check every index; release
  // builds keep the per-value loop free of checks.
  for (uint32_t row : sel) T3_CHECK(row < source.size());
#endif
  // NULL rows carry their placeholder value, so values and flags gather
  // independently.
  GatherValues(source.null, sel, &null);
  switch (type) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
      GatherValues(source.i64, sel, &i64);
      break;
    case ColumnType::kFloat64:
      GatherValues(source.f64, sel, &f64);
      break;
    case ColumnType::kString:
      GatherValues(source.str, sel, &str);
      break;
  }
}

void ColumnVector::AppendRange(const ColumnVector& source, size_t begin,
                               size_t end) {
  if (!live) return;
  T3_CHECK(source.type == type && begin <= end && end <= source.size());
  const auto append = [begin, end](const auto& from, auto* to) {
    to->insert(to->end(), from.begin() + static_cast<std::ptrdiff_t>(begin),
               from.begin() + static_cast<std::ptrdiff_t>(end));
  };
  append(source.null, &null);
  switch (type) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
      append(source.i64, &i64);
      break;
    case ColumnType::kFloat64:
      append(source.f64, &f64);
      break;
    case ColumnType::kString:
      append(source.str, &str);
      break;
  }
}

void DataChunk::Gather(const DataChunk& source,
                       const std::vector<uint32_t>& sel) {
  T3_CHECK(source.columns.size() == columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].Gather(source.columns[c], sel);
  }
  num_rows += sel.size();
}

void DataChunk::AppendRange(const DataChunk& source, size_t begin,
                            size_t end) {
  T3_CHECK(source.columns.size() == columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].AppendRange(source.columns[c], begin, end);
  }
  num_rows += end - begin;
}

}  // namespace t3
