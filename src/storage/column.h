#ifndef T3_STORAGE_COLUMN_H_
#define T3_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "storage/types.h"

namespace t3 {

/// One in-memory column: a typed value buffer plus a null bitmap (bit set =
/// NULL). Values of NULL rows are zero/empty placeholders so buffers stay
/// densely indexed by row.
///
/// Two fill paths:
///  - Append*: grow one row at a time (tests, small builders).
///  - Resize + Set*: preallocate, then writers fill disjoint row ranges. This
///    is the parallel path used by datagen; concurrent writers must partition
///    rows into ranges whose boundaries are multiples of 64 so no two threads
///    touch the same null-bitmap word.
class Column {
 public:
  Column(std::string name, ColumnType type)
      : name_(std::move(name)), type_(type) {}

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  size_t size() const { return size_; }

  void Resize(size_t n);

  void AppendInt64(int64_t value);
  void AppendFloat64(double value);
  void AppendString(std::string value);
  /// Appends a NULL row (placeholder value of the column's type).
  void AppendNull();

  void SetInt64(size_t row, int64_t value) {
    T3_CHECK(IsIntegerBacked(type_));
    data_i64_[row] = value;
  }
  void SetFloat64(size_t row, double value) {
    T3_CHECK(type_ == ColumnType::kFloat64);
    data_f64_[row] = value;
  }
  void SetString(size_t row, std::string value) {
    T3_CHECK(type_ == ColumnType::kString);
    data_str_[row] = std::move(value);
  }
  void SetNull(size_t row) { null_words_[row >> 6] |= 1ULL << (row & 63); }

  bool IsNull(size_t row) const {
    return (null_words_[row >> 6] >> (row & 63)) & 1;
  }
  int64_t Int64At(size_t row) const { return data_i64_[row]; }
  double Float64At(size_t row) const { return data_f64_[row]; }
  const std::string& StringAt(size_t row) const { return data_str_[row]; }

  /// Null bitmap words (size() / 64 rounded up; bit set = NULL; trailing bits
  /// past size() are zero).
  const std::vector<uint64_t>& null_words() const { return null_words_; }

 private:
  std::string name_;
  ColumnType type_;
  size_t size_ = 0;
  std::vector<uint64_t> null_words_;
  std::vector<int64_t> data_i64_;   // kInt64, kDate
  std::vector<double> data_f64_;    // kFloat64
  std::vector<std::string> data_str_;  // kString
};

}  // namespace t3

#endif  // T3_STORAGE_COLUMN_H_
