#include "storage/column.h"

namespace t3 {

void Column::Resize(size_t n) {
  size_ = n;
  null_words_.assign((n + 63) / 64, 0);
  switch (type_) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
      data_i64_.assign(n, 0);
      break;
    case ColumnType::kFloat64:
      data_f64_.assign(n, 0.0);
      break;
    case ColumnType::kString:
      data_str_.assign(n, std::string());
      break;
  }
}

void Column::AppendInt64(int64_t value) {
  T3_CHECK(IsIntegerBacked(type_));
  if (size_ % 64 == 0) null_words_.push_back(0);
  data_i64_.push_back(value);
  ++size_;
}

void Column::AppendFloat64(double value) {
  T3_CHECK(type_ == ColumnType::kFloat64);
  if (size_ % 64 == 0) null_words_.push_back(0);
  data_f64_.push_back(value);
  ++size_;
}

void Column::AppendString(std::string value) {
  T3_CHECK(type_ == ColumnType::kString);
  if (size_ % 64 == 0) null_words_.push_back(0);
  data_str_.push_back(std::move(value));
  ++size_;
}

void Column::AppendNull() {
  switch (type_) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
      AppendInt64(0);
      break;
    case ColumnType::kFloat64:
      AppendFloat64(0.0);
      break;
    case ColumnType::kString:
      AppendString(std::string());
      break;
  }
  SetNull(size_ - 1);
}

}  // namespace t3
