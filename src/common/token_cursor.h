#ifndef T3_COMMON_TOKEN_CURSOR_H_
#define T3_COMMON_TOKEN_CURSOR_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <string_view>

#include "common/check.h"

namespace t3 {

/// Parses all of `token` as one number of type T (an integer type or
/// double) with std::from_chars: locale-independent, no leading '+' or
/// whitespace, no hex floats. False on an empty token, trailing bytes, or a
/// value outside T's range.
template <typename T>
bool ParseNumber(std::string_view token, T* out) {
  const char* end = token.data() + token.size();
  const std::from_chars_result parsed = std::from_chars(token.data(), end, *out);
  return parsed.ec == std::errc() && parsed.ptr == end;
}

/// Whitespace-separated token reader over text that outlives it: the one
/// reader of every text format (model files, "t3plan v1" plans and
/// "t3corpus v1" corpora). It never reads past the end of the view, which
/// need not be NUL-terminated, and each number must fill its whole token.
/// It also counts lines for parse diagnostics.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()), counted_(pos_) {}

  bool AtEnd() {
    SkipSpace();
    return pos_ == end_;
  }

  /// Bytes not yet consumed. A count read from the text is checked against
  /// this before anything is sized by it.
  size_t Remaining() const { return static_cast<size_t>(end_ - pos_); }

  /// 1-based line of the next unread byte. Lines are counted on demand,
  /// from where the last call stopped, so a reader that asks once per
  /// record still scans each byte once.
  int line() const {
    line_ += static_cast<int>(std::count(counted_, pos_, '\n'));
    counted_ = pos_;
    return line_;
  }

  /// The next unread byte and the end of the text, for a reader that scans
  /// one fixed layout by pointer (Forest's node lines) and then moves the
  /// cursor past what it read with Advance.
  const char* pos() const { return pos_; }
  const char* end() const { return end_; }
  /// Moves the cursor forward to `to`, which lies in [pos(), end()].
  void Advance(const char* to) {
    T3_CHECK(to >= pos_ && to <= end_);
    pos_ = to;
  }

  /// Next whitespace-delimited token; empty at end of input.
  std::string_view NextToken() {
    SkipSpace();
    const char* start = pos_;
    while (pos_ != end_ && !IsSpace(*pos_)) ++pos_;
    return std::string_view(start, static_cast<size_t>(pos_ - start));
  }

  /// Next token as a number of type T, by ParseNumber's rules, in one scan.
  /// "inf" and "nan" parse as doubles; NextFiniteDouble rejects them.
  template <typename T>
  bool NextNumber(T* out) {
    SkipSpace();
    const std::from_chars_result parsed = std::from_chars(pos_, end_, *out);
    if (parsed.ec != std::errc() ||
        (parsed.ptr != end_ && !IsSpace(*parsed.ptr))) {
      return false;
    }
    pos_ = parsed.ptr;
    return true;
  }
  bool NextFiniteDouble(double* out) {
    return NextNumber(out) && std::isfinite(*out);
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }
  void SkipSpace() {
    while (pos_ != end_ && IsSpace(*pos_)) ++pos_;
  }

  const char* pos_;
  const char* end_;
  // line() has counted the '\n's before counted_: line_ - 1 of them.
  mutable const char* counted_;
  mutable int line_ = 1;
};

}  // namespace t3

#endif  // T3_COMMON_TOKEN_CURSOR_H_
