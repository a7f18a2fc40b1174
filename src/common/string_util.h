#ifndef T3_COMMON_STRING_UTIL_H_
#define T3_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace t3 {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends `value` exactly as printf("%.17g") would, without the format
/// string parse (std::to_chars, general format, precision 17). Injective on
/// finite doubles and -0.0, and std::from_chars inverts it bit for bit: the
/// double format of model, plan and corpus files.
inline void AppendDouble(std::string* out, double value) {
  char buffer[32];
  const std::to_chars_result printed = std::to_chars(
      buffer, buffer + sizeof(buffer), value, std::chars_format::general, 17);
  out->append(buffer, printed.ptr);
}

/// Appends an integer in decimal, as printf("%d") would.
template <typename Int>
void AppendInt(std::string* out, Int value) {
  char buffer[24];
  const std::to_chars_result printed =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, printed.ptr);
}

/// Splits on a single character delimiter; keeps empty pieces.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view text);

/// Human-readable duration from nanoseconds: "812ns", "4.20us", "1.35ms",
/// "2.10s". The unit is chosen so the mantissa is < 1000.
std::string FormatDuration(double nanos);

/// Strict whole-string numeric parsing for untrusted text (CLI arguments,
/// corpus files). The entire text must be consumed — empty strings, trailing
/// characters, and out-of-range values fail — and ParseDouble additionally
/// rejects non-finite results ("inf", "nan", overflow). On failure, returns
/// false and leaves *out untouched.
bool ParseDouble(std::string_view text, double* out);
bool ParseInt64(std::string_view text, int64_t* out);
/// Rejects negative input outright ("-1" fails rather than wrapping).
bool ParseUint64(std::string_view text, uint64_t* out);

}  // namespace t3

#endif  // T3_COMMON_STRING_UTIL_H_
