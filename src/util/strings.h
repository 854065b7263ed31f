// String / CSV helpers shared by the data loaders and experiment reporters.

#ifndef LAYERGCN_UTIL_STRINGS_H_
#define LAYERGCN_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace layergcn::util {

/// Splits `s` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Parses an integer; returns false on malformed input or overflow.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses an integer into `*out` only when T can hold it; returns false
/// on malformed input, overflow or a value outside T's range.
template <typename T>
bool ParseInt(std::string_view s, T* out) {
  int64_t v;
  if (!ParseInt64(s, &v) || !std::in_range<T>(v)) return false;
  *out = static_cast<T>(v);
  return true;
}

/// Parses a double; returns false on malformed input.
bool ParseDouble(std::string_view s, double* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins elements with `sep` using operator<< formatting.
std::string JoinInts(const std::vector<int>& v, std::string_view sep);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

}  // namespace layergcn::util

#endif  // LAYERGCN_UTIL_STRINGS_H_
