#ifndef WMP_UTIL_STRINGS_H_
#define WMP_UTIL_STRINGS_H_

/// \file strings.h
/// Small string utilities shared across the SQL lexer, plan parser, and
/// report printers.

#include <string>
#include <string_view>
#include <vector>

namespace wmp {

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);
/// ASCII upper-case copy.
std::string ToUpper(std::string_view s);

/// True for the C-locale whitespace set: space, \t, \n, \v, \f, \r.
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Strips leading/trailing whitespace (IsAsciiSpace).
std::string_view Trim(std::string_view s);

/// \brief Parses all of `s` as a decimal floating-point number; surrounding
/// whitespace is allowed, anything else left over is an error.
///
/// Grammar: [+|-] digits [. digits] [(e|E) [+|-] digits], or inf, infinity,
/// nan (any case, optional sign). Results are bitwise those of strtod:
/// std::from_chars does the parse, and a value that overflows or underflows
/// a double (1e400, 1e-400) falls back to strtod for that token, so it
/// loads as +-inf or the correctly rounded subnormal/zero.
bool ParseDouble(std::string_view s, double* out);

/// Parses all of `s` as a decimal int ([+|-] digits, surrounding
/// whitespace allowed); false on trailing junk or overflow.
bool ParseInt(std::string_view s, int* out);

/// Splits on a single character; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any whitespace run; empty pieces are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix` (case-sensitive).
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders a byte count as a human-readable "12.3 KB" style string.
std::string HumanBytes(double bytes);

}  // namespace wmp

#endif  // WMP_UTIL_STRINGS_H_
