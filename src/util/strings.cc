#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace wmp {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

namespace {

// Trims `s` and drops one leading '+' (strtod/atoi accept it, from_chars
// does not). False when nothing parseable is left.
bool PrepareNumber(std::string_view* s) {
  *s = Trim(*s);
  if (!s->empty() && s->front() == '+') {
    s->remove_prefix(1);
    if (!s->empty() && (s->front() == '+' || s->front() == '-')) return false;
  }
  return !s->empty();
}

}  // namespace

bool ParseDouble(std::string_view s, double* out) {
  if (!PrepareNumber(&s)) return false;
  const char* end = s.data() + s.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ptr != end) return false;
  if (ec == std::errc::result_out_of_range) {
    // from_chars leaves `v` untouched here; strtod rounds to +-inf or to
    // the nearest subnormal/zero, which is what these tokens always loaded
    // as.
    v = std::strtod(std::string(s).c_str(), nullptr);
  } else if (ec != std::errc()) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseInt(std::string_view s, int* out) {
  if (!PrepareNumber(&s)) return false;
  const char* end = s.data() + s.size();
  int v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ptr != end || ec != std::errc()) return false;
  *out = v;
  return true;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return StrFormat("%.1f %s", bytes, units[u]);
}

}  // namespace wmp
