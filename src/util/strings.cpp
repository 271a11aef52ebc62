#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <limits>

namespace wadp::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_whitespace(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    const std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<std::int64_t> parse_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
  if (needed > 0) {
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (v == std::numeric_limits<double>::infinity()) return "1e999";
  if (v == -std::numeric_limits<double>::infinity()) return "-1e999";
  if (v != v) return "0";
  return format("%.9g", v);
}

std::string format_bytes(std::uint64_t bytes) {
  if (bytes >= 1000000000ULL && bytes % 1000000000ULL == 0) {
    return format("%llu GB", static_cast<unsigned long long>(bytes / 1000000000ULL));
  }
  if (bytes >= 1000000ULL && bytes % 1000000ULL == 0) {
    return format("%llu MB", static_cast<unsigned long long>(bytes / 1000000ULL));
  }
  if (bytes >= 1000ULL && bytes % 1000ULL == 0) {
    return format("%llu KB", static_cast<unsigned long long>(bytes / 1000ULL));
  }
  return format("%llu B", static_cast<unsigned long long>(bytes));
}

}  // namespace wadp::util
