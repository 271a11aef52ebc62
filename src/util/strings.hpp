// Small string helpers shared by the ULM codec, the LDAP-style filter
// parser, and the bench table printers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wadp::util {

/// Split on a single-character delimiter.  Adjacent delimiters yield
/// empty fields; an empty input yields one empty field.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on runs of ASCII whitespace; no empty fields are produced.
std::vector<std::string> split_whitespace(std::string_view s);

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// ASCII case-insensitive equality (LDAP attribute names are
/// case-insensitive).
bool iequals(std::string_view a, std::string_view b);

/// Lower-cased copy (ASCII).
std::string to_lower(std::string_view s);

/// Strict full-string numeric parses; nullopt on any trailing garbage.
std::optional<std::int64_t> parse_int(std::string_view s);
std::optional<double> parse_double(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Escapes `s` for interpolation inside a JSON string literal: quote,
/// backslash, and control characters (RFC 8259).  Every hand-rolled
/// JSON emitter must route string values through this — a host name
/// containing `"` or `\` otherwise produces invalid JSON.
std::string json_escape(std::string_view s);

/// A double as a JSON number token ("%.9g").  JSON has no spelling for
/// infinities or NaN, so +/-inf become 1e999 / -1e999 (which parse back
/// to +/-inf in common JSON readers) and NaN becomes 0.
std::string json_number(double v);

/// Human-readable byte count using the paper's decimal units
/// ("10 MB", "1 GB", "512 KB").
std::string format_bytes(std::uint64_t bytes);

}  // namespace wadp::util
