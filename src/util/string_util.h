#ifndef RDFQL_UTIL_STRING_UTIL_H_
#define RDFQL_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rdfql {

/// Splits on a single character, omitting empty pieces.
std::vector<std::string> SplitNonEmpty(std::string_view text, char sep);

/// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

/// Joins `pieces` with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// A duration for people: "950ns", "12.3us", "4.5ms", "12.3s" (each unit
/// from 10 of the one below).
std::string FormatNs(uint64_t ns);

/// A byte count for people: "950B", "12.3KB", "4.5MB" (decimal units).
std::string FormatBytes(uint64_t bytes);

}  // namespace rdfql

#endif  // RDFQL_UTIL_STRING_UTIL_H_
