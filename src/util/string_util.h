#ifndef FDX_UTIL_STRING_UTIL_H_
#define FDX_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace fdx {

/// Splits `text` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view text);

/// True if `text` parses fully as a decimal integer.
bool IsInteger(std::string_view text);

/// True if `text` parses fully as a floating-point number.
bool IsDouble(std::string_view text);

/// Formats a double with fixed precision (used by report tables).
std::string FormatDouble(double value, int precision);

/// Exact, locale-free text of a double: %.17g, which strtod reads back
/// to the identical bits. The form of every double that must survive a
/// round trip through text (cache keys, session files, chunk stores).
std::string ExactDouble(double value);

}  // namespace fdx

#endif  // FDX_UTIL_STRING_UTIL_H_
