// Small string utilities shared by data loading and serialization.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace drel::util {

/// Splits `text` on `delim`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view text, char delim);

/// Removes ASCII whitespace from both ends.
std::string_view trim(std::string_view text) noexcept;

/// Parses a double, throwing std::invalid_argument with context on failure.
double parse_double(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix) noexcept;

}  // namespace drel::util
