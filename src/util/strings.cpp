#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <stdexcept>

namespace drel::util {

std::vector<std::string> split(std::string_view text, char delim) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            return out;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string_view trim(std::string_view text) noexcept {
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
    return text.substr(begin, end - begin);
}

double parse_double(std::string_view text) {
    const std::string_view trimmed = trim(text);
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
    if (ec != std::errc{} || ptr != trimmed.data() + trimmed.size()) {
        throw std::invalid_argument("parse_double: cannot parse '" + std::string(text) + "'");
    }
    return value;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

}  // namespace drel::util
