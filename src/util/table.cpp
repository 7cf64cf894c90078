#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace drel::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
    if (header_.empty()) throw std::invalid_argument("Table: header must be non-empty");
}

void Table::add_row(std::vector<std::string> cells) {
    if (cells.size() != header_.size()) {
        throw std::invalid_argument("Table: row arity " + std::to_string(cells.size()) +
                                    " != header arity " + std::to_string(header_.size()));
    }
    rows_.push_back(std::move(cells));
}

std::string Table::fmt(double value, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

void Table::print(std::ostream& os) const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
    }
    auto emit = [&](const std::vector<std::string>& row) {
        os << "|";
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << ' ' << row[c] << std::string(widths[c] - row[c].size(), ' ') << " |";
        }
        os << '\n';
    };
    emit(header_);
    os << "|";
    for (std::size_t c = 0; c < header_.size(); ++c) os << std::string(widths[c] + 2, '-') << "|";
    os << '\n';
    for (const auto& row : rows_) emit(row);
}

}  // namespace drel::util
