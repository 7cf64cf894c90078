// ASCII table printer used by every bench binary to emit paper-style rows.
//
// Usage:
//   Table t({"method", "n=8", "n=32", "n=128"});
//   t.add_row({"local-ERM", "0.61", "0.71", "0.84"});
//   t.print(std::cout);
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace drel::util {

class Table {
 public:
    explicit Table(std::vector<std::string> header);

    /// Appends one row; must have the same arity as the header.
    void add_row(std::vector<std::string> cells);

    /// Convenience: formats doubles with `precision` decimal digits.
    static std::string fmt(double value, int precision = 4);

    std::size_t num_rows() const noexcept { return rows_.size(); }

    /// Renders with column alignment, `|` separators and a rule under the header.
    void print(std::ostream& os) const;

 private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace drel::util
