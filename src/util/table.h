// Minimal fixed-width table renderer for the experiment binaries.
//
// Every bench binary prints the paper-shaped series as a plain-text table
// (rows = sweep points, columns = metrics) next to its BENCH_*.json
// artifact.  Keeping the renderer here means EXPERIMENTS.md, the benches
// and the examples all produce identical formatting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace memreal {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Renders with a header rule and right-aligned numeric-looking cells.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Formats a double with `digits` significant digits.
  static std::string num(double v, int digits = 4);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace memreal
