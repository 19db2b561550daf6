#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace memreal {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  MEMREAL_CHECK(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  MEMREAL_CHECK_MSG(cells.size() == headers_.size(),
                    "row arity " << cells.size() << " != header arity "
                                 << headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto rule = [&] {
    for (std::size_t c = 0; c < width.size(); ++c) {
      os << '+' << std::string(width[c] + 2, '-');
    }
    os << "+\n";
  };
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "| " << std::setw(static_cast<int>(width[c])) << cells[c] << ' ';
    }
    os << "|\n";
  };
  rule();
  line(headers_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
}

std::string Table::num(double v, int digits) {
  std::ostringstream os;
  os << std::setprecision(digits) << v;
  return os.str();
}

}  // namespace memreal
