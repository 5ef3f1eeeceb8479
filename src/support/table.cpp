#include "support/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/check.hpp"

namespace sttsv {

TextTable::TextTable(std::vector<std::string> headers,
                     std::vector<Align> aligns)
    : headers_(std::move(headers)), aligns_(std::move(aligns)) {
  STTSV_REQUIRE(!headers_.empty(), "table needs at least one column");
  if (aligns_.empty()) {
    aligns_.assign(headers_.size(), Align::kLeft);
  }
  STTSV_REQUIRE(aligns_.size() == headers_.size(),
                "alignment count must match header count");
}

void TextTable::add_row(std::vector<std::string> cells) {
  STTSV_REQUIRE(cells.size() == headers_.size(),
                "row width must match header count");
  rows_.push_back(Row{false, std::move(cells)});
}

void TextTable::add_separator() { rows_.push_back(Row{true, {}}); }

std::string TextTable::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      width[c] = std::max(width[c], row.cells[c].size());
    }
  }

  auto hline = [&] {
    std::string s = "+";
    for (const auto w : width) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const auto pad = width[c] - cells[c].size();
      if (aligns_[c] == Align::kRight) {
        s += std::string(pad + 1, ' ') + cells[c] + " |";
      } else {
        s += " " + cells[c] + std::string(pad, ' ') + " |";
      }
    }
    return s + "\n";
  };

  std::string out = hline() + line(headers_) + hline();
  for (const auto& row : rows_) {
    out += row.separator ? hline() : line(row.cells);
  }
  out += hline();
  return out;
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  return os << t.render();
}

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string format_set(const std::vector<std::size_t>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ' ';
    os << v[i];
  }
  return os.str();
}

}  // namespace sttsv
