#include "harness/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace arthas {

std::string TextTable::Render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); i++) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); i++) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < widths.size(); i++) {
      const std::string& cell = i < cells.size() ? cells[i] : "";
      out << (i == 0 ? "| " : " | ") << cell
          << std::string(widths[i] - cell.size(), ' ');
    }
    out << " |\n";
  };
  auto emit_rule = [&] {
    for (size_t i = 0; i < widths.size(); i++) {
      out << (i == 0 ? "+" : "+") << std::string(widths[i] + 2, '-');
    }
    out << "+\n";
  };
  emit_rule();
  emit_row(headers_);
  emit_rule();
  for (const auto& row : rows_) {
    emit_row(row);
  }
  emit_rule();
  return out.str();
}

std::string FormatPercent(double fraction) {
  char buf[32];
  const double pct = fraction * 100.0;
  if (pct != 0.0 && pct < 0.01) {
    std::snprintf(buf, sizeof(buf), "%.1e%%", pct);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f%%", pct);
  }
  return buf;
}

std::string FormatSeconds(VirtualTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f s",
                static_cast<double>(t) / static_cast<double>(kSecond));
  return buf;
}

}  // namespace arthas
