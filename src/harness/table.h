// Fixed-width text-table rendering for the bench binaries, which print the
// paper's tables and figure series.

#ifndef ARTHAS_HARNESS_TABLE_H_
#define ARTHAS_HARNESS_TABLE_H_

#include <string>
#include <vector>

#include "common/clock.h"

namespace arthas {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  std::string Render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// "12.3%" style formatting; uses enough precision for tiny fractions
// (Figure 9 reports values down to 3.1e-5%).
std::string FormatPercent(double fraction);

// Virtual time as seconds with one decimal, e.g. "103.6 s".
std::string FormatSeconds(VirtualTime t);

}  // namespace arthas

#endif  // ARTHAS_HARNESS_TABLE_H_
