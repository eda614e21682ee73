#include "bench_framework/table.hpp"

#include <cstdio>
#include <utility>

namespace cpq::bench {

Table::Table(std::string title, std::string row_header,
             std::vector<std::string> columns)
    : title_(std::move(title)),
      row_header_(std::move(row_header)),
      columns_(std::move(columns)) {}

void Table::add_row(const std::string& row_label,
                    std::vector<std::string> cells) {
  rows_.emplace_back(row_label, std::move(cells));
}

std::string Table::format_mean_ci(double mean, double ci) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f±%.2f", mean, ci);
  return buf;
}

std::string Table::format_mean_std(double mean, double stddev) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f (σ %.1f)", mean, stddev);
  return buf;
}

void Table::print() const {
  std::printf("\n== %s ==\n", title_.c_str());
  // Column widths.
  std::size_t label_width = row_header_.size();
  for (const auto& [label, cells] : rows_) {
    if (label.size() > label_width) label_width = label.size();
  }
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& [label, cells] : rows_) {
      if (c < cells.size() && cells[c].size() > widths[c]) {
        widths[c] = cells[c].size();
      }
    }
  }
  std::printf("%-*s", static_cast<int>(label_width + 2), row_header_.c_str());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%*s", static_cast<int>(widths[c] + 2), columns_[c].c_str());
  }
  std::printf("\n");
  for (const auto& [label, cells] : rows_) {
    std::printf("%-*s", static_cast<int>(label_width + 2), label.c_str());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string("-");
      std::printf("%*s", static_cast<int>(widths[c] + 2), cell.c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

}  // namespace cpq::bench
