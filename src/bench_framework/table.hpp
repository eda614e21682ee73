// ASCII table output for the bench driver.
//
// Every table uses the layout the paper's figures encode: one row per
// thread count, one column per queue, cell = mean ± 95% CI. Machine-readable
// results go through the JSON-lines sink (json_out.hpp), not the tables.
#pragma once

#include <string>
#include <vector>

namespace cpq::bench {

class Table {
 public:
  // `title` describes the experiment (e.g. "Fig. 1: uniform workload,
  // uniform keys (32 bit) — throughput [MOps/s]").
  Table(std::string title, std::string row_header,
        std::vector<std::string> columns);

  // Add a row; `cells` must match the column count. Cells are preformatted.
  void add_row(const std::string& row_label, std::vector<std::string> cells);

  // Render to stdout.
  void print() const;

  static std::string format_mean_ci(double mean, double ci);
  static std::string format_mean_std(double mean, double stddev);

 private:
  std::string title_;
  std::string row_header_;
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::vector<std::string>>> rows_;
};

}  // namespace cpq::bench
