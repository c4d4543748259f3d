// Aligned console tables for benchmark output.
//
// `dcm_run report` prints the paper's tables/figure series as plain-text
// tables; this gives them one consistent, diff-friendly format.
#pragma once

#include <string>
#include <vector>

namespace dcm {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  /// Convenience: formats doubles with the given precision.
  void add_row(const std::vector<double>& row, int precision = 3);

  /// Renders with column alignment and a header rule.
  std::string to_string() const;
  /// Renders to stdout.
  void print() const;

  size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double trimmed of trailing zeros ("12.5", "3", "0.04").
std::string format_number(double value, int max_precision = 4);

}  // namespace dcm
