// ASCII table and chart rendering used by the benchmark harnesses to print
// paper tables/figures as text.
#pragma once

#include <string>
#include <vector>

namespace mtsched::core {

/// Column-aligned ASCII table builder.
class TextTable {
 public:
  /// Sets the header row (also fixes the column count).
  void set_header(std::vector<std::string> header);

  /// Appends a data row; must match the header's column count if set.
  void add_row(std::vector<std::string> row);

  /// Renders with a header rule, e.g. for bench output.
  std::string render() const;


 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision (fixed notation).
std::string fmt(double v, int precision = 3);

/// Shortest decimal that round-trips the double (std::to_chars default).
/// Deterministic: equal doubles always render to the same bytes, which
/// makes serialized output diffable across runs and thread counts.
std::string fmt_roundtrip(double v);

/// Horizontal ASCII bar of the given signed value scaled to `width` chars at
/// `full_scale`; negative values extend left of the axis mark.
std::string hbar(double value, double full_scale, int width = 30);

}  // namespace mtsched::core
