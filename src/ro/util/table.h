// Aligned plain-text table printer + CSV writer for bench output.
//
// Every bench binary prints paper-style tables through this so the output of
// `for b in build/bench/*; do $b; done` is uniform and diffable.
#pragma once

#include <string>
#include <vector>

namespace ro {

/// Collects rows of strings and prints them with aligned columns.
class Table {
 public:
  explicit Table(std::string title = "");

  /// Sets the header row.
  Table& header(std::vector<std::string> cols);

  /// Appends one row; cells are stringified by the caller or via the
  /// convenience overloads below.
  Table& row(std::vector<std::string> cells);

  /// Convenience: formats doubles with %.4g (integral values below 1e15 as
  /// integers; NaN and infinities as "nan" / "inf"), integers as-is.
  static std::string num(double v);
  static std::string num(uint64_t v);
  static std::string num(int64_t v);
  static std::string num(int v) { return num(static_cast<int64_t>(v)); }
  static std::string num(uint32_t v) { return num(static_cast<uint64_t>(v)); }

  /// Renders the table to a string (also used by print()).
  std::string render() const;

  /// Prints to stdout.
  void print() const;

  /// Writes the table as CSV to `path`, quoting fields that hold a comma,
  /// a double quote or a line break (RFC 4180).  Returns false when the
  /// file cannot be written.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ro
