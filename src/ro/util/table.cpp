#include "ro/util/table.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace ro {

Table::Table(std::string title) : title_(std::move(title)) {}

Table& Table::header(std::vector<std::string> cols) {
  header_ = std::move(cols);
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v) {
  char buf[64];
  // Range first: casting NaN, an infinity or |v| >= 2^63 is undefined.
  if (v > -1e15 && v < 1e15 && v == std::trunc(v)) {
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  }
  return buf;
}

std::string Table::num(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string Table::num(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return buf;
}

std::string Table::render() const {
  size_t ncols = header_.size();
  for (const auto& r : rows_) ncols = std::max(ncols, r.size());
  std::vector<size_t> width(ncols, 0);
  auto widen = [&](const std::vector<std::string>& r) {
    for (size_t i = 0; i < r.size(); ++i)
      width[i] = std::max(width[i], r[i].size());
  };
  if (!header_.empty()) widen(header_);
  for (const auto& r : rows_) widen(r);

  std::string out;
  if (!title_.empty()) {
    out += "== " + title_ + " ==\n";
  }
  auto emit = [&](const std::vector<std::string>& r) {
    for (size_t i = 0; i < r.size(); ++i) {
      out += r[i];
      if (i + 1 < r.size()) out.append(width[i] - r[i].size() + 2, ' ');
    }
    out += '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    size_t total = 0;
    for (size_t i = 0; i < ncols; ++i) total += width[i] + 2;
    out.append(total > 2 ? total - 2 : total, '-');
    out += '\n';
  }
  for (const auto& r : rows_) emit(r);
  return out;
}

void Table::print() const {
  std::string s = render();
  std::fwrite(s.data(), 1, s.size(), stdout);
  std::fflush(stdout);
}

namespace {

// One CSV field: `cell` as is, or quoted with its quotes doubled.
std::string csv_field(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  return out + '"';
}

}  // namespace

bool Table::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  auto emit = [&](const std::vector<std::string>& r) {
    for (size_t i = 0; i < r.size(); ++i) {
      std::fputs(csv_field(r[i]).c_str(), f);
      if (i + 1 < r.size()) std::fputc(',', f);
    }
    std::fputc('\n', f);
  };
  if (!header_.empty()) emit(header_);
  for (const auto& r : rows_) emit(r);
  const bool ok = !std::ferror(f);
  return std::fclose(f) == 0 && ok;
}

}  // namespace ro
