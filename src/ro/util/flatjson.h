#pragma once

// The repo's one JSON emit/scan layer, shared by the report, job, serve
// and doctor layers.  The dialect is the one RunReport::to_json has always
// produced: one object of "key":value pairs where values are escaped
// strings, numbers, flat numeric arrays, or nested objects / object arrays
// captured raw (and scanned again by the reader that owns them).
// Not a general JSON parser — exactly the shapes this repo writes.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace ro::json {

inline std::string escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline void append_kv(std::string& s, const char* key, const std::string& val,
                      bool quote) {
  if (s.size() > 1) s += ",";
  s += "\"";
  s += key;
  s += "\":";
  if (quote) s += "\"";
  s += val;
  if (quote) s += "\"";
}

inline void kv(std::string& s, const char* key, uint64_t v) {
  append_kv(s, key, std::to_string(v), false);
}

inline void kv(std::string& s, const char* key, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  append_kv(s, key, buf, false);
}

inline void kv(std::string& s, const char* key,
               const std::vector<uint64_t>& v) {
  std::string arr = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) arr += ",";
    arr += std::to_string(v[i]);
  }
  arr += "]";
  append_kv(s, key, arr, false);
}

inline void kv_str(std::string& s, const char* key, const std::string& v) {
  append_kv(s, key, escape(v), true);
}

/// Appends pre-serialized JSON (a nested object or array) verbatim.
inline void kv_raw(std::string& s, const char* key, const std::string& raw) {
  if (s.size() > 1) s += ",";
  s += "\"";
  s += key;
  s += "\":";
  s += raw;
}

/// Reads the string literal at j[i] into `out` (unescaped) and advances i
/// past its closing quote; false when j[i] is not a quote or the literal
/// is cut off.
inline bool scan_string(const std::string& j, size_t& i, std::string& out) {
  if (i >= j.size() || j[i] != '"') return false;
  ++i;
  out.clear();
  while (i < j.size() && j[i] != '"') {
    if (j[i] == '\\') {
      if (i + 1 >= j.size()) return false;
      const char e = j[i + 1];
      if (e == 'n') out += '\n';
      else if (e == 't') out += '\t';
      else if (e == 'r') out += '\r';
      else if (e == 'u') {
        if (i + 5 >= j.size()) return false;
        out += static_cast<char>(
            std::strtoul(j.substr(i + 2, 4).c_str(), nullptr, 16));
        i += 4;
      } else out += e;  // \" \\ \/ and friends
      i += 2;
    } else {
      out += j[i++];
    }
  }
  if (i >= j.size()) return false;
  ++i;  // closing quote
  return true;
}

/// Captures the balanced {...} or [...] value at j[i] raw into `out` and
/// advances i past it, skipping strings so braces inside labels don't
/// miscount.  The one balanced-value scanner of the dialect.
inline bool capture_balanced(const std::string& j, size_t& i,
                             std::string& out) {
  const size_t v0 = i;
  int depth = 0;
  std::string tmp;
  while (i < j.size()) {
    const char c = j[i];
    if (c == '"') {
      if (!scan_string(j, i, tmp)) return false;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ++i;
    if (depth == 0) break;
  }
  if (depth != 0) return false;
  out = j.substr(v0, i - v0);
  return true;
}

/// Tokenizes one JSON object {"key":value,...} into key -> raw value
/// (strings unescaped, numbers verbatim, arrays and nested objects captured
/// raw with their brackets, nesting and embedded strings respected).
/// Starts at the first '{' in `j`.
inline bool scan_object(const std::string& j,
                        std::vector<std::pair<std::string, std::string>>& kvs) {
  size_t i = j.find('{');
  if (i == std::string::npos) return false;
  ++i;
  auto skip_ws = [&] {
    while (i < j.size() && (j[i] == ' ' || j[i] == '\n' || j[i] == '\t' ||
                            j[i] == '\r' || j[i] == ','))
      ++i;
  };
  while (true) {
    skip_ws();
    if (i >= j.size()) return false;
    if (j[i] == '}') return true;
    std::string key;
    if (!scan_string(j, i, key)) return false;
    skip_ws();
    if (i >= j.size() || j[i] != ':') return false;
    ++i;
    skip_ws();
    std::string val;
    if (i < j.size() && j[i] == '"') {
      if (!scan_string(j, i, val)) return false;
    } else if (i < j.size() && (j[i] == '[' || j[i] == '{')) {
      if (!capture_balanced(j, i, val)) return false;
    } else {
      const size_t v0 = i;
      while (i < j.size() && j[i] != ',' && j[i] != '}') ++i;
      val = j.substr(v0, i - v0);
      if (val.empty()) return false;
    }
    kvs.emplace_back(std::move(key), std::move(val));
  }
}

inline uint64_t as_u64(const std::string& v) {
  return std::strtoull(v.c_str(), nullptr, 10);
}

inline double as_double(const std::string& v) {
  return std::strtod(v.c_str(), nullptr);
}

/// Parses a raw "[1,2,3]" capture into numbers ("[]" -> empty).
inline std::vector<uint64_t> as_u64_list(const std::string& v) {
  std::vector<uint64_t> out;
  size_t i = 1;  // skip '['
  while (i < v.size() && v[i] != ']') {
    char* end = nullptr;
    const uint64_t x = std::strtoull(v.c_str() + i, &end, 10);
    if (end == v.c_str() + i) break;  // malformed element: stop, don't spin
    out.push_back(x);
    i = static_cast<size_t>(end - v.c_str());
    if (i < v.size() && v[i] == ',') ++i;
  }
  return out;
}

/// Splits a raw "[{...},{...}]" capture into the element objects (a
/// cut-off object ends the list).
inline std::vector<std::string> as_object_list(const std::string& v) {
  std::vector<std::string> out;
  size_t i = 0;
  std::string elem;
  while (i < v.size()) {
    if (v[i] != '{') {
      ++i;
    } else if (capture_balanced(v, i, elem)) {
      out.push_back(std::move(elem));
    } else {
      break;
    }
  }
  return out;
}

}  // namespace ro::json
