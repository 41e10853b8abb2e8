#pragma once

// The repo's one JSON emit/scan layer, shared by the report, job, serve
// and doctor layers.  The dialect is the one RunReport::to_json has always
// produced: one object of "key":value pairs where values are escaped
// strings, numbers, flat numeric arrays, or nested objects / object arrays
// captured raw (and scanned again by the reader that owns them).
// Not a general JSON parser — exactly the shapes this repo writes.
// Wire objects name each key once, in a field list that a Writer and a
// Reader both walk (the end of this file).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
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

template <class T>
void kv(std::string& s, const char* key, const std::vector<T>& v) {
  std::string arr = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) arr += ",";
    arr += std::to_string(uint64_t{v[i]});
  }
  arr += "]";
  append_kv(s, key, arr, false);
}

inline void kv_str(std::string& s, const char* key, const std::string& v) {
  append_kv(s, key, escape(v), true);
}

/// Appends pre-serialized JSON (a nested object or array) verbatim.
inline void kv_raw(std::string& s, const char* key, const std::string& raw) {
  append_kv(s, key, raw, false);
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

// ---- enum names ----

/// One wire name of an enum value.  A value may have several: the first
/// in its table is written, the others are aliases readers accept.
template <class E>
struct EnumName {
  E value;
  const char* name;
};

/// An enum's names and the noun a refusal calls it by.  Each wire enum E
/// provides `EnumNames<E> wire_names(E)`, found by argument-dependent
/// lookup.
template <class E>
struct EnumNames {
  const char* noun;
  std::span<const EnumName<E>> names;
};

template <class E>
const char* enum_name(E e) {
  for (const EnumName<E>& n : wire_names(e).names)
    if (n.value == e) return n.name;
  return "?";
}

/// False, leaving `out` untouched, on a name the table does not list.
template <class E>
bool parse_enum(const std::string& name, E& out) {
  for (const EnumName<E>& n : wire_names(E{}).names) {
    if (name == n.name) {
      out = n.value;
      return true;
    }
  }
  return false;
}

// ---- field lists ----
//
// A wire object S has one `template <class V> void fields(S& s, V& v)`,
// in the namespace of S, that names each key once, in written order:
//
//   v(key, field)       a string, unsigned integer, bool (0 / 1), double
//                       (%.4f), enum (by name), struct with a field list,
//                       or a vector of unsigned integers or of structs
//   v(key, opt, noun)   an optional struct, written when set; a reader
//                       refuses a bad one as "malformed <noun> object"
//   v(key, obj, write, read)  an object (or vector of them) with its own
//                       codec: write(obj) gives the JSON, read(json, obj)
//                       parses it back
//   v.when(cond, body)  body's keys are written only when cond holds
//   v.section(has, body)  ... only when `has`; reading any of them sets it
//   v.emit(key, make)   make() written, never read back
//
// A Writer appends the keys in that order.  A Reader takes the document's
// keys in their order, each into the field it names, and skips unknown
// keys, so newer writers stay readable.  A new field is one line.

template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;

template <class S>
std::string write_object(const S& s);
template <class S>
bool read_object(const std::string& text, S& s);

/// `v` as an array of objects, each written by `one(e)`.
template <class T, class F>
std::string write_list(const std::vector<T>& v, F one) {
  std::string arr = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) arr += ",";
    arr += std::invoke(one, v[i]);
  }
  return arr + "]";
}

/// Appends one element per object of the array `text`, each read by
/// `one(json, e)`; false at the first element refused (a cut-off object
/// ends the list).
template <class T, class F>
bool read_list(const std::string& text, std::vector<T>& out, F one) {
  std::string e;
  for (size_t i = 0; i < text.size();) {
    if (text[i] != '{') ++i;
    else if (!capture_balanced(text, i, e)) break;
    else if (!one(e, out.emplace_back())) return false;
  }
  return true;
}

class Writer {
 public:
  /// The object so far, closed.
  std::string take() && { return std::move(s_ += "}"); }

  template <class T>
  void operator()(const char* key, const T& v) {
    if constexpr (std::is_same_v<T, std::string>) kv_str(s_, key, v);
    else if constexpr (std::is_enum_v<T>) kv_str(s_, key, enum_name(v));
    else if constexpr (std::is_unsigned_v<T>) kv(s_, key, uint64_t{v});
    else if constexpr (std::is_same_v<T, double>) kv(s_, key, v);
    else if constexpr (!kIsVector<T>) kv_raw(s_, key, write_object(v));
    else if constexpr (std::is_unsigned_v<typename T::value_type>)
      kv(s_, key, v);
    else kv_raw(s_, key, write_list(v, write_object<typename T::value_type>));
  }
  template <class T>
  void operator()(const char* key, const std::optional<T>& v, const char*) {
    if (v) (*this)(key, *v);
  }
  template <class T, class W, class R>
  void operator()(const char* key, const T& v, W write, R) {
    if constexpr (kIsVector<T>) kv_raw(s_, key, write_list(v, write));
    else kv_raw(s_, key, std::invoke(write, v));
  }
  template <class F>
  void when(bool cond, F&& body) { if (cond) body(); }
  template <class F>
  void section(bool has, F&& body) { if (has) body(); }
  template <class F>
  void emit(const char* key, F&& make) { (*this)(key, make()); }

 private:
  std::string s_ = "{";
};

class Reader {
 public:
  using Pairs = std::vector<std::pair<std::string, std::string>>;

  /// Hands each pair to the field `walk(*this)` names by its key.  False
  /// when a value is refused; error() then says why, where the refusal
  /// has a message.
  template <class Walk>
  bool read(const Pairs& kvs, Walk&& walk) {
    for (const auto& [k, v] : kvs) {
      key_ = k.c_str();
      val_ = &v;
      found_ = false;
      walk(*this);
      if (!ok_) return false;
    }
    return true;
  }
  const std::string& error() const { return error_; }

  template <class T>
  void operator()(const char* key, T& f) {
    if (!hit(key)) return;
    const std::string& v = *val_;
    if constexpr (std::is_same_v<T, std::string>) {
      f = v;
    } else if constexpr (std::is_enum_v<T>) {
      if (!parse_enum(v, f))
        fail("unknown " + std::string(wire_names(f).noun) + " \"" + v + "\"");
    } else if constexpr (std::is_unsigned_v<T>) {
      f = static_cast<T>(std::strtoull(v.c_str(), nullptr, 10));
    } else if constexpr (std::is_same_v<T, double>) {
      f = std::strtod(v.c_str(), nullptr);
    } else if constexpr (!kIsVector<T>) {
      ok_ = read_object(v, f);
    } else if constexpr (std::is_unsigned_v<typename T::value_type>) {
      const std::vector<uint64_t> xs = as_u64_list(v);
      f.assign(xs.begin(), xs.end());
    } else {
      ok_ = read_list(v, f, read_object<typename T::value_type>);
    }
  }
  template <class T>
  void operator()(const char* key, std::optional<T>& f, const char* noun) {
    if (hit(key) && !read_object(*val_, f.emplace()))
      fail("malformed " + std::string(noun) + " object");
  }
  template <class T, class W, class R>
  void operator()(const char* key, T& f, W, R read) {
    if (!hit(key)) return;
    if constexpr (kIsVector<T>) ok_ = read_list(*val_, f, read);
    else ok_ = read(*val_, f);
  }
  template <class F>
  void when(bool, F&& body) { body(); }
  template <class F>
  void section(bool& has, F&& body) {
    const bool before = found_;
    body();
    if (found_ && !before) has = true;
  }
  template <class F>
  void emit(const char* key, F&&) { hit(key); }

 private:
  /// True for the first field named `key`: the current pair's field.
  bool hit(const char* key) {
    if (found_ || std::strcmp(key, key_) != 0) return false;
    return found_ = true;
  }
  void fail(std::string why) {
    ok_ = false;
    error_ = std::move(why);
  }

  const char* key_ = "";
  const std::string* val_ = nullptr;
  bool found_ = false;
  bool ok_ = true;
  std::string error_;
};

/// Reads the object `text` into the fields `walk(Reader&)` visits.
template <class Walk>
bool read(const std::string& text, Walk&& walk) {
  Reader::Pairs kvs;
  return scan_object(text, kvs) && Reader().read(kvs, walk);
}

/// `s` as one object by its field list.  fields() takes `s` mutable so
/// one list serves both directions; a Writer only reads through it.
template <class S>
std::string write_object(const S& s) {
  Writer w;
  fields(const_cast<S&>(s), w);
  return std::move(w).take();
}

template <class S>
bool read_object(const std::string& text, S& s) {
  return read(text, [&](Reader& r) { fields(s, r); });
}

}  // namespace ro::json
