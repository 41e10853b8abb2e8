#include "ro/util/cli.h"

#include <cstdlib>
#include <cstring>

#include "ro/util/check.h"

namespace ro {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--", 2) != 0) {
      positional_.emplace_back(a);
      continue;
    }
    std::string s(a + 2);
    auto eq = s.find('=');
    if (eq != std::string::npos) {
      flags_[s.substr(0, eq)] = s.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags_[s] = argv[++i];
    } else {
      // Not `= "1"`: gcc 12 at -O3 reports a bogus -Wrestrict inside
      // std::string::assign(const char*) for that form.
      flags_[s] = std::string(1, '1');
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

int64_t Cli::get_int(const std::string& name, int64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  const int64_t v = std::strtoll(begin, &end, 0);
  if (end == begin) return def;  // no digits at all: fall back
  RO_CHECK_MSG(*end == '\0', "integer flag has trailing garbage");
  return v;
}

double Cli::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) return def;  // no digits at all: fall back
  RO_CHECK_MSG(*end == '\0', "numeric flag has trailing garbage");
  return v;
}

std::string Cli::get_str(const std::string& name,
                         const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

}  // namespace ro
