#include "ro/rt/numa.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace ro::rt {

uint32_t GroupLayout::groups() const {
  uint32_t g = 0;
  for (uint32_t id : group_of) g = std::max(g, id + 1);
  return g;
}

bool GroupLayout::valid(unsigned threads) const {
  if (group_of.size() != threads) return false;
  const uint32_t g = groups();
  if (g == 0) return false;
  std::vector<bool> seen(g, false);
  for (uint32_t id : group_of) {
    if (id >= g) return false;
    seen[id] = true;
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

GroupLayout GroupLayout::contiguous(unsigned threads, uint32_t groups) {
  GroupLayout l;
  if (threads == 0) return l;
  groups = std::max<uint32_t>(1, std::min<uint32_t>(groups, threads));
  l.group_of.resize(threads);
  const unsigned base = threads / groups;
  const unsigned extra = threads % groups;
  unsigned w = 0;
  for (uint32_t g = 0; g < groups; ++g) {
    const unsigned take = base + (g < extra ? 1 : 0);
    for (unsigned k = 0; k < take; ++k) l.group_of[w++] = g;
  }
  return l;
}

bool parse_cpulist(const std::string& s, std::vector<int>& out) {
  out.clear();
  size_t i = 0;
  const size_t n = s.size();
  auto skip_ws = [&] {
    while (i < n && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  };
  skip_ws();
  if (i == n) return true;  // empty list = cpu-less node
  while (i < n) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
    long lo = 0;
    while (i < n && std::isdigit(static_cast<unsigned char>(s[i])))
      lo = lo * 10 + (s[i++] - '0');
    long hi = lo;
    if (i < n && s[i] == '-') {
      ++i;
      if (i >= n || !std::isdigit(static_cast<unsigned char>(s[i])))
        return false;
      hi = 0;
      while (i < n && std::isdigit(static_cast<unsigned char>(s[i])))
        hi = hi * 10 + (s[i++] - '0');
    }
    if (hi < lo || hi - lo > 4096) return false;
    for (long c = lo; c <= hi; ++c) out.push_back(static_cast<int>(c));
    skip_ws();
    if (i == n) break;
    if (s[i] != ',') return false;
    ++i;
    skip_ws();
    if (i == n) return false;  // trailing comma
  }
  return true;
}

NumaTopology detect_topology(const std::string& root) {
  NumaTopology topo;
  // Nodes are numbered densely from 0 in practice, but holes are legal
  // (offlined sockets); scan a generous id range and keep what reads.
  for (int node = 0; node < 1024; ++node) {
    const std::string path =
        root + "/node" + std::to_string(node) + "/cpulist";
    std::ifstream f(path);
    if (!f) {
      if (node >= 64 && !topo.node_cpus.empty()) break;  // past any hole
      continue;
    }
    std::string line;
    std::getline(f, line);
    std::vector<int> cpus;
    if (parse_cpulist(line, cpus) && !cpus.empty()) {
      topo.node_cpus.push_back(std::move(cpus));
    }
  }
  if (topo.node_cpus.empty()) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    std::vector<int> all(hw);
    for (unsigned c = 0; c < hw; ++c) all[c] = static_cast<int>(c);
    topo.node_cpus.push_back(std::move(all));
  }
  return topo;
}

GroupLayout numa_group_layout(unsigned threads) {
  // Topology is fixed for the process lifetime; scan sysfs once.
  static const uint32_t detected = detect_topology().nodes();
  return GroupLayout::contiguous(threads, detected);
}

}  // namespace ro::rt
