// Host NUMA topology and worker-group partitioning for the work-stealing
// pool.  The paper's block-transfer bounds (Cole & Ramachandran, IPDPS
// 2012) assume steals are rare *and* cheap; on a multi-socket machine a
// random steal that crosses sockets pays the worst-case transfer cost the
// bounds are trying to contain.  The pool therefore partitions its workers
// into per-node groups and prefers same-group victims; this header owns
// the two inputs of that partition:
//
//   * NumaTopology — what the host actually looks like, read from
//     /sys/devices/system/node (one node holding every cpu when the sysfs
//     tree is absent: non-Linux hosts, containers, CI sandboxes);
//   * GroupLayout  — which worker belongs to which group: one group per
//     detected node for the engine's pools (numa_group_layout), or a
//     forced contiguous split so tests and benches behave identically on
//     any machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ro::rt {

/// One worker-group partition of a pool: group_of[w] is the group id of
/// worker w.  Empty = flat (the classic single-group pool).  Group ids
/// must be dense in [0, groups()).
struct GroupLayout {
  std::vector<uint32_t> group_of;

  /// Number of groups (max id + 1; 0 when the layout is empty/flat).
  uint32_t groups() const;

  /// True when the layout covers exactly `threads` workers with dense
  /// group ids and no empty group.
  bool valid(unsigned threads) const;

  /// `threads` workers split into `groups` contiguous blocks (the first
  /// `threads % groups` blocks get one extra worker).  groups is clamped
  /// to [1, threads].
  static GroupLayout contiguous(unsigned threads, uint32_t groups);
};

/// The host's NUMA node -> cpu map.
struct NumaTopology {
  std::vector<std::vector<int>> node_cpus;  // cpu ids per node, node order
  uint32_t nodes() const { return static_cast<uint32_t>(node_cpus.size()); }
};

/// Parses a sysfs cpulist ("0-3,8,10-11") into cpu ids.  Returns false on
/// malformed input; `out` is then unspecified.
bool parse_cpulist(const std::string& s, std::vector<int>& out);

/// Reads `root`/node*/cpulist (root defaults to the live sysfs tree).
/// Nodes whose cpulist is missing or cpu-less are skipped.  Falls back to
/// a single node holding every hardware thread when no node directory is
/// readable, so callers always get >= 1 node.
NumaTopology detect_topology(
    const std::string& root = "/sys/devices/system/node");

/// Group layout for `threads` pool workers: one group per detected NUMA
/// node (sysfs is read once per process), clamped to `threads`.  A
/// single-node host gets the flat one-group layout.  Always valid(threads).
GroupLayout numa_group_layout(unsigned threads);

}  // namespace ro::rt
