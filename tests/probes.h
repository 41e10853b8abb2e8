// Empirical probes for the paper's structural parameters:
//   f(r) — cache-friendliness (Def 2.1): a size-r task touches
//          O(r/B + f(r)) blocks;
//   L(r) — block sharing (Def 2.3): a size-r task shares O(L(r)) blocks with
//          tasks that could be scheduled in parallel with it.
// A test oracle: test_core checks it on hand-built traces and
// test_integration reads the paper's Table 1 shapes off it.
//
// Both are measured per sampled activation from the recorded trace for a
// probe block size B.  The L probe is a slight over-estimate: a block counts
// as shared if any activation that is neither an ancestor nor a descendant
// of τ touches it (sequenced-but-never-parallel phases are not excluded).
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ro/core/graph.h"
#include "ro/util/check.h"

namespace ro {

struct TaskProbe {
  uint32_t act = 0;
  uint32_t depth = 0;
  uint64_t r = 0;             // declared task size |τ|
  uint64_t blocks = 0;        // distinct blocks touched by τ's subtree
  uint64_t shared_blocks = 0; // blocks also touched by potentially-parallel tasks
  double f_excess = 0.0;      // blocks - r/B  (≈ f(r))
};

/// DFS intervals: for each activation, [in, out] such that u is an ancestor
/// of v iff in(u) <= in(v) && out(v) <= out(u).
struct Interval {
  uint32_t in = 0;
  uint32_t out = 0;
};

// Frame addresses live in a synthetic per-activation region far above the
// data segment, so data and stack accesses never collide in the probe maps.
// (Frame offsets are small; activations get 2^20 words of headroom each.)
inline uint64_t probe_addr(const Access& a, vaddr_t data_top) {
  if (a.act == kNoAct) return a.addr;
  return data_top + (static_cast<uint64_t>(a.act) << 20) + a.addr;
}

inline std::vector<Interval> dfs_intervals(const TaskGraph& g) {
  std::vector<Interval> iv(g.acts.size());
  uint32_t clock = 0;
  // Iterative DFS over the fork structure.
  struct Item {
    uint32_t act;
    uint32_t seg;   // next local segment to scan for children
    bool entered;
  };
  std::vector<Item> st;
  st.push_back({g.root, 0, false});
  while (!st.empty()) {
    Item& it = st.back();
    const Activation& a = g.acts[it.act];
    if (!it.entered) {
      iv[it.act].in = clock++;
      it.entered = true;
    }
    bool descended = false;
    while (it.seg + 1 < a.num_segs) {
      const Segment& s = g.segments[a.first_seg + it.seg];
      ++it.seg;
      if (s.has_fork()) {
        // push right then left so left is processed first (order does not
        // matter for intervals, but keep it deterministic).
        st.push_back({static_cast<uint32_t>(s.right), 0, false});
        st.push_back({static_cast<uint32_t>(s.left), 0, false});
        descended = true;
        break;
      }
    }
    if (!descended && it.seg + 1 >= a.num_segs) {
      iv[it.act].out = clock++;
      st.pop_back();
    }
  }
  return iv;
}

/// Picks up to `per_depth` activations at every depth (first-come), skipping
/// depth 0 (the root shares nothing by definition).
inline std::vector<uint32_t> sample_acts_per_depth(const TaskGraph& g,
                                                   uint32_t per_depth) {
  std::unordered_map<uint32_t, uint32_t> taken;
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < g.acts.size(); ++i) {
    const uint32_t d = g.acts[i].depth;
    if (d == 0) continue;
    if (taken[d] < per_depth) {
      ++taken[d];
      out.push_back(i);
    }
  }
  return out;
}

/// Probes the given activations with block size B (words).
inline std::vector<TaskProbe> probe_tasks(const TaskGraph& g,
                                          uint32_t block_words,
                                          const std::vector<uint32_t>& acts) {
  RO_CHECK(block_words > 0);
  const auto iv = dfs_intervals(g);

  // Map every access to its owning activation (by walking segments), and
  // per block collect up to K distinct accessor activations.  On overflow we
  // keep the accessors with extreme DFS in-times as representatives: for the
  // contiguous access ranges our algorithms produce, a block extends outside
  // a subtree iff one of the extreme accessors does (probe approximation).
  constexpr size_t kMaxAccessors = 8;
  struct BlockInfo {
    uint32_t accessors[kMaxAccessors];
    uint8_t wr[kMaxAccessors] = {};  // accessor ever wrote this block
    uint32_t min_act = 0;
    uint32_t max_act = 0;
    uint32_t min_in = 0xFFFFFFFFu;
    uint32_t max_in = 0;
    uint8_t count = 0;
    bool overflow = false;
    bool overflow_writes = false;  // some overflowed accessor wrote
    void add(uint32_t a, uint32_t in_time, bool write) {
      if (in_time < min_in) {
        min_in = in_time;
        min_act = a;
      }
      if (in_time >= max_in) {
        max_in = in_time;
        max_act = a;
      }
      for (uint8_t i = 0; i < count; ++i) {
        if (accessors[i] == a) {
          wr[i] |= write;
          return;
        }
      }
      if (count < kMaxAccessors) {
        wr[count] = write;
        accessors[count++] = a;
      } else {
        overflow = true;
        overflow_writes |= write;
      }
    }
  };
  std::unordered_map<uint64_t, BlockInfo> blocks;
  TraceStore::Cursor rd(*g.store);  // one pinned trace segment at a time
  for (uint32_t ai = 0; ai < g.acts.size(); ++ai) {
    const Activation& a = g.acts[ai];
    for (uint32_t k = 0; k < a.num_segs; ++k) {
      const Segment& s = g.segments[a.first_seg + k];
      for (uint64_t x = s.acc_begin; x < s.acc_end; ++x) {
        const Access acc = rd.at(x);
        const uint64_t addr = probe_addr(acc, g.data_top);
        const uint64_t last = addr + acc.len - 1;
        for (uint64_t b = addr / block_words; b <= last / block_words; ++b) {
          blocks[b].add(ai, iv[ai].in, acc.is_write());
        }
      }
    }
  }

  auto is_ancestor = [&](uint32_t u, uint32_t v) {
    return iv[u].in <= iv[v].in && iv[v].out <= iv[u].out;
  };

  // Child of LCA(x, other) on the path to x (requires neither being an
  // ancestor of the other).
  auto child_of_lca = [&](uint32_t x, uint32_t other) {
    uint32_t cur = x;
    while (!is_ancestor(g.acts[cur].parent, other)) {
      cur = g.acts[cur].parent;
    }
    return cur;
  };

  // Series-parallel test: v and w can be scheduled in parallel iff their
  // paths diverge at the SAME fork segment of their LCA (different children
  // of one fork).  Diverging across different segments means they are
  // sequenced and can never run concurrently.
  auto potentially_parallel = [&](uint32_t v, uint32_t w) {
    if (v == w || is_ancestor(v, w) || is_ancestor(w, v)) return false;
    const uint32_t cv = child_of_lca(v, w);
    const uint32_t cw = child_of_lca(w, v);
    return g.acts[cv].parent_seg == g.acts[cw].parent_seg;
  };

  std::vector<TaskProbe> out;
  out.reserve(acts.size());
  for (uint32_t v : acts) {
    const Activation& a = g.acts[v];
    // Subtree accesses are contiguous in the trace (DFS recording order).
    const uint64_t lo = g.segments[a.first_seg].acc_begin;
    const uint64_t hi = g.segments[a.first_seg + a.num_segs - 1].acc_end;
    // mine: blocks touched by v's subtree, with a did-we-write flag.
    std::unordered_map<uint64_t, bool> mine;
    for (uint64_t x = lo; x < hi; ++x) {
      const Access acc = rd.at(x);
      const uint64_t addr = probe_addr(acc, g.data_top);
      const uint64_t last = addr + acc.len - 1;
      for (uint64_t b = addr / block_words; b <= last / block_words; ++b) {
        mine[b] = mine[b] || acc.is_write();
      }
    }
    TaskProbe p;
    p.act = v;
    p.depth = a.depth;
    p.r = a.size;
    p.blocks = mine.size();
    p.f_excess = static_cast<double>(mine.size()) -
                 static_cast<double>(a.size) / block_words;
    if (p.f_excess < 0) p.f_excess = 0;
    // A block counts as shared (Def 2.3, the block-miss-relevant reading)
    // iff a potentially-parallel task accesses it AND at least one side of
    // the sharing writes — read-only sharing triggers no invalidations.
    for (const auto& [b, we_wrote] : mine) {
      const BlockInfo& bi = blocks.at(b);
      bool shared = false;
      if (bi.overflow) {
        const bool any_parallel = potentially_parallel(v, bi.min_act) ||
                                  potentially_parallel(v, bi.max_act);
        shared = any_parallel && (we_wrote || bi.overflow_writes);
      }
      for (uint8_t i = 0; i < bi.count && !shared; ++i) {
        shared = potentially_parallel(v, bi.accessors[i]) &&
                 (we_wrote || bi.wr[i]);
      }
      if (shared) ++p.shared_blocks;
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace ro
