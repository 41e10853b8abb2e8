// Committed goldens for the deterministic replay results: a golden row
// keeps a configuration's headline counters readable and pins everything
// else through an FNV-1a digest over every field of the Metrics (or
// ContentionProfile).  Replay is exact, so any change in any counter of
// any core moves the digest.  On a mismatch gtest prints the actual row
// in source form.
#pragma once

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ro/core/graph.h"
#include "ro/sim/contention.h"
#include "ro/sim/metrics.h"

namespace ro::testing {

class Fnv1a {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

inline uint64_t digest(const Metrics& m) {
  Fnv1a f;
  f.add(m.core.size());
  for (const CoreMetrics& c : m.core) {
    f.add(c.compute);
    for (const auto& space : c.miss) {
      for (const uint64_t v : space) f.add(v);
    }
    f.add(c.steals);
    f.add(c.steal_attempts);
    f.add(c.usurpations);
    f.add(c.idle);
    f.add(c.steal_cycles);
    f.add(c.finish);
    f.add(c.l2_hits);
    f.add(c.hold_waits);
  }
  f.add(m.makespan);
  f.add(m.steals_per_priority.size());
  for (const auto& [depth, steals] : m.steals_per_priority) {
    f.add(depth);
    f.add(steals);
  }
  f.add(m.max_block_transfers);
  f.add(m.total_block_transfers);
  f.add(m.stack_words);
  return f.value();
}

inline uint64_t digest(const ContentionProfile& p) {
  Fnv1a f;
  f.add(p.lines().size());
  for (const auto& [addr, line] : p.lines()) {
    f.add(addr);
    f.add(line.words.size());
    for (const auto& [word, ws] : line.words) {
      f.add(word);
      f.add(ws.invalidations_caused);
      f.add(ws.invalidations_suffered);
      f.add(ws.coherence_misses);
      f.add(ws.tasks.size());
      for (const auto& [act, events] : ws.tasks) {
        f.add(act);
        f.add(events);
      }
    }
    f.add(line.edges.size());
    for (const auto& [edge, weight] : line.edges) {
      f.add(edge.first);
      f.add(edge.second);
      f.add(weight);
    }
    f.add(line.false_events);
    f.add(line.true_events);
    f.add(line.transfers);
  }
  return f.value();
}

/// Every field of every activation and segment, every access record and
/// the graph's root and data range.
inline uint64_t digest(const TaskGraph& g) {
  Fnv1a f;
  f.add(g.acts.size());
  for (const Activation& a : g.acts) {
    f.add(a.parent);
    f.add(a.parent_seg);
    f.add(a.child_slot);
    f.add(a.depth);
    f.add(a.size);
    f.add(a.first_seg);
    f.add(a.num_segs);
    f.add(a.frame_words);
    f.add(a.fork_slot_base);
  }
  f.add(g.segments.size());
  for (const Segment& s : g.segments) {
    f.add(s.acc_begin);
    f.add(s.acc_end);
    f.add(static_cast<uint64_t>(static_cast<int64_t>(s.left)));
    f.add(static_cast<uint64_t>(static_cast<int64_t>(s.right)));
  }
  f.add(g.acc_count());
  TraceStore::Cursor rd(*g.store);
  for (uint64_t i = 0; i < g.acc_count(); ++i) {
    const Access& a = rd.at(i);
    f.add(a.addr);
    f.add(a.act);
    f.add(a.len);
    f.add(a.flags);
  }
  f.add(g.root);
  f.add(g.data_base);
  f.add(g.data_top);
  f.add(g.align_words);
  return f.value();
}

/// Four headline counters plus the digest of the whole result.
struct Golden {
  std::string name;
  uint64_t a = 0, b = 0, c = 0, d = 0;
  uint64_t digest = 0;

  friend bool operator==(const Golden&, const Golden&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Golden& g) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", 0x%016" PRIx64 "ull},",
                  g.name.c_str(), g.a, g.b, g.c, g.d, g.digest);
    return os << buf;
  }
};

/// Checks results, in order, against committed rows.  A result past the
/// end fails and prints its row, so a new table is filled by running the
/// test once against a trusted build.
class GoldenTable {
 public:
  explicit GoldenTable(std::vector<Golden> rows) : rows_(std::move(rows)) {}
  GoldenTable(const GoldenTable&) = delete;
  GoldenTable& operator=(const GoldenTable&) = delete;
  ~GoldenTable() { EXPECT_EQ(next_, rows_.size()) << "golden rows left over"; }

  void check(const Golden& actual) {
    if (next_ < rows_.size()) {
      EXPECT_EQ(actual, rows_[next_]);
    } else {
      ADD_FAILURE() << "no golden row for " << actual;
    }
    ++next_;
  }

 private:
  std::vector<Golden> rows_;
  size_t next_ = 0;
};

/// makespan, cache misses, block misses, steals + digest.
inline Golden golden_of(const std::string& name, const Metrics& m) {
  return Golden{name,           m.makespan, m.cache_misses(),
                m.block_misses(), m.steals(), digest(m)};
}

/// activations, segments, accesses, data words + digest.
inline Golden golden_of(const std::string& name, const TaskGraph& g) {
  return Golden{name,
                g.acts.size(),
                g.segments.size(),
                g.acc_count(),
                g.data_top - g.data_base,
                digest(g)};
}

/// false / true sharing events, transfers, hot lines + digest.
inline Golden golden_of(const std::string& name, const ContentionProfile& p) {
  return Golden{name,
                p.false_events(),
                p.true_events(),
                p.total_transfers(),
                p.hot_lines(),
                digest(p)};
}

}  // namespace ro::testing
