// Shared helpers for the algorithm test suites: run an algorithm under
// SeqCtx for the golden output, re-run under TraceCtx, check equality, and
// optionally replay under every scheduler (through the shared Engine) to
// assert engine invariants; plus the schedule oracles the tests compare
// against (all three schedulers on one graph, and Q(n, M, B)).
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "ro/core/seq_ctx.h"
#include "ro/core/trace_ctx.h"
#include "ro/core/validate.h"
#include "ro/engine/engine.h"
#include "ro/sched/replay.h"

namespace ro::testing {

/// Process-wide Engine shared by the test suites (replay only creates no
/// thread pools; parallel-backend tests size their own pools explicitly).
inline Engine& engine() {
  static Engine e;
  return e;
}

/// Replays `g` under SEQ/PWS/RWS at a default machine and asserts the
/// engine-level invariants that must hold for every recorded computation.
inline void check_schedulers(const TaskGraph& g, uint32_t p = 4,
                             uint64_t M = 1 << 12, uint32_t B = 32) {
  SimConfig cfg;
  cfg.p = p;
  cfg.M = M;
  cfg.B = B;
  const GraphStats st = g.analyze();  // once for all four replays
  const Metrics seq =
      engine().replay(g, Backend::kSeq, cfg, /*seq_baseline=*/false, "", &st)
          .sim;
  EXPECT_EQ(seq.block_misses(), 0u);
  EXPECT_EQ(seq.steals(), 0u);
  const Metrics pws =
      engine().replay(g, Backend::kSimPws, cfg, false, "", &st).sim;
  const Metrics rws =
      engine().replay(g, Backend::kSimRws, cfg, false, "", &st).sim;
  // Same computation: identical total compute under every scheduler.
  EXPECT_EQ(seq.compute(), pws.compute());
  EXPECT_EQ(seq.compute(), rws.compute());
  // Determinism of PWS.
  const Metrics pws2 =
      engine().replay(g, Backend::kSimPws, cfg, false, "", &st).sim;
  EXPECT_EQ(pws.makespan, pws2.makespan);
  EXPECT_EQ(pws.block_misses(), pws2.block_misses());
  // Note: makespan <= seq and the per-priority steal bound (Obs 4.3) are
  // asserted in test_sched on single-BP graphs with n >> overheads; they do
  // not hold for arbitrary tiny or heavily-sequenced computations.
}

/// One graph under all three schedulers at one config.
struct SchedComparison {
  Metrics seq;  // p = 1 -> Q(n, M, B) in cold+capacity misses
  Metrics pws;
  Metrics rws;
};

inline SchedComparison compare_schedulers(const TaskGraph& g,
                                          const SimConfig& cfg) {
  return {simulate(g, SchedKind::kSeq, cfg), simulate(g, SchedKind::kPws, cfg),
          simulate(g, SchedKind::kRws, cfg)};
}

/// Sequential cache complexity Q(n, M, B): cold + capacity misses of the
/// depth-first single-core execution (coherence misses are zero there).
inline uint64_t q_seq(const TaskGraph& g, const SimConfig& cfg) {
  return simulate(g, SchedKind::kSeq, cfg).cache_misses();
}

/// Every access record of `g` in stream order.
inline std::vector<Access> accesses_of(const TaskGraph& g) {
  std::vector<Access> out;
  out.reserve(g.acc_count());
  TraceStore::Cursor rd(*g.store);
  for (uint64_t i = 0; i < g.acc_count(); ++i) out.push_back(rd.at(i));
  return out;
}

/// Limited-access assertion with an explicit bound (Def 2.4).
inline void check_limited(const TaskGraph& g, uint32_t k = 2) {
  const auto rep = ro::check_limited_access(g);
  EXPECT_LE(rep.max_writes_per_location, k);
}

}  // namespace ro::testing
