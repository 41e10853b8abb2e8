// Shared helpers for the algorithm test suites: run an algorithm under
// SeqCtx for the golden output, re-run under TraceCtx, check equality, and
// optionally replay under every scheduler (through the shared Engine) to
// assert engine invariants; plus the schedule oracles the tests compare
// against (all three schedulers on one graph, and Q(n, M, B)), and the
// trace families the streaming and batch suites share.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/route.h"
#include "ro/alg/spms.h"
#include "ro/core/seq_ctx.h"
#include "ro/core/trace_ctx.h"
#include "ro/core/validate.h"
#include "ro/engine/engine.h"
#include "ro/sched/replay.h"
#include "ro/util/rng.h"

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

/// The three trace families the streaming and batch suites run through
/// every pipeline: a sort-routed gather ("route": two sorts and three BP
/// scans per call), list ranking, and SPMS.
inline auto prog_route(size_t n) {
  using alg::i64;
  return [n](auto& cx) {
    auto idx = cx.template alloc<i64>(n, "idx");
    auto val = cx.template alloc<i64>(n, "val");
    Rng rng(n * 31 + 5);
    for (size_t i = 0; i < n; ++i) {
      idx.raw()[i] = static_cast<i64>(rng.next_below(n));
      val.raw()[i] = static_cast<i64>(rng.next_below(1000));
    }
    auto out = cx.template alloc<i64>(n, "out");
    cx.run(2 * n, [&] {
      alg::gather(cx, alg::StridedView{idx.slice()},
                  alg::StridedView{val.slice()},
                  alg::StridedView{out.slice()}, n);
    });
  };
}

inline auto prog_listrank(size_t n) {
  using alg::i64;
  const auto succ = alg::random_list(n, n * 7 + 3);
  return [n, succ](auto& cx) {
    auto s = cx.template alloc<i64>(n, "succ");
    std::copy(succ.begin(), succ.end(), s.raw());
    auto r = cx.template alloc<i64>(n, "rank");
    cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
  };
}

inline auto prog_spms(size_t n) {
  using alg::i64;
  return [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n + 17);
    for (size_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next() >> 1);
    auto o = cx.template alloc<i64>(n, "o");
    cx.run(2 * n, [&] { alg::spms(cx, a.slice(), o.slice()); });
  };
}

/// Limited-access assertion with an explicit bound (Def 2.4).
inline void check_limited(const TaskGraph& g, uint32_t k = 2) {
  const auto rep = ro::check_limited_access(g);
  EXPECT_LE(rep.max_writes_per_location, k);
}

}  // namespace ro::testing
