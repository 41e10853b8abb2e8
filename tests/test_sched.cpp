// Scheduler tests: work-stealing semantics, PWS priority discipline
// (Obs 4.3 / Cor 4.1), usurpations (Lemma 4.6), determinism, padding.
#include <gtest/gtest.h>

#include "ro/alg/mt.h"
#include "ro/alg/scan.h"
#include "ro/core/trace_ctx.h"
#include "ro/engine/workloads.h"
#include "ro/sched/run.h"
#include "golden.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;

TaskGraph scan_graph(size_t n, bool padded = false) {
  TraceCtx::Options opt;
  opt.padded = padded;
  TraceCtx cx(opt);
  auto a = cx.alloc<i64>(n, "a");
  for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(i);
  auto out = cx.alloc<i64>(1, "out");
  return cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice()); });
}

SimConfig base_cfg(uint32_t p) {
  SimConfig c;
  c.p = p;
  c.M = 1 << 12;
  c.B = 32;
  return c;
}

TEST(Sched, SeqReplaysEveryAccess) {
  TaskGraph g = scan_graph(512);
  const GraphStats st = g.analyze();
  SimConfig cfg = base_cfg(1);
  cfg.inject_frame_traffic = false;
  const Metrics m = simulate(g, SchedKind::kSeq, cfg);
  uint64_t trace_words = 0;
  AccessReader rd(g);
  for (uint64_t i = 0; i < g.acc_count(); ++i) trace_words += rd.at(i).len;
  EXPECT_EQ(m.compute(), trace_words);
  EXPECT_EQ(m.steals(), 0u);
  EXPECT_EQ(m.block_misses(), 0u);
  EXPECT_EQ(m.usurpations(), 0u);
  EXPECT_LE(st.span, m.makespan);
}

TEST(Sched, DeterministicPws) {
  TaskGraph g = scan_graph(2048);
  const SimConfig cfg = base_cfg(8);
  const Metrics a = simulate(g, SchedKind::kPws, cfg);
  const Metrics b = simulate(g, SchedKind::kPws, cfg);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.cache_misses(), b.cache_misses());
  EXPECT_EQ(a.block_misses(), b.block_misses());
  EXPECT_EQ(a.steals(), b.steals());
}

TEST(Sched, RwsSeedChangesScheduleButNotResult) {
  TaskGraph g = scan_graph(2048);
  SimConfig cfg = base_cfg(8);
  cfg.seed = 1;
  const Metrics a = simulate(g, SchedKind::kRws, cfg);
  cfg.seed = 2;
  const Metrics b = simulate(g, SchedKind::kRws, cfg);
  cfg.seed = 1;
  const Metrics a2 = simulate(g, SchedKind::kRws, cfg);
  EXPECT_EQ(a.makespan, a2.makespan);  // same seed -> same schedule
  EXPECT_TRUE(a.makespan != b.makespan || a.steals() != b.steals());
}

class PwsStealBounds : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PwsStealBounds, AtMostPMinus1StealsPerPriority) {
  const uint32_t p = GetParam();
  TaskGraph g = scan_graph(4096);
  const Metrics m = simulate(g, SchedKind::kPws, base_cfg(p));
  // Observation 4.3.
  EXPECT_LE(m.max_steals_at_one_priority(), p - 1)
      << "p=" << p << " violates Obs 4.3";
  // Corollary 4.1: attempts <= 2 p D' (D' = number of distinct priorities).
  const GraphStats st = g.analyze();
  const uint64_t dprime = st.max_depth + 1;
  EXPECT_LE(m.steal_attempts(), 2 * uint64_t{p} * dprime * 2)
      << "steal attempts far above Cor 4.1 scale";
}

INSTANTIATE_TEST_SUITE_P(P, PwsStealBounds, ::testing::Values(2, 4, 8, 16));

TEST(Sched, UsurpationsBoundedPerCollection) {
  // A single BP computation is one collection: Lemma 4.6 bounds usurpers by
  // p-1 per collection; with D' priority levels the total is O(p·D').
  const uint32_t p = 8;
  TaskGraph g = scan_graph(4096);
  const GraphStats st = g.analyze();
  const Metrics m = simulate(g, SchedKind::kPws, base_cfg(p));
  EXPECT_LE(m.usurpations(), uint64_t{p} * (st.max_depth + 1));
}

TEST(Sched, SpeedupWithMoreCores) {
  TaskGraph g = scan_graph(1 << 14);
  const Metrics m1 = simulate(g, SchedKind::kSeq, base_cfg(1));
  const Metrics m8 = simulate(g, SchedKind::kPws, base_cfg(8));
  EXPECT_LT(m8.makespan, m1.makespan / 3) << "PWS should give real speedup";
}

TEST(Sched, StolenSubtreeRunsOnThiefArena) {
  // Stack space grows with steals (each stolen kernel opens a new S_τ).
  TaskGraph g = scan_graph(1 << 10);
  const Metrics m1 = simulate(g, SchedKind::kSeq, base_cfg(1));
  const Metrics m8 = simulate(g, SchedKind::kPws, base_cfg(8));
  EXPECT_GT(m8.stack_words, m1.stack_words);
}

TEST(Sched, PaddingReducesStackBlockMisses) {
  TaskGraph plain = scan_graph(1 << 13, /*padded=*/false);
  TaskGraph padded = scan_graph(1 << 13, /*padded=*/true);
  SimConfig cfg = base_cfg(8);
  cfg.B = 64;
  const Metrics mp = simulate(plain, SchedKind::kPws, cfg);
  const Metrics mq = simulate(padded, SchedKind::kPws, cfg);
  // §4.7: padded frames cut block waits at stolen-task boundaries.  The
  // effect is on *stack* coherence misses.
  uint64_t plain_stack_coh = 0;
  uint64_t padded_stack_coh = 0;
  for (const auto& c : mp.core) plain_stack_coh += c.miss[1][2];
  for (const auto& c : mq.core) padded_stack_coh += c.miss[1][2];
  EXPECT_LE(padded_stack_coh, plain_stack_coh);
}

TEST(Sched, BlockMissesVanishWithoutConcurrency) {
  TaskGraph g = scan_graph(1 << 12);
  for (SchedKind k : {SchedKind::kPws, SchedKind::kRws}) {
    SimConfig cfg = base_cfg(4);
    const Metrics m = simulate(g, k, cfg);
    const Metrics s = simulate(g, SchedKind::kSeq, cfg);
    EXPECT_EQ(s.block_misses(), 0u);
    EXPECT_GE(m.total_block_transfers, m.block_misses());
  }
}

TEST(Sched, MakespanBracketedByWorkAndSpan) {
  TaskGraph g = scan_graph(1 << 12);
  const GraphStats st = g.analyze();
  for (uint32_t p : {2u, 4u, 16u}) {
    const Metrics m = simulate(g, SchedKind::kPws, base_cfg(p));
    EXPECT_GE(m.makespan, st.span);
    EXPECT_GE(m.makespan, st.work / p);  // work law
  }
}

TEST(Sched, EffectiveStealLatencyDefault) {
  SimConfig cfg;
  cfg.p = 8;
  cfg.miss_latency = 32;
  EXPECT_EQ(cfg.effective_steal_latency(), 32u * (1 + 3));
  cfg.steal_latency = 7;
  EXPECT_EQ(cfg.effective_steal_latency(), 7u);
}

// High-steal machines: at p = 16 on a small cache every steal opens a
// fresh stack arena, so the walk's address space is mostly untouched
// stack chunks and the coherence directory sees block ids far apart.
// The rows were taken from the dense-directory replayer; besides the
// digest they show makespan, block misses, steals and stack_words.  The
// write-hold machine reaches the per-block hold check, the L2 machine
// the directory update of an L2 victim.
TEST(Sched, HighStealMachinesMatchCommittedGoldens) {
  auto record = [](const std::string& w, uint64_t n) {
    return testing::engine().record(make_workload(w, n, /*seed=*/0)).graph;
  };
  const std::vector<std::pair<std::string, TaskGraph>> graphs = {
      {"sort-spms", record("sort-spms", 1 << 12)},
      {"ps", record("ps", 1 << 13)}};
  SimConfig plain = base_cfg(16);
  SimConfig hold = plain;
  hold.write_hold = 24;
  SimConfig l2 = plain;  // L1 of 32 lines over a 128-line L2 partition
  l2.M = 1 << 10;
  l2.M2 = 1 << 16;
  struct Case {
    size_t graph;
    SchedKind kind;
    const char* machine;
    const SimConfig& cfg;
  };
  const Case cases[] = {
      {0, SchedKind::kPws, "plain", plain},
      {0, SchedKind::kRws, "plain", plain},
      {1, SchedKind::kPws, "plain", plain},
      {1, SchedKind::kRws, "plain", plain},
      {0, SchedKind::kPws, "write_hold", hold},
      {0, SchedKind::kRws, "l2", l2},
  };
  testing::GoldenTable golden({
      {"sort-spms/PWS/plain", 38827, 1560, 564, 9260528, 0xe0ad626dd54b91c5ull},
      {"sort-spms/RWS/plain", 46654, 697, 424, 6966768, 0xfd7354e482353527ull},
      {"ps/PWS/plain", 16995, 73, 166, 2736129, 0xcc50d0d31cbbe4bfull},
      {"ps/RWS/plain", 19372, 38, 197, 3244033, 0x1914d9d244bb3df7ull},
      {"sort-spms/PWS/write_hold", 42407, 1013, 570, 9358832, 0x44e89912bac2838eull},
      {"sort-spms/RWS/l2", 43216, 750, 380, 6245872, 0x11fba9e040c46aadull},
  });
  for (const Case& k : cases) {
    const auto& [name, g] = graphs[k.graph];
    const Metrics m = simulate(g, k.kind, k.cfg);
    golden.check(testing::Golden{
        name + "/" + sched_name(k.kind) + "/" + k.machine, m.makespan,
        m.block_misses(), m.steals(), m.stack_words, testing::digest(m)});
  }
}

}  // namespace
}  // namespace ro
