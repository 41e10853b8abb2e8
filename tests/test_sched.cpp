// Scheduler tests: work-stealing semantics, PWS priority discipline
// (Obs 4.3 / Cor 4.1), usurpations (Lemma 4.6), determinism, padding.
#include <gtest/gtest.h>

#include "ro/alg/mt.h"
#include "ro/alg/scan.h"
#include "ro/core/trace_ctx.h"
#include "ro/doctor/doctor.h"
#include "ro/engine/workloads.h"
#include "ro/sched/run.h"
#include "ro/sim/contention.h"
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
  TraceStore::Cursor rd(*g.store);
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

// The multi-core walk across machine widths: p = 2, 4, 8 and 64 under PWS
// and seeded RWS, four workloads on B = 24 (the block index's division
// branch) and B = 64 (its shift), each row showing makespan, block
// misses, steals and stack_words next to the digest.  A 1024-word cache
// keeps misses, evictions and invalidations frequent.  The write-hold
// (§5.1) and L2 (§5.2) machines follow at p = 4.  Every walk is repeated
// with a ContentionProfile attached, which must leave its Metrics
// unchanged: profiling walks the full per-block path on every access.
TEST(Sched, MultiCoreGridMatchesCommittedGoldens) {
  const std::pair<const char*, uint64_t> workloads[] = {
      {"ps", 1024}, {"msum", 1024}, {"sort-spms", 1024},
      {"counters-packed", 256}};
  std::vector<TaskGraph> graphs;
  for (const auto& [w, n] : workloads) {
    graphs.push_back(testing::engine().record(make_workload(w, n, 0)).graph);
  }
  testing::GoldenTable golden({
      {"ps/PWS/p2/B24", 15099, 9, 7, 133121, 0xb626ffc67f1b66c2ull},
      {"ps/RWS/p2/B24", 15099, 9, 7, 133121, 0xb626ffc67f1b66c2ull},
      {"ps/PWS/p4/B24", 8949, 18, 25, 428033, 0x8ba1833d1818e386ull},
      {"ps/RWS/p4/B24", 10316, 17, 35, 591873, 0x565232aab601cefcull},
      {"ps/PWS/p8/B24", 6771, 52, 66, 1099777, 0xe088d63372bdccd1ull},
      {"ps/RWS/p8/B24", 7489, 51, 56, 935937, 0x70adf42377a1e525ull},
      {"ps/PWS/p64/B24", 5969, 497, 530, 8701953, 0x474fb5eee4b4fa4aull},
      {"ps/RWS/p64/B24", 7133, 35, 117, 1935361, 0x68398bc6c8fc4289ull},
      {"ps/PWS/p2/B64", 11825, 4, 6, 116737, 0x8a92511cabcaee09ull},
      {"ps/RWS/p2/B64", 11825, 4, 6, 116737, 0x8a92511cabcaee09ull},
      {"ps/PWS/p4/B64", 7861, 32, 27, 460801, 0x20367e76a6d074c7ull},
      {"ps/RWS/p4/B64", 8076, 13, 25, 428033, 0xa82b81d38722775bull},
      {"ps/PWS/p8/B64", 6378, 147, 76, 1263617, 0x4c368a933d929a1eull},
      {"ps/RWS/p8/B64", 6306, 44, 59, 985089, 0x1c72d7df2724ce7dull},
      {"ps/PWS/p64/B64", 6263, 917, 485, 7964673, 0x3668d86779fcded2ull},
      {"ps/RWS/p64/B64", 6316, 63, 103, 1705985, 0x2de5e85f3c262b52ull},
      {"msum/PWS/p2/B24", 4541, 0, 2, 53247, 0x9aa563bf78ce0871ull},
      {"msum/RWS/p2/B24", 4541, 0, 2, 53247, 0x9aa563bf78ce0871ull},
      {"msum/PWS/p4/B24", 3034, 0, 14, 249855, 0xa0244619bb221435ull},
      {"msum/RWS/p4/B24", 3463, 3, 21, 364543, 0xd13d85be1512b5b6ull},
      {"msum/PWS/p8/B24", 2643, 4, 34, 577535, 0x24d4be64248bd736ull},
      {"msum/RWS/p8/B24", 2499, 3, 23, 397311, 0xde77f47c68ec0e11ull},
      {"msum/PWS/p64/B24", 2954, 15, 240, 3952639, 0x6b6a6db436e244c7ull},
      {"msum/RWS/p64/B24", 2788, 0, 30, 511999, 0x411f6b48d4d83538ull},
      {"msum/PWS/p2/B64", 4179, 0, 3, 69631, 0x585bb5c1d3df398cull},
      {"msum/RWS/p2/B64", 4179, 0, 3, 69631, 0x585bb5c1d3df398cull},
      {"msum/PWS/p4/B64", 2890, 1, 13, 233471, 0xd84408e739d6c878ull},
      {"msum/RWS/p4/B64", 3126, 2, 14, 249855, 0xb3c6883196aec220ull},
      {"msum/PWS/p8/B64", 2451, 1, 31, 528383, 0x00f1a511cbc874cfull},
      {"msum/RWS/p8/B64", 2074, 0, 18, 315391, 0x3a7c18517476cc67ull},
      {"msum/PWS/p64/B64", 2696, 8, 259, 4263935, 0x51bdf2c965f922a1ull},
      {"msum/RWS/p64/B64", 2529, 0, 27, 462847, 0xddea262ebf531f34ull},
      {"sort-spms/PWS/p2/B24", 24926, 32, 9, 166912, 0x1898d213826d7da1ull},
      {"sort-spms/RWS/p2/B24", 24926, 32, 9, 166912, 0x1898d213826d7da1ull},
      {"sort-spms/PWS/p4/B24", 16840, 105, 50, 838656, 0x0801e90bf046a565ull},
      {"sort-spms/RWS/p4/B24", 18695, 64, 56, 936960, 0x454a5aab8233244aull},
      {"sort-spms/PWS/p8/B24", 13199, 118, 121, 2001920, 0x65540ffb0599894aull},
      {"sort-spms/RWS/p8/B24", 16330, 215, 114, 1887232, 0xa0551e73b8619cdeull},
      {"sort-spms/PWS/p64/B24", 15292, 1445, 993, 16288768, 0x7a241e0f2efc60ddull},
      {"sort-spms/RWS/p64/B24", 18074, 144, 203, 3345408, 0xfaa33970d7f0200aull},
      {"sort-spms/PWS/p2/B64", 21533, 50, 10, 183296, 0x68bcbe9bd9ba3b47ull},
      {"sort-spms/RWS/p2/B64", 21533, 50, 10, 183296, 0x68bcbe9bd9ba3b47ull},
      {"sort-spms/PWS/p4/B64", 14964, 161, 51, 855040, 0x91c98308f21315f6ull},
      {"sort-spms/RWS/p4/B64", 17957, 229, 72, 1199104, 0xb68d6faa32a8b1daull},
      {"sort-spms/PWS/p8/B64", 13926, 615, 147, 2427904, 0xaefa69e152a1e894ull},
      {"sort-spms/RWS/p8/B64", 14372, 302, 99, 1641472, 0x5750ba18853c5e11ull},
      {"sort-spms/PWS/p64/B64", 15059, 3414, 981, 16092160, 0x01683546b1cf4c7dull},
      {"sort-spms/RWS/p64/B64", 18161, 403, 183, 3017728, 0x42f3dd349125f6d9ull},
      {"counters-packed/PWS/p2/B24", 5181, 0, 1, 36608, 0xf43d393e659bb64bull},
      {"counters-packed/RWS/p2/B24", 5181, 0, 1, 36608, 0xf43d393e659bb64bull},
      {"counters-packed/PWS/p4/B24", 3165, 2, 9, 167680, 0x7b4c226350d9f573ull},
      {"counters-packed/RWS/p4/B24", 7567, 523, 12, 216832, 0x2609c2f84baa143bull},
      {"counters-packed/PWS/p8/B24", 5799, 859, 24, 413440, 0x3b8d7cb64e721d19ull},
      {"counters-packed/RWS/p8/B24", 4799, 482, 24, 413440, 0x71ff05bd0a77b6e2ull},
      {"counters-packed/PWS/p64/B24", 4799, 5075, 137, 2264832, 0x627ea6cd42d598deull},
      {"counters-packed/RWS/p64/B24", 3908, 1328, 70, 1167104, 0x8d54e8c27663d7d1ull},
      {"counters-packed/PWS/p2/B64", 5141, 0, 2, 52992, 0xdaaf386e0ae20c06ull},
      {"counters-packed/RWS/p2/B64", 5141, 0, 2, 52992, 0xdaaf386e0ae20c06ull},
      {"counters-packed/PWS/p4/B64", 3173, 1, 10, 184064, 0xfac8dd9bdf490b95ull},
      {"counters-packed/RWS/p4/B64", 12397, 1149, 12, 216832, 0x8dcb84f7f76d2dc9ull},
      {"counters-packed/PWS/p8/B64", 14938, 3144, 26, 446208, 0xd608f3fbf4429dafull},
      {"counters-packed/RWS/p8/B64", 14395, 2879, 30, 511744, 0x63483b7c0fc21936ull},
      {"counters-packed/PWS/p64/B64", 5670, 6660, 130, 2150144, 0x67900a58fbfaac0aull},
      {"counters-packed/RWS/p64/B64", 7210, 6144, 130, 2150144, 0x90d596ea77950ab4ull},
      {"ps/PWS/write_hold", 9131, 20, 23, 395265, 0x1cf73262c0483c24ull},
      {"ps/PWS/l2", 8910, 25, 25, 428033, 0x043a1eb374210452ull},
      {"ps/RWS/write_hold", 10535, 15, 41, 690177, 0xdee067d0ba15b457ull},
      {"ps/RWS/l2", 10169, 17, 39, 657409, 0x5584f04db55c804eull},
      {"msum/PWS/write_hold", 3034, 0, 14, 249855, 0xa0244619bb221435ull},
      {"msum/PWS/l2", 3034, 0, 14, 249855, 0xa0244619bb221435ull},
      {"msum/RWS/write_hold", 3463, 3, 21, 364543, 0xd13d85be1512b5b6ull},
      {"msum/RWS/l2", 3463, 3, 21, 364543, 0xd13d85be1512b5b6ull},
      {"sort-spms/PWS/write_hold", 16716, 49, 50, 838656, 0x894b90fa60155816ull},
      {"sort-spms/PWS/l2", 16291, 59, 48, 805888, 0x922e2f213a071e83ull},
      {"sort-spms/RWS/write_hold", 19325, 45, 66, 1100800, 0x1eb8ab92b21d03a6ull},
      {"sort-spms/RWS/l2", 18576, 65, 60, 1002496, 0x65dd0a69b7ae45cdull},
      {"counters-packed/PWS/write_hold", 3183, 2, 9, 167680, 0x7a57ea9fca90a5d3ull},
      {"counters-packed/PWS/l2", 3165, 2, 9, 167680, 0x7b4c226350d9f573ull},
      {"counters-packed/RWS/write_hold", 4098, 7, 17, 298752, 0x986fdcd854984a61ull},
      {"counters-packed/RWS/l2", 7567, 523, 12, 216832, 0x2609c2f84baa143bull},
  });
  auto check = [&](const std::string& name, const TaskGraph& g,
                   SchedKind kind, const SimConfig& cfg) {
    const Metrics m = simulate(g, kind, cfg);
    golden.check(testing::Golden{name, m.makespan, m.block_misses(),
                                 m.steals(), m.stack_words,
                                 testing::digest(m)});
    ContentionProfile prof;
    SimConfig profiled = cfg;
    profiled.profile = &prof;
    EXPECT_EQ(simulate(g, kind, profiled), m) << name << " profiled";
  };
  for (size_t w = 0; w < graphs.size(); ++w) {
    for (const uint32_t B : {24u, 64u}) {
      for (const uint32_t p : {2u, 4u, 8u, 64u}) {
        for (const SchedKind kind : {SchedKind::kPws, SchedKind::kRws}) {
          SimConfig cfg = base_cfg(p);
          cfg.M = 1 << 10;
          cfg.B = B;
          cfg.seed = 7;
          check(std::string(workloads[w].first) + "/" + sched_name(kind) +
                    "/p" + std::to_string(p) + "/B" + std::to_string(B),
                graphs[w], kind, cfg);
        }
      }
    }
  }
  for (size_t w = 0; w < graphs.size(); ++w) {
    for (const SchedKind kind : {SchedKind::kPws, SchedKind::kRws}) {
      SimConfig hold = base_cfg(4);
      hold.M = 1 << 10;
      hold.B = 24;
      hold.seed = 7;
      hold.write_hold = 24;
      SimConfig l2 = hold;  // 42-line L1s over 170-line L2 partitions
      l2.write_hold = 0;
      l2.M2 = 1 << 14;
      const std::string name =
          std::string(workloads[w].first) + "/" + sched_name(kind);
      check(name + "/write_hold", graphs[w], kind, hold);
      check(name + "/l2", graphs[w], kind, l2);
    }
  }
}

// ---- one-core walks ----
//
// Every p = 1 replay (kSeq, and kPws / kRws at p = 1) is the sequential
// depth-first walk whose cold + capacity misses are Q(n, M, B).  These
// rows were taken from the multi-core scheduler run with one core; each
// shows makespan, cache misses, stack misses and stack_words next to the
// digest.  B = 24 covers the division branch of the block index, B = 32
// and 64 the shift.

testing::Golden one_core_row(const std::string& name, const Metrics& m) {
  return testing::Golden{name, m.makespan, m.cache_misses(),
                         m.stack_misses(), m.stack_words, testing::digest(m)};
}

TEST(Sched, OneCoreWalkGridMatchesCommittedGoldens) {
  const std::pair<const char*, uint64_t> workloads[] = {
      {"ps", 1024}, {"msum", 1024}, {"sort-spms", 1024},
      {"counters-packed", 256}};
  testing::GoldenTable golden({
      {"ps/plain/M256/B24", 28626, 319, 1, 18433, 0x3aa2b128d1b4fbefull},
      {"ps/plain/M256/B32", 26322, 247, 1, 18433, 0x2f7310a819e6b869ull},
      {"ps/plain/M256/B64", 22738, 135, 1, 18433, 0x7cdfecf5db747b99ull},
      {"ps/plain/M4096/B24", 24178, 180, 1, 18433, 0xe8e9cececc400404ull},
      {"ps/plain/M4096/B32", 22578, 130, 1, 18433, 0xc56f7f7d930dc64eull},
      {"ps/plain/M4096/B64", 20530, 66, 1, 18433, 0x0faa4855a5e4711eull},
      {"ps/padded/M256/B24", 32018, 425, 88, 18433, 0xfac1b6c7988a986bull},
      {"ps/padded/M256/B32", 28210, 306, 60, 18433, 0xc50855f761f2d41aull},
      {"ps/padded/M256/B64", 38546, 629, 175, 18433, 0x9c1c6963197e6380ull},
      {"ps/padded/M4096/B24", 25010, 206, 8, 18433, 0x9cbb3e011482e26eull},
      {"ps/padded/M4096/B32", 23154, 148, 7, 18433, 0x1d88ba7c7f797e84ull},
      {"ps/padded/M4096/B64", 20786, 74, 4, 18433, 0x0d6ab48865b8eab0ull},
      {"msum/plain/M256/B24", 8635, 46, 2, 20479, 0x1046451c06eff932ull},
      {"msum/plain/M256/B32", 8251, 34, 1, 20479, 0x773f85b101f8e068ull},
      {"msum/plain/M256/B64", 7739, 18, 1, 20479, 0x77ed00e8206910e4ull},
      {"msum/plain/M4096/B24", 8635, 46, 2, 20479, 0x1046451c06eff932ull},
      {"msum/plain/M4096/B32", 8251, 34, 1, 20479, 0x773f85b101f8e068ull},
      {"msum/plain/M4096/B64", 7739, 18, 1, 20479, 0x77ed00e8206910e4ull},
      {"msum/padded/M256/B24", 8955, 56, 12, 20479, 0x8a0284cf5efb73a0ull},
      {"msum/padded/M256/B32", 8411, 39, 6, 20479, 0xb07b54b41b8fe5abull},
      {"msum/padded/M256/B64", 7771, 19, 2, 20479, 0x6aa3743361026a4bull},
      {"msum/padded/M4096/B24", 8763, 50, 6, 20479, 0x454c52825a58d482ull},
      {"msum/padded/M4096/B32", 8347, 37, 4, 20479, 0x2c71e7274bc2acadull},
      {"msum/padded/M4096/B64", 7771, 19, 2, 20479, 0x6aa3743361026a4bull},
      {"sort-spms/plain/M256/B24", 56639, 680, 588, 19456, 0xd5b6e54904fa4be2ull},
      {"sort-spms/plain/M256/B32", 51359, 515, 451, 19456, 0x22dd98b5c738542full},
      {"sort-spms/plain/M256/B64", 51199, 510, 457, 19456, 0x81838fc3a4f89ef4ull},
      {"sort-spms/plain/M4096/B24", 41183, 197, 110, 19456, 0x2b761458b487ec46ull},
      {"sort-spms/plain/M4096/B32", 39551, 146, 82, 19456, 0x2128e25ce2e62279ull},
      {"sort-spms/plain/M4096/B64", 37215, 73, 41, 19456, 0x6c83ceed27d6da36ull},
      {"sort-spms/padded/M256/B24", 62719, 870, 778, 19456, 0x23c0b90110699bbdull},
      {"sort-spms/padded/M256/B32", 59423, 767, 703, 19456, 0x41506d4e2a158d5eull},
      {"sort-spms/padded/M256/B64", 81439, 1455, 1382, 19456, 0xbe5b611122b336f7ull},
      {"sort-spms/padded/M4096/B24", 41311, 201, 114, 19456, 0xc50a0abe0f922e3aull},
      {"sort-spms/padded/M4096/B32", 39711, 151, 87, 19456, 0x5d8c8a0766f343acull},
      {"sort-spms/padded/M4096/B64", 37311, 76, 44, 19456, 0x720c6b68ef65e29bull},
      {"counters-packed/plain/M256/B24", 10138, 13, 2, 20224, 0x131499164a258635ull},
      {"counters-packed/plain/M256/B32", 10010, 9, 1, 20224, 0xaecb432bda77b3d5ull},
      {"counters-packed/plain/M256/B64", 9882, 5, 1, 20224, 0x90e72899d6719cf5ull},
      {"counters-packed/plain/M4096/B24", 10138, 13, 2, 20224, 0x131499164a258635ull},
      {"counters-packed/plain/M4096/B32", 10010, 9, 1, 20224, 0xaecb432bda77b3d5ull},
      {"counters-packed/plain/M4096/B64", 9882, 5, 1, 20224, 0x90e72899d6719cf5ull},
      {"counters-packed/padded/M256/B24", 10362, 20, 9, 20224, 0x85caded71970d57aull},
      {"counters-packed/padded/M256/B32", 10266, 17, 9, 20224, 0xeb54ba146e85700dull},
      {"counters-packed/padded/M256/B64", 10234, 16, 12, 20224, 0x21f5f1f782b76ef6ull},
      {"counters-packed/padded/M4096/B24", 10298, 18, 7, 20224, 0xf03b65778f6fb77cull},
      {"counters-packed/padded/M4096/B32", 10202, 15, 7, 20224, 0xd2354ddca38f2eefull},
      {"counters-packed/padded/M4096/B64", 10010, 9, 5, 20224, 0xf65612c7ab58f65dull},
  });
  for (const auto& [w, n] : workloads) {
    for (const bool padded : {false, true}) {
      const TaskGraph g =
          testing::engine().record(make_workload(w, n, 0), padded).graph;
      for (const uint64_t M : {uint64_t{256}, uint64_t{4096}}) {
        for (const uint32_t B : {24u, 32u, 64u}) {
          SimConfig cfg = base_cfg(1);
          cfg.M = M;
          cfg.B = B;
          golden.check(one_core_row(
              std::string(w) + (padded ? "/padded" : "/plain") + "/M" +
                  std::to_string(M) + "/B" + std::to_string(B),
              simulate(g, SchedKind::kSeq, cfg)));
        }
      }
    }
  }
}

// An L2 machine (the inclusive-hierarchy sequence), a doctor-remapped
// trace, and a spilled, compressed stream of the same recording as a
// resident row.
TEST(Sched, OneCoreWalkSpecialMachinesMatchCommittedGoldens) {
  Engine& eng = testing::engine();
  testing::GoldenTable golden({
      {"ps/l2", 23546, 248, 2, 18433, 0x3e24dece781e8a81ull},
      {"sort-spms/l2", 42503, 515, 451, 19456, 0xae1c567fdddfe559ull},
      {"counters-packed/remapped", 4506, 65, 1, 20416, 0x16bf4cb9aeec9301ull},
      {"sort-spms/streamed", 39551, 146, 82, 19456, 0x2128e25ce2e62279ull},
  });
  SimConfig l2 = base_cfg(1);  // L1 of 8 lines over a 128-line L2
  l2.M = 256;
  l2.M2 = 4096;
  for (const char* w : {"ps", "sort-spms"}) {
    const TaskGraph g = eng.record(make_workload(w, 1024, 0)).graph;
    const Metrics m = simulate(g, SchedKind::kSeq, l2);
    EXPECT_GT(m.l2_hits(), 0u);
    golden.check(one_core_row(std::string(w) + "/l2", m));
  }

  const Recording packed = eng.record(make_workload("counters-packed", 64, 0));
  const doctor::DoctorReport d =
      eng.diagnose(packed, Backend::kSimPws, base_cfg(4));
  ASSERT_FALSE(d.plan.remap.empty());
  SimConfig remapped = base_cfg(1);
  remapped.remap = &d.plan.remap;
  golden.check(one_core_row("counters-packed/remapped",
                            simulate(packed.graph, SchedKind::kSeq, remapped)));

  StreamOptions so;
  so.segment_tasks = 64;
  so.max_resident_segments = 1;
  so.compress = true;
  const Recording streamed =
      eng.record_stream(make_workload("sort-spms", 1024, 0), so);
  const TraceStore::Stats st = streamed.graph.store->stats();
  EXPECT_GT(st.spilled_bytes, 0u);
  EXPECT_LT(st.compressed_bytes, st.spilled_bytes);
  const Metrics ms = simulate(streamed.graph, SchedKind::kSeq, base_cfg(1));
  golden.check(one_core_row("sort-spms/streamed", ms));
  const TaskGraph resident =
      eng.record(make_workload("sort-spms", 1024, 0)).graph;
  EXPECT_EQ(ms, simulate(resident, SchedKind::kSeq, base_cfg(1)));
}

// Two tenants on one core: the roots run in tenant order, and every share
// row holds all four TenantShare counters (its digest column is unused).
TEST(Sched, OneCoreSharedWalkMatchesCommittedGoldens) {
  Engine& eng = testing::engine();
  std::vector<TaskGraph> parts;
  parts.push_back(
      eng.record(make_workload("ps", 512, 0), false, 4096, 0).graph);
  parts.push_back(
      eng.record(make_workload("sort-spms", 512, 1), false, 4096, 1).graph);
  testing::GoldenTable golden({
      {"shared/seq", 27116, 140, 44, 39425, 0xf24f27a3dc62ff3full},
      {"shared/seq/tenant0", 9202, 65, 0, 0, 0x0000000000000000ull},
      {"shared/seq/tenant1", 13434, 75, 0, 0, 0x0000000000000000ull},
  });
  std::vector<TenantShare> shares;
  const Metrics m =
      simulate_shared(parts, SchedKind::kSeq, base_cfg(4), &shares);
  golden.check(one_core_row("shared/seq", m));
  ASSERT_EQ(shares.size(), 2u);
  for (size_t s = 0; s < shares.size(); ++s) {
    const TenantShare& t = shares[s];
    golden.check(testing::Golden{"shared/seq/tenant" + std::to_string(s),
                                 t.compute, t.cache_misses, t.block_misses,
                                 t.transfers, 0});
  }
}

// Three tenants on one p = 4 machine, under PWS and seeded RWS, on the
// plain, write-hold (§5.1) and partitioned-L2 (§5.2) machines.  Each
// replay's row pins the whole Metrics; each tenant row holds all four
// TenantShare counters (its digest column is unused), and the shares
// partition the machine's totals.
TEST(Sched, CapacitySharedWalkMatchesCommittedGoldens) {
  Engine& eng = testing::engine();
  std::vector<TaskGraph> parts;
  parts.push_back(
      eng.record(make_workload("ps", 512, 0), false, 4096, 0).graph);
  parts.push_back(
      eng.record(make_workload("sort-spms", 512, 1), false, 4096, 1).graph);
  parts.push_back(
      eng.record(make_workload("counters-packed", 256, 2), false, 4096, 2)
          .graph);

  SimConfig plain = base_cfg(4);  // small enough for the tenants to contend
  plain.M = 1024;
  plain.B = 16;
  std::vector<std::pair<const char*, SimConfig>> machines;
  machines.emplace_back("plain", plain);
  SimConfig hold = plain;
  hold.write_hold = 24;
  machines.emplace_back("write_hold", hold);
  SimConfig l2 = plain;
  l2.M2 = 4 * l2.M;
  machines.emplace_back("l2", l2);

  testing::GoldenTable golden({
      {"shared/PWS/plain", 15183, 578, 87, 32, 0xdd1786e8bed63da3ull},
      {"shared/PWS/plain/tenant0", 9202, 233, 0, 53, 0x0000000000000000ull},
      {"shared/PWS/plain/tenant1", 13434, 324, 39, 171, 0x0000000000000000ull},
      {"shared/PWS/plain/tenant2", 9722, 21, 48, 50, 0x0000000000000000ull},
      {"shared/PWS/write_hold", 15080, 605, 18, 40, 0x598cb299a6496addull},
      {"shared/PWS/write_hold/tenant0", 9202, 233, 0, 53, 0x0000000000000000ull},
      {"shared/PWS/write_hold/tenant1", 13434, 351, 18, 176, 0x0000000000000000ull},
      {"shared/PWS/write_hold/tenant2", 9722, 21, 0, 2, 0x0000000000000000ull},
      {"shared/PWS/l2", 15882, 633, 46, 45, 0xc40833ecb9484cd5ull},
      {"shared/PWS/l2/tenant0", 9202, 242, 1, 56, 0x0000000000000000ull},
      {"shared/PWS/l2/tenant1", 13434, 372, 45, 210, 0x0000000000000000ull},
      {"shared/PWS/l2/tenant2", 9722, 19, 0, 0, 0x0000000000000000ull},
      {"shared/RWS/plain", 16313, 629, 54, 36, 0xc5891fbcdc723988ull},
      {"shared/RWS/plain/tenant0", 9202, 237, 1, 54, 0x0000000000000000ull},
      {"shared/RWS/plain/tenant1", 13434, 375, 53, 197, 0x0000000000000000ull},
      {"shared/RWS/plain/tenant2", 9722, 17, 0, 0, 0x0000000000000000ull},
      {"shared/RWS/write_hold", 15319, 603, 12, 29, 0x54b925016ea4584dull},
      {"shared/RWS/write_hold/tenant0", 9202, 233, 0, 50, 0x0000000000000000ull},
      {"shared/RWS/write_hold/tenant1", 13434, 353, 12, 143, 0x0000000000000000ull},
      {"shared/RWS/write_hold/tenant2", 9722, 17, 0, 0, 0x0000000000000000ull},
      {"shared/RWS/l2", 16016, 630, 51, 36, 0x764bf649a50d3530ull},
      {"shared/RWS/l2/tenant0", 9202, 238, 1, 54, 0x0000000000000000ull},
      {"shared/RWS/l2/tenant1", 13434, 375, 50, 206, 0x0000000000000000ull},
      {"shared/RWS/l2/tenant2", 9722, 17, 0, 0, 0x0000000000000000ull},
  });
  for (const SchedKind kind : {SchedKind::kPws, SchedKind::kRws}) {
    for (auto [mname, cfg] : machines) {
      cfg.seed = 7;
      const std::string name =
          std::string("shared/") + sched_name(kind) + "/" + mname;
      std::vector<TenantShare> shares;
      const Metrics m = simulate_shared(parts, kind, cfg, &shares);
      golden.check(testing::golden_of(name, m));
      ASSERT_EQ(shares.size(), 3u);
      TenantShare sum;
      for (size_t s = 0; s < shares.size(); ++s) {
        const TenantShare& t = shares[s];
        golden.check(testing::Golden{name + "/tenant" + std::to_string(s),
                                     t.compute, t.cache_misses,
                                     t.block_misses, t.transfers, 0});
        sum.compute += t.compute;
        sum.cache_misses += t.cache_misses;
        sum.block_misses += t.block_misses;
        sum.transfers += t.transfers;
      }
      EXPECT_EQ(sum.compute, m.compute()) << name;
      EXPECT_EQ(sum.cache_misses, m.cache_misses()) << name;
      EXPECT_EQ(sum.block_misses, m.block_misses()) << name;
      EXPECT_EQ(sum.transfers, m.total_block_transfers) << name;
    }
  }
}

// A one-core machine can never steal, so PWS and RWS at p = 1 walk
// exactly as kSeq does, for one machine per shard and for a shared one;
// an attached ContentionProfile sees no invalidation, coherence miss or
// transfer and stays empty.  A one-tenant shared machine is simulate()'s.
TEST(Sched, OneCoreSchedulersAgreeAndProfileStaysEmpty) {
  Engine& eng = testing::engine();
  std::vector<TaskGraph> two;
  two.push_back(
      eng.record(make_workload("msum", 512, 0), false, 4096, 0).graph);
  two.push_back(
      eng.record(make_workload("counters-packed", 64, 0), false, 4096, 1)
          .graph);
  const std::vector<TaskGraph> ps = {
      eng.record(make_workload("ps", 1024, 0)).graph};
  const SimConfig one = base_cfg(1);
  const std::vector<TaskGraph>* const lists[] = {&ps, &two};
  for (const std::vector<TaskGraph>* tenants : lists) {
    for (const TaskGraph& g : *tenants) {
      const Metrics seq = simulate(g, SchedKind::kSeq, one);
      for (const SchedKind k : {SchedKind::kPws, SchedKind::kRws}) {
        EXPECT_EQ(simulate(g, k, one), seq) << sched_name(k);
      }
      ContentionProfile prof;
      SimConfig profiled = one;
      profiled.profile = &prof;
      EXPECT_EQ(simulate(g, SchedKind::kSeq, profiled), seq);
      EXPECT_EQ(simulate(g, SchedKind::kPws, profiled), seq);
      EXPECT_TRUE(prof.empty());
    }
    std::vector<TenantShare> seq_shares;
    const Metrics shared_seq =
        simulate_shared(*tenants, SchedKind::kSeq, one, &seq_shares);
    if (tenants->size() == 1) {
      EXPECT_EQ(shared_seq, simulate((*tenants)[0], SchedKind::kSeq, one));
    }
    for (const SchedKind k : {SchedKind::kPws, SchedKind::kRws}) {
      std::vector<TenantShare> shares;
      EXPECT_EQ(simulate_shared(*tenants, k, one, &shares), shared_seq);
      EXPECT_EQ(shares, seq_shares);
    }
  }
}

// simulate_shared refuses tenants it cannot place on one machine: two
// recordings of one shard would alias, and tenants recorded with
// different allocation alignments have no common arena alignment.
TEST(SchedDeathTest, CapacitySharedReplayRefusesClashingTenants) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Engine& eng = testing::engine();
  std::vector<TaskGraph> same_shard;
  same_shard.push_back(
      eng.record(make_workload("msum", 64, 0), false, 4096, 3).graph);
  same_shard.push_back(
      eng.record(make_workload("ps", 64, 0), false, 4096, 3).graph);
  EXPECT_DEATH(simulate_shared(same_shard, SchedKind::kPws, base_cfg(4)),
               "capacity-shared tenants must occupy distinct shards");

  std::vector<TaskGraph> mixed_align;
  mixed_align.push_back(
      eng.record(make_workload("msum", 64, 0), false, 4096, 0).graph);
  mixed_align.push_back(
      eng.record(make_workload("ps", 64, 0), false, 1024, 1).graph);
  EXPECT_DEATH(simulate_shared(mixed_align, SchedKind::kSeq, base_cfg(1)),
               "capacity-shared tenants must share an allocation alignment");
}

// Level k forks level k - 1 (left) and a leaf (right) that reads the
// parent's frame local.  A chain 5000 forks deep keeps 5000 activations
// open at once, which the walk must hold on its own stack, not in C++
// frames.
void fork_chain(TraceCtx& cx, Slice<i64> a, uint32_t level) {
  auto loc = cx.local<i64>(1);
  cx.set(loc.slice(), 0, cx.get(a, level % a.n));
  if (level == 0) return;
  cx.fork2(
      level, [&] { fork_chain(cx, a, level - 1); }, 1,
      [&] { cx.set(a, level % a.n, cx.get(loc.slice(), 0)); });
}

TEST(Sched, DeepForkChainMatchesCommittedGolden) {
  constexpr uint32_t kDepth = 5000;
  TraceCtx cx;
  auto a = cx.alloc<i64>(64, "a");
  const TaskGraph g =
      cx.run(kDepth, [&] { fork_chain(cx, a.slice(), kDepth); });
  ASSERT_EQ(g.analyze().max_depth, kDepth);
  testing::GoldenTable golden({
      {"chain/seq", 76050, 814, 812, 20416, 0x6a4e9f0ba23fdb92ull},
      {"chain/seq/l2", 77394, 946, 932, 20416, 0x32af545abf193c32ull},
  });
  golden.check(one_core_row("chain/seq",
                            simulate(g, SchedKind::kSeq, base_cfg(1))));
  SimConfig l2 = base_cfg(1);
  l2.M = 256;
  l2.M2 = 4096;
  golden.check(
      one_core_row("chain/seq/l2", simulate(g, SchedKind::kSeq, l2)));
}

}  // namespace
}  // namespace ro
