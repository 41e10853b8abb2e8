// Integration tests: whole-paper invariants across (p, M, B) sweeps —
// the lemma-shaped properties the benches then chart in detail.
#include <gtest/gtest.h>

#include "ro/alg/fft.h"
#include "ro/alg/mt.h"
#include "ro/alg/rm_bi.h"
#include "ro/alg/scan.h"
#include "ro/alg/strassen.h"
#include "probes.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;

TaskGraph record_scan(size_t n) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(n, "a");
  auto out = cx.alloc<i64>(1, "out");
  return cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice()); });
}

class MachineSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t, uint32_t>> {
};

TEST_P(MachineSweep, EngineInvariantsHoldEverywhere) {
  const auto [p, M, B] = GetParam();
  if (M / B < 1) GTEST_SKIP();
  TaskGraph g = record_scan(1 << 12);
  SimConfig cfg;
  cfg.p = p;
  cfg.M = M;
  cfg.B = B;
  const Metrics seq = simulate(g, SchedKind::kSeq, cfg);
  EXPECT_EQ(seq.block_misses(), 0u);
  if (p >= 2) {
    const Metrics pws = simulate(g, SchedKind::kPws, cfg);
    const Metrics rws = simulate(g, SchedKind::kRws, cfg);
    EXPECT_EQ(pws.compute(), seq.compute());
    EXPECT_EQ(rws.compute(), seq.compute());
    EXPECT_LE(pws.max_steals_at_one_priority(), p - 1);  // Obs 4.3
    EXPECT_LE(pws.makespan, seq.makespan);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, MachineSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 32u),
                       ::testing::Values(uint64_t{1} << 10, uint64_t{1} << 14),
                       ::testing::Values(16u, 64u)));

TEST(Lemma21Shape, BigStolenTasksHaveNoExcess) {
  // Lemma 2.1 / 4.3: with n >> Mp, PWS cache misses stay within a constant
  // factor of Q for an O(1)-friendly BP computation.
  TaskGraph g = record_scan(1 << 15);
  SimConfig cfg;
  cfg.p = 4;
  cfg.M = 1 << 10;
  cfg.B = 32;  // n = 32 K >> M p = 4 K
  const uint64_t q = testing::q_seq(g, cfg);
  const Metrics pws = simulate(g, SchedKind::kPws, cfg);
  EXPECT_LT(pws.cache_misses(), 2 * q)
      << "PWS cache misses should be dominated by Q when n >> Mp";
}

TEST(Lemma48Shape, BlockMissExcessSmallForO1Sharing) {
  // Scans share O(1) blocks per task: block misses (data side) should be
  // orders below Q, roughly O(p·B·log B) at fixed p, B.
  TaskGraph g = record_scan(1 << 15);
  SimConfig cfg;
  cfg.p = 8;
  cfg.M = 1 << 12;
  cfg.B = 64;
  const Metrics pws = simulate(g, SchedKind::kPws, cfg);
  uint64_t data_block_misses = 0;
  for (const auto& c : pws.core) data_block_misses += c.miss[0][2];
  const uint64_t budget = 4ull * cfg.p * cfg.B * log2_ceil(cfg.B);
  EXPECT_LE(data_block_misses, budget);
}

TEST(Table1Shape, MtIsO1FriendlyButDirectBiRmIsNot) {
  const uint32_t n = 32;
  const uint32_t B = 16;
  // MT (BI): f = O(1), L = O(1).
  {
    TraceCtx cx;
    auto in = cx.alloc<i64>(n * n, "in");
    auto out = cx.alloc<i64>(n * n, "out");
    TaskGraph g = cx.run(2ull * n * n,
                         [&] { alg::mt_bi(cx, in.slice(), out.slice(), n); });
    auto probes = probe_tasks(g, B, sample_acts_per_depth(g, 2));
    for (const auto& p : probes) {
      EXPECT_LE(p.f_excess, 4.0);
      EXPECT_LE(p.shared_blocks, 4u);
    }
  }
  // Direct BI->RM: L(r) = √r must show for mid-size tasks.
  {
    TraceCtx cx;
    auto in = cx.alloc<i64>(n * n, "in");
    auto out = cx.alloc<i64>(n * n, "out");
    TaskGraph g = cx.run(2ull * n * n, [&] {
      alg::bi_to_rm_direct(cx, in.slice(), out.slice(), n);
    });
    auto probes = probe_tasks(g, B, sample_acts_per_depth(g, 2));
    bool saw_sharing = false;
    for (const auto& p : probes) {
      if (p.r >= 4 * B && p.shared_blocks > 4) saw_sharing = true;
    }
    EXPECT_TRUE(saw_sharing);
  }
}

TEST(GappingShape, GappedConversionSharesFewerBlocksThanDirect) {
  // Gapping eliminates write sharing for tasks of tile side r once the
  // boundary gap reaches B: gap_for(2r) >= B, i.e. r = Ω(B log² B) (§3.2).
  // Probe with B = 3 (misaligned with the power-of-two tiling, the case
  // block sharing actually arises in): side-128 tasks of a 256 matrix have
  // boundary gaps gap_for(256) = 4 >= B, so gapped sharing vanishes while
  // the dense destination shares ~one block per boundary row.
  const uint32_t n = 256;
  const uint32_t B = 3;
  const uint64_t r_min = 2 * 128 * 128;
  auto big_task_sharing = [&](auto&& run_conv) {
    TraceCtx cx;
    auto in = cx.alloc<i64>(static_cast<size_t>(n) * n, "in");
    auto out = cx.alloc<i64>(static_cast<size_t>(n) * n, "out");
    TaskGraph g = cx.run(2ull * n * n, [&] { run_conv(cx, in, out); });
    auto probes = probe_tasks(g, B, sample_acts_per_depth(g, 2));
    uint64_t total = 0;
    for (const auto& p : probes) {
      if (p.r >= r_min) total += p.shared_blocks;
    }
    return total;
  };
  const uint64_t direct = big_task_sharing(
      [&](TraceCtx& cx, auto& in, auto& out) {
        alg::bi_to_rm_direct(cx, in.slice(), out.slice(), n);
      });
  const uint64_t gapped = big_task_sharing(
      [&](TraceCtx& cx, auto& in, auto& out) {
        alg::bi_to_rm_gap(cx, in.slice(), out.slice(), n);
      });
  EXPECT_LT(gapped, direct) << "gapping should reduce big-task block sharing";
}

TEST(PwsVsRws, PwsRespectsPriorityDisciplineRwsNeedNot) {
  TaskGraph g = record_scan(1 << 14);
  SimConfig cfg;
  cfg.p = 8;
  cfg.M = 1 << 12;
  cfg.B = 32;
  const Metrics pws = simulate(g, SchedKind::kPws, cfg);
  const Metrics rws = simulate(g, SchedKind::kRws, cfg);
  // PWS: the Obs 4.3 discipline on a single BP computation.
  EXPECT_LE(pws.max_steals_at_one_priority(), cfg.p - 1);
  // RWS probes random victims, so it accumulates failed attempts that PWS's
  // best-victim scan avoids.
  const uint64_t pws_failed = pws.steal_attempts() - pws.steals();
  const uint64_t rws_failed = rws.steal_attempts() - rws.steals();
  EXPECT_GE(rws_failed, pws_failed);
}

TEST(Strassen, SimulatedSpeedupAndQShape) {
  const uint32_t n = 32;
  TraceCtx cx;
  auto a = cx.alloc<i64>(static_cast<size_t>(n) * n, "a");
  auto b = cx.alloc<i64>(static_cast<size_t>(n) * n, "b");
  auto c = cx.alloc<i64>(static_cast<size_t>(n) * n, "c");
  TaskGraph g = cx.run(3ull * n * n, [&] {
    alg::strassen_bi(cx, a.slice(), b.slice(), c.slice(), n);
  });
  SimConfig cfg;
  cfg.p = 8;
  cfg.M = 1 << 10;
  cfg.B = 32;
  const Metrics seq = simulate(g, SchedKind::kSeq, cfg);
  const Metrics pws = simulate(g, SchedKind::kPws, cfg);
  EXPECT_LT(pws.makespan, seq.makespan / 2);
}

TEST(Fft, SimulatedRunAllSchedulers) {
  const size_t n = 256;
  TraceCtx cx;
  auto x = cx.alloc<alg::cplx>(n, "x");
  auto y = cx.alloc<alg::cplx>(n, "y");
  TaskGraph g = cx.run(4 * n, [&] { alg::fft(cx, x.slice(), y.slice()); });
  testing::check_schedulers(g, 8, 1 << 12, 32);
  testing::check_limited(g, 1);
}

}  // namespace
}  // namespace ro
