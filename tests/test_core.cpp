// Unit tests: TraceCtx recording, graph structure/analysis, validators
// (limited access, balance, head work), f/L probes.
#include <gtest/gtest.h>

#include <thread>

#include "ro/alg/rm_bi.h"
#include "ro/alg/scan.h"
#include "probes.h"
#include "ro/core/seq_ctx.h"
#include "ro/core/trace_ctx.h"
#include "ro/core/validate.h"
#include "ro/engine/workloads.h"
#include "golden.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;

TEST(TraceCtx, RecordsForkStructure) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(4, "a");
  TaskGraph g = cx.run(4, [&] {
    auto s = a.slice();
    cx.fork2(
        2, [&] { cx.set(s, 0, i64{1}); }, 2, [&] { cx.set(s, 1, i64{2}); });
    cx.set(s, 2, i64{3});
  });
  // Root + two children.
  ASSERT_EQ(g.acts.size(), 3u);
  const Activation& root = g.acts[g.root];
  EXPECT_EQ(root.num_segs, 2u);  // fork segment + terminal
  const Segment& fs = g.segments[root.first_seg];
  ASSERT_TRUE(fs.has_fork());
  EXPECT_EQ(g.acts[fs.left].depth, 1);
  EXPECT_EQ(g.acts[fs.right].depth, 1);
  EXPECT_EQ(g.acts[fs.left].parent, g.root);
  EXPECT_EQ(g.acts[fs.left].child_slot, 0);
  EXPECT_EQ(g.acts[fs.right].child_slot, 1);
  // Terminal segment carries the tail write.
  const Segment& ts = g.segments[root.first_seg + 1];
  EXPECT_FALSE(ts.has_fork());
  EXPECT_EQ(ts.acc_end - ts.acc_begin, 1u);
  EXPECT_EQ(a.raw()[0], 1);
  EXPECT_EQ(a.raw()[1], 2);
  EXPECT_EQ(a.raw()[2], 3);
}

TEST(TraceCtx, AccessesCarryVirtualAddresses) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(8, "a");
  TaskGraph g = cx.run(8, [&] {
    auto s = a.slice();
    cx.set(s, 5, i64{42});
    (void)cx.get(s, 5);
  });
  ASSERT_EQ(g.acc_count(), 2u);
  TraceStore::Cursor rd(*g.store);
  EXPECT_EQ(rd.at(0).addr, a.vbase() + 5);
  EXPECT_TRUE(rd.at(0).is_write());
  EXPECT_FALSE(rd.at(1).is_write());
  EXPECT_EQ(rd.at(0).act, kNoAct);
}

TEST(TraceCtx, LocalArraysAreFrameRelative) {
  TraceCtx cx;
  TaskGraph g = cx.run(8, [&] {
    auto tmp = cx.local<i64>(4);
    auto s = tmp.slice();
    cx.set(s, 2, i64{7});
  });
  ASSERT_EQ(g.acc_count(), 1u);
  TraceStore::Cursor rd(*g.store);
  EXPECT_EQ(rd.at(0).act, g.root);
  EXPECT_EQ(rd.at(0).addr, 2u);  // offset within the frame
  // Frame holds the 4 local words plus >= 2 fork slots.
  EXPECT_GE(g.acts[g.root].frame_words, 6u);
  EXPECT_EQ(g.acts[g.root].fork_slot_base, 4u);
}

TEST(TraceCtx, PaddedFramesGrowBySqrtSize) {
  TraceCtx::Options opt;
  opt.padded = true;
  TraceCtx cx(opt);
  TaskGraph g = cx.run(1 << 10, [&] {});
  EXPECT_GE(g.acts[g.root].frame_words, 2u + 32u);  // 2 slots + √1024
}

// Recording goldens: the digest covers every activation and segment field
// and every access record, so the recorder's bookkeeping must reproduce
// these graphs byte for byte (the rows predate the one open-segment
// stack).  Each workload is then recorded again after a larger graph was
// released into the buffer pool (util/vec_pool.h), once on this thread
// and once on another, so it starts from stale, larger capacity: a
// missing clear() or a stale size would move the digest.
TEST(TraceCtx, RecordingGoldensHoldOnPooledCapacity) {
  const std::vector<std::pair<std::string, uint64_t>> small = {
      {"ps", 1 << 8}, {"msum", 1 << 8}, {"sort-spms", 1 << 8}};
  auto record = [](const std::string& w, uint64_t n) {
    return testing::engine().record(make_workload(w, n, /*seed=*/0)).graph;
  };
  std::vector<testing::Golden> fresh;
  {
    testing::GoldenTable table({
        {"ps", 1021, 1531, 1534, 8703, 0x396e62260ffb63bcull},
        {"msum", 511, 766, 257, 4097, 0xc1ac8af46149dc4full},
        {"sort-spms", 281, 421, 3669, 4352, 0xb7c97dd77e6cab79ull},
    });
    for (const auto& [w, n] : small) {
      fresh.push_back(testing::golden_of(w, record(w, n)));
      table.check(fresh.back());
    }
  }
  for (const bool other_thread : {false, true}) {
    TaskGraph big = record("sort-spms", 1 << 12);
    const size_t big_acts = big.acts.size();
    if (other_thread) {
      std::thread([&big] { const TaskGraph spent = std::move(big); }).join();
    } else {
      const TaskGraph spent = std::move(big);
    }
    for (size_t i = 0; i < small.size(); ++i) {
      const TaskGraph g = record(small[i].first, small[i].second);
      EXPECT_GE(g.acts.capacity(), big_acts) << "pooled capacity not reused";
      EXPECT_EQ(testing::golden_of(small[i].first, g), fresh[i]);
    }
  }
}

TEST(Graph, WorkAndSpanOnScan) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(64, "a");
  auto out = cx.alloc<i64>(1, "out");
  TaskGraph g = cx.run(64, [&] { alg::msum(cx, a.slice(), out.slice()); });
  const GraphStats st = g.analyze();
  // 64 leaf reads + 1 output write + fork/join constants.
  EXPECT_GE(st.work, 65u);
  EXPECT_EQ(st.leaves, 64u);
  EXPECT_EQ(st.max_depth, 6u);
  // Span ~ depth * O(1), far below work.
  EXPECT_LT(st.span, st.work / 2);
  EXPECT_GT(st.span, st.max_depth);
}

TEST(Validate, LimitedAccessHoldsForScan) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(128, "a");
  auto out = cx.alloc<i64>(128, "out");
  TaskGraph g =
      cx.run(128, [&] { alg::prefix_sums(cx, a.slice(), out.slice()); });
  const auto rep = check_limited_access(g);
  EXPECT_LE(rep.max_writes_per_location, 1u);
  EXPECT_GT(rep.total_writes, 0u);
}

TEST(Validate, DetectsUnlimitedAccess) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(1, "a");
  TaskGraph g = cx.run(16, [&] {
    auto s = a.slice();
    for (int i = 0; i < 16; ++i) cx.set(s, 0, i64{i});
  });
  EXPECT_EQ(check_limited_access(g).max_writes_per_location, 16u);
}

TEST(Validate, BalanceForBpScan) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(1 << 8, "a");
  auto out = cx.alloc<i64>(1, "out");
  TaskGraph g =
      cx.run(1 << 8, [&] { alg::msum(cx, a.slice(), out.slice()); });
  const auto rep = check_balance(g);
  EXPECT_LE(rep.max_sibling_ratio, 2.0);       // Def 3.2(vi), c2/c1
  EXPECT_LE(rep.max_child_fraction, 0.75);     // α < 1
  EXPECT_LE(rep.per_depth_ratio, 2.0);
  EXPECT_GT(rep.forks, 0u);
}

TEST(Validate, HeadWorkIsConstantForBp) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(1 << 8, "a");
  auto b = cx.alloc<i64>(1 << 8, "b");
  auto out = cx.alloc<i64>(1 << 8, "out");
  TaskGraph g = cx.run(1 << 8, [&] {
    alg::matrix_add(cx, a.slice(), b.slice(), out.slice());
  });
  const auto rep = check_head_work(g);
  EXPECT_EQ(rep.max_fork_segment_cost, 0u);  // pure forking heads
  EXPECT_LE(rep.max_terminal_cost, 3u);      // grain-1 leaves
}

TEST(Probes, DfsIntervalsNest) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(32, "a");
  auto out = cx.alloc<i64>(1, "out");
  TaskGraph g = cx.run(32, [&] { alg::msum(cx, a.slice(), out.slice()); });
  const auto iv = dfs_intervals(g);
  for (uint32_t i = 0; i < g.acts.size(); ++i) {
    EXPECT_LT(iv[i].in, iv[i].out);
    const uint32_t par = g.acts[i].parent;
    if (par != kNoAct) {
      EXPECT_LE(iv[par].in, iv[i].in);
      EXPECT_GE(iv[par].out, iv[i].out);
    }
  }
}

TEST(Probes, ScanIsO1FriendlyAndO1Sharing) {
  TraceCtx cx;
  const size_t n = 1 << 10;
  auto a = cx.alloc<i64>(n, "a");
  auto out = cx.alloc<i64>(1, "out");
  TaskGraph g = cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice()); });
  const uint32_t B = 16;
  auto samples = sample_acts_per_depth(g, 2);
  auto probes = probe_tasks(g, B, samples);
  for (const auto& p : probes) {
    // f(r) = O(1): at most ~2 boundary blocks beyond r/B.
    EXPECT_LE(p.f_excess, 3.0) << "act " << p.act << " r=" << p.r;
    // L(r) = O(1): a contiguous-range task shares only boundary blocks.
    EXPECT_LE(p.shared_blocks, 3u) << "act " << p.act << " r=" << p.r;
  }
}

TEST(Probes, RmToBiWritesShareLittleButReadsAreSqrtFriendly) {
  TraceCtx cx;
  const uint32_t n = 32;  // 1024 elements
  auto rm = cx.alloc<i64>(n * n, "rm");
  auto bi = cx.alloc<i64>(n * n, "bi");
  TaskGraph g = cx.run(2 * n * n,
                       [&] { alg::rm_to_bi(cx, rm.slice(), bi.slice(), n); });
  const uint32_t B = 16;
  auto samples = sample_acts_per_depth(g, 2);
  auto probes = probe_tasks(g, B, samples);
  bool saw_sqrt_f = false;
  for (const auto& p : probes) {
    if (p.r >= 4 * B && p.f_excess > 3.0) saw_sqrt_f = true;
  }
  // Reads of RM rows from a BI tile are strided: f(r) ~ √r must show up.
  EXPECT_TRUE(saw_sqrt_f);
}

TEST(SeqCtxAndTraceCtxAgree, SameResults) {
  const size_t n = 257;  // non-power-of-two exercise
  std::vector<i64> vals(n);
  for (size_t i = 0; i < n; ++i) vals[i] = static_cast<i64>((i * 37) % 101);

  SeqCtx sq;
  auto a1 = sq.alloc<i64>(n);
  std::copy(vals.begin(), vals.end(), a1.raw());
  auto o1 = sq.alloc<i64>(n);
  sq.run(n, [&] { alg::prefix_sums(sq, a1.slice(), o1.slice()); });

  TraceCtx tc;
  auto a2 = tc.alloc<i64>(n, "a");
  std::copy(vals.begin(), vals.end(), a2.raw());
  auto o2 = tc.alloc<i64>(n, "o");
  tc.run(n, [&] { alg::prefix_sums(tc, a2.slice(), o2.slice()); });

  for (size_t i = 0; i < n; ++i) EXPECT_EQ(o1.raw()[i], o2.raw()[i]);
}

}  // namespace
}  // namespace ro
