// NUMA runtime tests: cpulist parsing, topology detection (live sysfs and
// a synthetic tree), group layouts, and the group-aware pool — fork-join
// correctness and seq-golden parity for every group count plus the
// steal-locality invariants the escape probability pins down exactly
// (escape 0 = never remote, escape 1 = never local while local candidates
// exist).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/route.h"
#include "ro/alg/scan.h"
#include "ro/alg/spms.h"
#include "ro/core/seq_ctx.h"
#include "ro/rt/numa.h"
#include "ro/rt/par_ctx.h"
#include "ro/rt/pool.h"
#include "ro/util/rng.h"

namespace ro {
namespace {

using alg::i64;
using rt::GroupLayout;
using rt::NumaTopology;
using rt::ParCtx;
using rt::Pool;
using rt::PoolOptions;
using rt::StealPolicy;

TEST(CpuList, ParsesRangesAndSingles) {
  std::vector<int> cpus;
  ASSERT_TRUE(rt::parse_cpulist("0-3,8,10-11", cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  ASSERT_TRUE(rt::parse_cpulist("5", cpus));
  EXPECT_EQ(cpus, std::vector<int>{5});
  ASSERT_TRUE(rt::parse_cpulist("  \n", cpus));  // cpu-less node
  EXPECT_TRUE(cpus.empty());
}

TEST(CpuList, RejectsGarbage) {
  std::vector<int> cpus;
  EXPECT_FALSE(rt::parse_cpulist("a-b", cpus));
  EXPECT_FALSE(rt::parse_cpulist("3-1", cpus));      // reversed range
  EXPECT_FALSE(rt::parse_cpulist("1,", cpus));       // trailing comma
  EXPECT_FALSE(rt::parse_cpulist("1,,2", cpus));     // empty entry
  EXPECT_FALSE(rt::parse_cpulist("1-", cpus));       // open range
  EXPECT_FALSE(rt::parse_cpulist("0-100000", cpus)); // absurd width
}

TEST(GroupLayoutTest, ContiguousSplitsEvenly) {
  const GroupLayout l = GroupLayout::contiguous(8, 2);
  ASSERT_TRUE(l.valid(8));
  EXPECT_EQ(l.groups(), 2u);
  EXPECT_EQ(l.group_of, (std::vector<uint32_t>{0, 0, 0, 0, 1, 1, 1, 1}));

  const GroupLayout odd = GroupLayout::contiguous(5, 2);
  ASSERT_TRUE(odd.valid(5));
  EXPECT_EQ(odd.group_of, (std::vector<uint32_t>{0, 0, 0, 1, 1}));
}

TEST(GroupLayoutTest, GroupCountClampedToThreads) {
  const GroupLayout l = GroupLayout::contiguous(2, 8);
  ASSERT_TRUE(l.valid(2));
  EXPECT_EQ(l.groups(), 2u);  // no empty groups
  EXPECT_EQ(GroupLayout::contiguous(4, 0).groups(), 1u);  // 0 -> 1
}

TEST(GroupLayoutTest, ValidRejectsHolesAndSizeMismatch) {
  GroupLayout l;
  l.group_of = {0, 2, 2};  // group 1 missing
  EXPECT_FALSE(l.valid(3));
  l.group_of = {0, 1};
  EXPECT_FALSE(l.valid(3));  // wrong worker count
  EXPECT_TRUE(GroupLayout::contiguous(3, 3).valid(3));
}

TEST(Topology, FallbackIsOneNodeWithAllCpus) {
  const NumaTopology t = rt::detect_topology("/nonexistent/sysfs/root");
  ASSERT_EQ(t.nodes(), 1u);
  EXPECT_GE(t.node_cpus[0].size(), 1u);
}

TEST(Topology, ReadsSyntheticSysfsTree) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "ro_numa_test_sysfs" /
      std::to_string(static_cast<unsigned>(::getpid()));
  fs::create_directories(root / "node0");
  fs::create_directories(root / "node1");
  fs::create_directories(root / "node3");  // hole at node2 is legal
  std::ofstream(root / "node0" / "cpulist") << "0-3\n";
  std::ofstream(root / "node1" / "cpulist") << "4-7\n";
  std::ofstream(root / "node3" / "cpulist") << "8,9\n";
  const NumaTopology t = rt::detect_topology(root.string());
  ASSERT_EQ(t.nodes(), 3u);
  EXPECT_EQ(t.node_cpus[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(t.node_cpus[1], (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(t.node_cpus[2], (std::vector<int>{8, 9}));
  fs::remove_all(root.parent_path());
}

TEST(Topology, LiveDetectionAlwaysYieldsANode) {
  const NumaTopology t = rt::detect_topology();
  EXPECT_GE(t.nodes(), 1u);
  for (const auto& cpus : t.node_cpus) EXPECT_FALSE(cpus.empty());
  const GroupLayout l = rt::numa_group_layout(8);
  EXPECT_TRUE(l.valid(8));
  EXPECT_EQ(l.groups(), std::min<uint32_t>(t.nodes(), 8));
}

/// msum through ParCtx on a pool built from `opt`; checks the result.
void expect_pool_computes(Pool& pool) {
  ParCtx cx(pool, /*serial_below=*/16);
  const size_t n = 1 << 14;
  auto a = cx.alloc<i64>(n);
  for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(i % 9) - 4;
  auto out = cx.alloc<i64>(1);
  cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice(), /*grain=*/8); });
  const i64 want = std::accumulate(a.raw(), a.raw() + n, i64{0});
  EXPECT_EQ(out.raw()[0], want);
}

TEST(NumaPool, ForkJoinCorrectForEveryGroupCount) {
  for (const auto policy : {StealPolicy::kRandom, StealPolicy::kPriority}) {
    for (uint32_t groups : {1u, 2u, 4u}) {
      PoolOptions opt;
      opt.policy = policy;
      opt.layout = GroupLayout::contiguous(4, groups);
      Pool pool(4, opt);
      EXPECT_EQ(pool.groups(), groups);
      expect_pool_computes(pool);
    }
  }
}

TEST(NumaPool, FlatPoolCountsEveryStealLocal) {
  // The classic two-arg constructor is a single-group pool: every steal is
  // local, none remote, and the totals line up.
  Pool pool(2, StealPolicy::kRandom);
  EXPECT_EQ(pool.groups(), 1u);
  ParCtx cx(pool, 8);
  const size_t n = 1 << 15;
  auto a = cx.alloc<i64>(n);
  auto out = cx.alloc<i64>(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.stats().steals == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice(), 8); });
  }
  const rt::PoolStats s = pool.stats();
  EXPECT_GE(s.steals, 1u);
  EXPECT_EQ(s.remote_steals, 0u);
  EXPECT_EQ(s.local_steals, s.steals);
}

TEST(NumaPool, EscapeZeroNeverStealsRemotely) {
  // 4 workers in 2 groups, escape 0: every group has a local candidate, so
  // the random flavor must never pick a remote victim — an exact invariant
  // regardless of how many steals the OS schedule produces.
  PoolOptions opt;
  opt.policy = StealPolicy::kRandom;
  opt.layout = GroupLayout::contiguous(4, 2);
  opt.escape_prob = 0.0;
  Pool pool(4, opt);
  for (int rep = 0; rep < 20; ++rep) expect_pool_computes(pool);
  EXPECT_EQ(pool.stats().remote_steals, 0u);
  EXPECT_EQ(pool.stats().local_steals, pool.stats().steals);
}

TEST(NumaPool, EscapeOneNeverStealsLocally) {
  // escape 1: every attempt targets a remote group.
  PoolOptions opt;
  opt.policy = StealPolicy::kRandom;
  opt.layout = GroupLayout::contiguous(4, 2);
  opt.escape_prob = 1.0;
  Pool pool(4, opt);
  for (int rep = 0; rep < 20; ++rep) expect_pool_computes(pool);
  EXPECT_EQ(pool.stats().local_steals, 0u);
  EXPECT_EQ(pool.stats().remote_steals, pool.stats().steals);
}

TEST(NumaPool, SoloGroupsMakeEveryStealRemote) {
  // One worker per group: no local candidates exist, both flavors must
  // escape on every steal.
  for (const auto policy : {StealPolicy::kRandom, StealPolicy::kPriority}) {
    PoolOptions opt;
    opt.policy = policy;
    opt.layout = GroupLayout::contiguous(4, 4);
    Pool pool(4, opt);
    for (int rep = 0; rep < 20; ++rep) expect_pool_computes(pool);
    EXPECT_EQ(pool.stats().local_steals, 0u);
    EXPECT_EQ(pool.stats().remote_steals, pool.stats().steals);
  }
}

TEST(NumaPool, RejectsBadLayouts) {
  PoolOptions opt;
  opt.layout.group_of = {0, 2};  // hole at group 1
  EXPECT_DEATH({ Pool pool(2, opt); }, "group layout");
  PoolOptions prob;
  prob.escape_prob = 1.5;
  EXPECT_DEATH({ Pool pool(2, prob); }, "probability");
}

/// Sort-routed gather (route), list ranking and SPMS through ParCtx on
/// pools with forced group counts 1/2/4 under both policies.  Outputs must
/// be bit-identical to the seq golden run for every layout: the pool only
/// reschedules race-free work.
TEST(NumaPool, GroupCountParityOnRouteListrankSpms) {
  const size_t n = 512;
  const auto succ = alg::random_list(n, 1234);

  auto make_route = [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto idx = cx.template alloc<i64>(n, "idx");
      auto vals = cx.template alloc<i64>(n, "vals");
      for (size_t i = 0; i < n; ++i) {
        idx.raw()[i] = static_cast<i64>((i * 7 + 3) % n);
        vals.raw()[i] = static_cast<i64>(i * i % 101);
      }
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] {
        alg::gather(cx, alg::StridedView{idx.slice(), 1},
                    alg::StridedView{vals.slice(), 1},
                    alg::StridedView{o.slice(), 1}, n);
      });
      out.assign(o.raw(), o.raw() + n);
    };
  };
  auto make_lr = [n, &succ](std::vector<i64>& out) {
    return [n, &succ, &out](auto& cx) {
      auto s = cx.template alloc<i64>(n, "s");
      std::copy(succ.begin(), succ.end(), s.raw());
      auto r = cx.template alloc<i64>(n, "r");
      cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
      out.assign(r.raw(), r.raw() + n);
    };
  };
  auto make_spms = [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      Rng rng(321);
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::spms(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + n);
    };
  };

  auto sweep = [&](const char* label, auto make) {
    std::vector<i64> golden;
    SeqCtx seq;
    make(golden)(seq);
    ASSERT_FALSE(golden.empty()) << label;
    for (const auto policy : {StealPolicy::kRandom, StealPolicy::kPriority}) {
      for (uint32_t groups : {1u, 2u, 4u}) {
        PoolOptions opt;
        opt.policy = policy;
        opt.layout = GroupLayout::contiguous(4, groups);
        Pool pool(4, opt);
        ParCtx cx(pool, /*serial_below=*/64);
        std::vector<i64> out;
        make(out)(cx);
        EXPECT_EQ(out, golden) << label << " policy="
                               << static_cast<int>(policy)
                               << " groups=" << groups;
        EXPECT_EQ(pool.groups(), groups);
        const rt::PoolStats s = pool.stats();
        EXPECT_EQ(s.local_steals + s.remote_steals, s.steals);
      }
    }
  };
  sweep("route", make_route);
  sweep("listrank", make_lr);
  sweep("spms", make_spms);
}

}  // namespace
}  // namespace ro
