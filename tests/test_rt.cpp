// Real-thread runtime tests: deque semantics, pool fork-join correctness
// under both steal policies, algorithm runs through ParCtx.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>

#include "ro/alg/scan.h"
#include "ro/alg/sort.h"
#include "ro/rt/par_ctx.h"
#include "ro/rt/pool.h"

namespace ro {
namespace {

using alg::i64;
using rt::Deque;
using rt::Job;
using rt::ParCtx;
using rt::Pool;
using rt::StealPolicy;

TEST(Deque, OwnerLifoThiefFifo) {
  Deque d;
  Job a, b, c;
  d.push(&a, 1);
  d.push(&b, 2);
  d.push(&c, 3);
  EXPECT_EQ(d.size_estimate(), 3);
  EXPECT_EQ(d.peek_top_depth(), 1u);  // top = oldest
  EXPECT_EQ(d.steal(), &a);           // thief takes oldest
  EXPECT_EQ(d.peek_top_depth(), 2u);
  EXPECT_EQ(d.pop(), &c);             // owner takes newest
  EXPECT_EQ(d.pop(), &b);
  EXPECT_EQ(d.pop(), nullptr);
  EXPECT_EQ(d.steal(), nullptr);
  EXPECT_EQ(d.peek_top_depth(), UINT32_MAX);  // empty
}

TEST(Deque, SingleElementRace) {
  Deque d;
  Job a;
  d.push(&a, 0);
  EXPECT_EQ(d.pop(), &a);
  d.push(&a, 0);
  EXPECT_EQ(d.steal(), &a);
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(Pool, ForkJoinComputesRecursiveSum) {
  for (const auto policy : {StealPolicy::kRandom, StealPolicy::kPriority}) {
    Pool pool(2, policy);
    ParCtx cx(pool, /*serial_below=*/8);
    const size_t n = 1 << 15;
    auto a = cx.alloc<i64>(n);
    for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(i % 9);
    auto out = cx.alloc<i64>(1);
    cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice(), /*grain=*/16); });
    const i64 want = std::accumulate(a.raw(), a.raw() + n, i64{0});
    EXPECT_EQ(out.raw()[0], want);
  }
}

TEST(Pool, RepeatedRunsAreRace_Free) {
  Pool pool(2, StealPolicy::kRandom);
  ParCtx cx(pool, 64);
  const size_t n = 1 << 12;
  auto a = cx.alloc<i64>(n);
  for (size_t i = 0; i < n; ++i) a.raw()[i] = 1;
  auto out = cx.alloc<i64>(1);
  for (int rep = 0; rep < 50; ++rep) {
    out.raw()[0] = 0;
    cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice(), 8); });
    ASSERT_EQ(out.raw()[0], static_cast<i64>(n)) << "rep " << rep;
  }
}

TEST(Pool, SortThroughParCtx) {
  Pool pool(2, StealPolicy::kPriority);
  ParCtx cx(pool, 256);
  const size_t n = 1 << 14;
  auto a = cx.alloc<i64>(n);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(rng.next());
  std::vector<i64> want(a.raw(), a.raw() + n);
  std::sort(want.begin(), want.end());
  auto out = cx.alloc<i64>(n);
  cx.run(n, [&] { alg::msort(cx, a.slice(), out.slice(), 32, 32); });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(out.raw()[i], want[i]);
}

TEST(Pool, PrefixSumsThroughParCtx) {
  Pool pool(2, StealPolicy::kRandom);
  ParCtx cx(pool, 128);
  const size_t n = 1 << 13;
  auto a = cx.alloc<i64>(n);
  for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(i % 5) - 2;
  auto out = cx.alloc<i64>(n);
  cx.run(n, [&] { alg::prefix_sums(cx, a.slice(), out.slice(), 16); });
  i64 run = 0;
  for (size_t i = 0; i < n; ++i) {
    run += a.raw()[i];
    ASSERT_EQ(out.raw()[i], run);
  }
}

TEST(Pool, StatsAccumulate) {
  Pool pool(2, StealPolicy::kRandom);
  ParCtx cx(pool, 8);
  const size_t n = 1 << 15;
  auto a = cx.alloc<i64>(n);
  auto out = cx.alloc<i64>(1);
  // With two workers and fine grain a steal happens almost surely per run;
  // retry on a wall-clock budget to be robust against a heavily loaded
  // build host where the second worker may not get scheduled during one
  // run (a fixed rep count was observed to flake under parallel ctest).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.stats().steals == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice(), 8); });
  }
  EXPECT_GE(pool.stats().steals, 1u);
}

TEST(Pool, SingleThreadFallback) {
  Pool pool(1);
  ParCtx cx(pool);
  const size_t n = 4096;
  auto a = cx.alloc<i64>(n);
  for (size_t i = 0; i < n; ++i) a.raw()[i] = 2;
  auto out = cx.alloc<i64>(1);
  cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice()); });
  EXPECT_EQ(out.raw()[0], static_cast<i64>(2 * n));
}

}  // namespace
}  // namespace ro
