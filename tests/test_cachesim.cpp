// Unit tests: LRU cache, coherence directory, and miss classification /
// false-sharing dynamics of the replay engine on hand-crafted computations.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ro/alg/scan.h"
#include "ro/core/trace_ctx.h"
#include "ro/sched/run.h"
#include "ro/sim/cache.h"
#include "ro/sim/directory.h"
#include "ro/sim/flat_index.h"
#include "ro/util/rng.h"
#include "lru_cache.h"

namespace ro {
namespace {

using alg::i64;

// FlatLru and its reference oracle (lru_cache.h) implement the same
// exact-LRU contract; every directed cache test runs against each.
template <class C>
class LruImpl : public ::testing::Test {};
using LruImpls = ::testing::Types<FlatLru, LruCache>;
TYPED_TEST_SUITE(LruImpl, LruImpls);

TYPED_TEST(LruImpl, HitMissEvict) {
  TypeParam c(2);
  EXPECT_FALSE(c.contains(1));
  EXPECT_FALSE(c.insert(1).has_value());
  EXPECT_FALSE(c.insert(2).has_value());
  EXPECT_TRUE(c.contains(1));
  c.touch(1);  // 1 becomes MRU; 2 is LRU
  auto victim = c.insert(3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(3));
}

TYPED_TEST(LruImpl, InvalidateRemoves) {
  TypeParam c(4);
  c.insert(7);
  EXPECT_TRUE(c.invalidate(7));
  EXPECT_FALSE(c.contains(7));
  EXPECT_FALSE(c.invalidate(7));
  EXPECT_EQ(c.size(), 0u);
}

TYPED_TEST(LruImpl, ExactLruOrder) {
  TypeParam c(3);
  c.insert(1);
  c.insert(2);
  c.insert(3);
  c.touch(1);
  c.touch(2);  // LRU order now: 3, 1, 2
  EXPECT_EQ(*c.insert(4), 3u);
  EXPECT_EQ(*c.insert(5), 1u);
}

TYPED_TEST(LruImpl, CombinedAccessMatchesDiscreteOps) {
  TypeParam c(2);
  CacheAccess r = c.access(1);  // cold miss, no eviction
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.evicted);
  r = c.access(1);  // hit
  EXPECT_TRUE(r.hit);
  c.access(2);
  r = c.access(3);  // miss evicting LRU = 1 (2 was touched after it)
  EXPECT_FALSE(r.hit);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim, 1u);
}

TEST(FlatLru, InvalidateMruLruAndAbsent) {
  FlatLru c(3);
  c.insert(1);
  c.insert(2);
  c.insert(3);  // LRU order: 1, 2, 3 (1 is LRU, 3 MRU)
  EXPECT_TRUE(c.invalidate(3));   // MRU
  EXPECT_TRUE(c.invalidate(1));   // LRU
  EXPECT_FALSE(c.invalidate(9));  // absent: no-op
  EXPECT_EQ(c.size(), 1u);
  c.insert(4);  // refills through the invalidated-slot free list
  c.insert(5);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(*c.insert(6), 2u);  // 2 is the surviving LRU
}

TEST(FlatLru, CapacityOneChurn) {
  FlatLru c(1);
  EXPECT_FALSE(c.insert(10).has_value());
  for (uint64_t b = 11; b < 600; ++b) {
    const CacheAccess r = c.access(b);
    EXPECT_FALSE(r.hit);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, b - 1);
    EXPECT_EQ(c.size(), 1u);
  }
}

// Randomized property test: FlatLru against the list+map LruCache as
// oracle, over op sequences mixing combined accesses, touches (present and
// absent) and invalidations (MRU / LRU / middle / absent), at capacities
// down to 1 and with enough universe pressure for sustained full-cache
// eviction churn.  Every outcome — hit, eviction, victim identity, size,
// membership — must match op for op.
TEST(FlatLru, MatchesLegacyOracleOnRandomOpSequences) {
  for (const uint32_t cap : {1u, 2u, 3u, 8u, 64u}) {
    Rng rng(uint64_t{cap} * 977 + 11);
    FlatLru f(cap);
    LruCache l(cap);
    const uint64_t universe = uint64_t{cap} * 4;
    for (int i = 0; i < 20000; ++i) {
      const uint64_t b = rng.next_below(universe);
      switch (rng.next_below(4)) {
        case 0:
        case 1: {
          const CacheAccess fa = f.access(b);
          const CacheAccess la = l.access(b);
          ASSERT_EQ(fa.hit, la.hit) << "cap " << cap << " op " << i;
          ASSERT_EQ(fa.evicted, la.evicted) << "cap " << cap << " op " << i;
          if (fa.evicted) {
            ASSERT_EQ(fa.victim, la.victim) << "cap " << cap << " op " << i;
          }
          break;
        }
        case 2:
          f.touch(b);
          l.touch(b);
          break;
        case 3:
          ASSERT_EQ(f.invalidate(b), l.invalidate(b))
              << "cap " << cap << " op " << i;
          break;
      }
      ASSERT_EQ(f.size(), l.size()) << "cap " << cap << " op " << i;
      ASSERT_EQ(f.contains(b), l.contains(b)) << "cap " << cap << " op " << i;
    }
  }
}

TEST(FlatBlockMap, PutOverwritesAndGrows) {
  FlatBlockMap<uint32_t> m;
  EXPECT_EQ(m.find(3), nullptr);
  for (uint64_t b = 0; b < 300; ++b) m.put(b, static_cast<uint32_t>(b * 2));
  m.put(7, 99);  // overwrite
  EXPECT_EQ(m.size(), 300u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 99u);
  ASSERT_NE(m.find(299), nullptr);
  EXPECT_EQ(*m.find(299), 598u);
  EXPECT_EQ(m.find(300), nullptr);
}

TEST(Directory, GrowsAndTracksTransfers) {
  Directory d;
  d.at(100).holders = 0b11;
  d.at(100).transfers = 5;
  d.at(7).transfers = 2;
  const auto ts = d.transfer_stats();
  EXPECT_EQ(ts.max_transfers, 5u);
  EXPECT_EQ(ts.total_transfers, 7u);
}

TEST(Directory, PagesAllocateOnFirstTouch) {
  // Block ids are sparse (every steal opens a fresh stack arena), so the
  // entries must follow the touched blocks, not the highest id: block
  // 10^9 costs one page (only the page-pointer table spans the range).
  Directory d;
  Directory::Entry* const far = &d.at(1'000'000'000);
  far->transfers = 4;
  EXPECT_EQ(d.pages(), 1u);
  d.at(1'000'000'001).transfers = 1;  // same page
  EXPECT_EQ(d.pages(), 1u);

  // A scatter of blocks below it: the stats match a direct count, one
  // page per distinct page id, and the first entry never moved.
  std::map<uint64_t, uint32_t> mirror{{1'000'000'000, 4}, {1'000'000'001, 1}};
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t b = rng.next_below(1 << 24);
    const uint32_t t = static_cast<uint32_t>(rng.next_below(100));
    d.at(b).transfers = t;
    mirror[b] = t;
  }
  uint64_t max_t = 0, total_t = 0;
  std::set<uint64_t> page_ids;
  for (const auto& [b, t] : mirror) {
    max_t = std::max<uint64_t>(max_t, t);
    total_t += t;
    page_ids.insert(b / Directory::kPageEntries);
  }
  const auto ts = d.transfer_stats();
  EXPECT_EQ(ts.max_transfers, max_t);
  EXPECT_EQ(ts.total_transfers, total_t);
  EXPECT_EQ(d.pages(), page_ids.size());
  EXPECT_EQ(&d.at(1'000'000'000), far);
  EXPECT_EQ(far->transfers, 4u);
}

// ---- engine-level classification on crafted traces ----

// Two forked tasks write interleaved halves of ONE block: classic false
// sharing.  Sequentially there are zero coherence misses; on 2 cores under
// any work stealer the block ping-pongs.
TaskGraph false_sharing_graph(size_t writes_per_task) {
  TraceCtx cx;
  auto arr = cx.alloc<i64>(64, "shared");
  auto s = arr.slice();
  return cx.run(2 * writes_per_task, [&] {
    cx.fork2(
        writes_per_task,
        [&] {
          for (size_t i = 0; i < writes_per_task; ++i)
            cx.set(s, (2 * i) % 64, static_cast<i64>(i));
        },
        writes_per_task, [&] {
          for (size_t i = 0; i < writes_per_task; ++i)
            cx.set(s, (2 * i + 1) % 64, static_cast<i64>(i));
        });
  });
}

TEST(Engine, FalseSharingClassifiedAsBlockMisses) {
  TaskGraph g = false_sharing_graph(64);
  SimConfig cfg;
  cfg.p = 2;
  cfg.B = 64;  // whole array = one block
  cfg.M = 64 * 16;
  cfg.inject_frame_traffic = false;  // isolate data traffic

  const Metrics seq = simulate(g, SchedKind::kSeq, cfg);
  EXPECT_EQ(seq.block_misses(), 0u);
  EXPECT_GE(seq.cache_misses(), 1u);  // one cold miss for the block

  const Metrics pws = simulate(g, SchedKind::kPws, cfg);
  // The sibling gets stolen; interleaved writes ping-pong the block.
  EXPECT_GE(pws.steals(), 1u);
  EXPECT_GT(pws.block_misses(), 10u);
  EXPECT_GT(pws.max_block_transfers, 10u);
}

TEST(Engine, NoFalseSharingWhenTasksOwnDistinctBlocks) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(64, "a");   // block 0
  auto b = cx.alloc<i64>(64, "b");   // a different block (aligned alloc)
  auto sa = a.slice();
  auto sb = b.slice();
  TaskGraph g = cx.run(128, [&] {
    cx.fork2(
        64,
        [&] {
          for (size_t i = 0; i < 64; ++i) cx.set(sa, i, i64(i));
        },
        64, [&] {
          for (size_t i = 0; i < 64; ++i) cx.set(sb, i, i64(i));
        });
  });
  SimConfig cfg;
  cfg.p = 2;
  cfg.B = 64;
  cfg.M = 64 * 16;
  cfg.inject_frame_traffic = false;
  const Metrics pws = simulate(g, SchedKind::kPws, cfg);
  EXPECT_GE(pws.steals(), 1u);
  EXPECT_EQ(pws.block_misses(), 0u);
}

TEST(Engine, CapacityMissesAppearWhenWorkingSetExceedsM) {
  TraceCtx cx;
  const size_t n = 1 << 12;
  auto a = cx.alloc<i64>(n, "a");
  auto sa = a.slice();
  TaskGraph g = cx.run(2 * n, [&] {
    // Two sequential passes: the second one re-reads evicted blocks.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < n; ++i) (void)cx.get(sa, i);
    }
  });
  SimConfig small;
  small.p = 1;
  small.B = 16;
  small.M = 16 * 8;  // 8 lines << n/B blocks
  const Metrics tight = simulate(g, SchedKind::kSeq, small);

  SimConfig big = small;
  big.M = 2 * n;  // everything fits
  const Metrics roomy = simulate(g, SchedKind::kSeq, big);

  EXPECT_GT(tight.cache_misses(), roomy.cache_misses());
  // With a big cache the second pass is all hits: misses == cold misses ==
  // number of blocks.
  EXPECT_EQ(roomy.cache_misses(), n / 16);
  EXPECT_EQ(roomy.core[0].misses(MissClass::kCapacity), 0u);
  EXPECT_GT(tight.core[0].misses(MissClass::kCapacity), 0u);
}

TEST(Engine, SeqEqualsComputePlusMissLatency) {
  TraceCtx cx;
  const size_t n = 256;
  auto a = cx.alloc<i64>(n, "a");
  auto sa = a.slice();
  TaskGraph g = cx.run(n, [&] {
    for (size_t i = 0; i < n; ++i) (void)cx.get(sa, i);
  });
  SimConfig cfg;
  cfg.p = 1;
  cfg.B = 16;
  cfg.M = 1 << 12;
  cfg.miss_latency = 10;
  cfg.inject_frame_traffic = false;
  const Metrics m = simulate(g, SchedKind::kSeq, cfg);
  EXPECT_EQ(m.core[0].compute, n);
  EXPECT_EQ(m.cache_misses(), n / 16);
  EXPECT_EQ(m.makespan, n + 10 * (n / 16));
}

}  // namespace
}  // namespace ro
