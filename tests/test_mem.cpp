// Unit tests: virtual address space, VArray/Slice, gap layouts.
#include <gtest/gtest.h>

#include <set>

#include "ro/mem/gap.h"
#include "ro/mem/varray.h"
#include "ro/mem/vspace.h"

namespace ro {
namespace {

TEST(VSpace, AlignedDisjointAllocations) {
  VSpace vs(64);
  const vaddr_t a = vs.allocate(10, "a");
  const vaddr_t b = vs.allocate(100, "b");
  const vaddr_t c = vs.allocate(1, "c");
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_EQ(c % 64, 0u);
  EXPECT_GE(b, a + 10);
  EXPECT_GE(c, b + 100);
  // Block-disjoint: no two allocations share a 64-word block.
  EXPECT_NE(a / 64, b / 64);
  EXPECT_NE(b / 64, c / 64);
  EXPECT_EQ(vs.region_of(a), "a");
  EXPECT_EQ(vs.region_of(b + 5), "b");
  EXPECT_EQ(vs.regions().size(), 3u);
}

TEST(VSpace, ShardLayoutHelpers) {
  EXPECT_EQ(shard_of(0), 0u);
  EXPECT_EQ(shard_base(0), 0u);
  const vaddr_t a = shard_base(7) + 12345;
  EXPECT_EQ(shard_of(a), 7u);
  EXPECT_EQ(shard_offset(a), 12345u);
  // The split covers the whole 64-bit word address.
  EXPECT_EQ(shard_of(shard_base(kMaxShards - 1)), kMaxShards - 1);
  EXPECT_EQ(shard_base(1), kShardSpanWords);
}

TEST(VSpace, DefaultIsShardZeroCompatibilityPath) {
  // A default VSpace must behave bit-for-bit like the pre-shard layout:
  // base 0, first allocation at address 0.
  VSpace vs(64);
  EXPECT_EQ(vs.base(), 0u);
  EXPECT_EQ(vs.shard(), 0u);
  EXPECT_EQ(vs.allocate(10, "a"), 0u);
}

TEST(ShardedVSpace, ShardsNeverAlias) {
  ShardedVSpace ssp(4, 64);
  // Same allocation sequence in every shard: bases differ exactly by the
  // shard offset, and no two allocations from different shards can share
  // a block at any simulated block size (block id = addr / B).
  std::vector<vaddr_t> base(4);
  for (uint32_t s = 0; s < 4; ++s) {
    base[s] = ssp.shard(s).allocate(100, "x");
    EXPECT_EQ(shard_of(base[s]), s);
    EXPECT_EQ(shard_offset(base[s]), 0u);
  }
  for (uint32_t s = 1; s < 4; ++s) {
    EXPECT_EQ(base[s] - base[s - 1], kShardSpanWords);
    for (uint64_t B : {16u, 64u, 4096u}) {
      EXPECT_NE(base[s] / B, base[s - 1] / B);
    }
  }
  EXPECT_EQ(ssp.allocated_words(), 4 * 100u);
}

TEST(ShardedVSpace, RegionLookupAcrossShards) {
  ShardedVSpace ssp(3, 64);
  const vaddr_t a = ssp.shard(0).allocate(10, "alpha");
  const vaddr_t b = ssp.shard(2).allocate(20, "gamma");
  EXPECT_EQ(ssp.region_of(a), "alpha");
  EXPECT_EQ(ssp.region_of(b + 19), "gamma");
  EXPECT_EQ(ssp.region_of(shard_base(1)), "?");      // empty shard
  EXPECT_EQ(ssp.region_of(shard_base(100)), "?");    // beyond the space
  EXPECT_EQ(ssp.shards(), 3u);
}

TEST(VSpace, TopMonotone) {
  VSpace vs(16);
  vaddr_t prev = vs.top();
  for (int i = 0; i < 20; ++i) {
    vs.allocate(7);
    EXPECT_GT(vs.top(), prev);
    prev = vs.top();
  }
}

TEST(VArray, SliceGeometry) {
  VSpace vs(64);
  VArray<int64_t> a(vs, 100, "x");
  auto s = a.slice();
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.base, a.vbase());
  EXPECT_EQ(s.act, kNoAct);
  auto sub = s.sub(10, 20);
  EXPECT_EQ(sub.n, 20u);
  EXPECT_EQ(sub.base, a.vbase() + 10);
  EXPECT_EQ(sub.ptr, a.raw() + 10);
  auto dd = sub.drop(5);
  EXPECT_EQ(dd.n, 15u);
  EXPECT_EQ(dd.base, a.vbase() + 15);
}

TEST(VArray, ComplexElementsOccupyTwoWords) {
  VSpace vs(64);
  VArray<std::complex<double>> a(vs, 8, "c");
  auto s = a.slice();
  EXPECT_EQ(s.sub(3, 2).base, a.vbase() + 6);
  static_assert(words_per_v<std::complex<double>> == 2);
  static_assert(words_per_v<int64_t> == 1);
}

TEST(VArray, ZeroInitialized) {
  VArray<int64_t> a(16);
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(a.raw()[i], 0);
}

TEST(GapLayout, StrideLayoutBasics) {
  StrideLayout s{4};
  EXPECT_EQ(s.slot(0), 0u);
  EXPECT_EQ(s.slot(3), 12u);
  EXPECT_EQ(s.space(4), 13u);
  EXPECT_EQ(s.space(0), 0u);
}

TEST(GapLayout, StrideLayoutEdges) {
  // count == 0 never touches the stride (even a degenerate one).
  EXPECT_EQ(StrideLayout{0}.space(0), 0u);
  // A single element needs one slot regardless of stride.
  EXPECT_EQ(StrideLayout{1u << 20}.space(1), 1u);
  // Largest stride that still fits: (count-1)*stride + 1 at the brink.
  StrideLayout big{uint64_t{1} << 62};
  EXPECT_EQ(big.space(2), (uint64_t{1} << 62) + 1);
}

TEST(GapLayoutDeathTest, StrideOverflowIsChecked) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // count × stride overflowing uint64_t must RO_CHECK-fail, not wrap.
  StrideLayout s{uint64_t{1} << 32};
  EXPECT_DEATH(s.space(uint64_t{1} << 33), "overflow");
  EXPECT_DEATH(s.slot(uint64_t{1} << 33), "overflow");
}

TEST(GapLayout, GapForTinyR) {
  // The r/log²r formula degenerates below r = 4; everything tiny clamps
  // to a single word of gap.
  EXPECT_EQ(gap_for(0), 1u);
  EXPECT_EQ(gap_for(1), 1u);
  EXPECT_EQ(gap_for(2), 1u);
  EXPECT_EQ(gap_for(3), 1u);
  EXPECT_EQ(gap_for(4), 1u);  // 4 / (2·2) = 1
  EXPECT_EQ(gap_for(8), 1u);  // 8/(3·3) rounds to 0, clamped to 1
  EXPECT_GE(gap_for(1 << 10), 1u);
}

TEST(GapLayout, GapForShrinksRelatively) {
  // gap_for(r)/r -> 0: the total space overhead converges (§3.2).
  EXPECT_EQ(gap_for(2), 1u);
  for (uint64_t r = 16; r <= (1 << 20); r *= 4) {
    EXPECT_LE(gap_for(r) * log2_floor(r) * log2_floor(r), r);
    EXPECT_GE(gap_for(r), 1u);
  }
}

class RowGapLayoutTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowGapLayoutTest, InjectiveAndBounded) {
  const uint64_t n = GetParam();
  RowGapLayout lay(n);
  std::set<uint64_t> slots;
  for (uint64_t r = 0; r < n; ++r) {
    uint64_t prev = 0;
    bool first = true;
    for (uint64_t c = 0; c < n; ++c) {
      const uint64_t s = lay.slot(r, c);
      EXPECT_LT(s, lay.space());
      // Within a row, slots are strictly increasing (order-preserving).
      if (!first) {
        EXPECT_GT(s, prev);
      }
      prev = s;
      first = false;
      EXPECT_TRUE(slots.insert(s).second) << "collision at " << r << "," << c;
    }
  }
  // Constant-factor space: padded size <= 4x the dense size.
  EXPECT_LE(lay.space(), 4 * n * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RowGapLayoutTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(GapLayout, SubarrayGapsSeparateSiblingTiles) {
  // Adjacent side-s subarrays in a row are separated by >= gap_for(2s).
  const uint64_t n = 64;
  RowGapLayout lay(n);
  for (uint64_t s = 2; s < n; s *= 2) {
    const uint64_t left_end = lay.slot(0, s - 1);
    const uint64_t right_begin = lay.slot(0, s);
    EXPECT_GE(right_begin - left_end, gap_for(2 * s));
  }
}

}  // namespace
}  // namespace ro
