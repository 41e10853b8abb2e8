// Unit tests: bit utilities, RNG, table printer, CLI parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "ro/util/bits.h"
#include "ro/util/cli.h"
#include "ro/util/rng.h"
#include "ro/util/table.h"
#include "ro/util/vec_pool.h"

namespace ro {
namespace {

TEST(Bits, Pow2Predicates) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(uint64_t{1} << 40));
  EXPECT_FALSE(is_pow2((uint64_t{1} << 40) + 1));
}

TEST(Bits, Log2) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1024), 10u);
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(1025), 11u);
}

TEST(Bits, NextPow2AndRounding) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(8), 8u);
  EXPECT_EQ(round_up_pow2(13, 8), 16u);
  EXPECT_EQ(round_up_pow2(16, 8), 16u);
}

TEST(Bits, IsqrtExhaustiveSmallAndSpot) {
  for (uint64_t x = 0; x < 5000; ++x) {
    const uint64_t r = isqrt(x);
    EXPECT_LE(r * r, x);
    EXPECT_GT((r + 1) * (r + 1), x);
  }
  EXPECT_EQ(isqrt(uint64_t{1} << 40), uint64_t{1} << 20);
}

TEST(Bits, MortonRoundTrip) {
  for (uint32_t r = 0; r < 64; ++r) {
    for (uint32_t c = 0; c < 64; ++c) {
      const auto rc = morton_decode(morton_encode(r, c));
      EXPECT_EQ(rc.row, r);
      EXPECT_EQ(rc.col, c);
    }
  }
}

TEST(Bits, MortonQuadrantOrder) {
  // BI order: TL, TR, BL, BR for a 2x2 matrix.
  EXPECT_EQ(morton_encode(0, 0), 0u);
  EXPECT_EQ(morton_encode(0, 1), 1u);
  EXPECT_EQ(morton_encode(1, 0), 2u);
  EXPECT_EQ(morton_encode(1, 1), 3u);
}

TEST(Bits, MortonQuadrantContiguity) {
  // Every aligned s×s tile occupies a contiguous s² range.
  const uint32_t n = 32;
  for (uint32_t s : {2u, 4u, 8u, 16u}) {
    for (uint32_t r0 = 0; r0 < n; r0 += s) {
      for (uint32_t c0 = 0; c0 < n; c0 += s) {
        const uint64_t base = morton_encode(r0, c0);
        std::set<uint64_t> seen;
        for (uint32_t r = 0; r < s; ++r)
          for (uint32_t c = 0; c < s; ++c)
            seen.insert(morton_encode(r0 + r, c0 + c));
        EXPECT_EQ(*seen.begin(), base);
        EXPECT_EQ(*seen.rbegin(), base + s * s - 1);
        EXPECT_EQ(seen.size(), static_cast<size_t>(s) * s);
      }
    }
  }
}

TEST(Bits, BitReverse) {
  EXPECT_EQ(bit_reverse(0b001, 3), 0b100u);
  EXPECT_EQ(bit_reverse(0b110, 3), 0b011u);
  EXPECT_EQ(bit_reverse(1, 1), 1u);
}

TEST(Rng, DeterministicAndDistinctSeeds) {
  Rng a(42), b(42), c(43);
  bool differed = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.next();
    EXPECT_EQ(x, b.next());
    if (x != c.next()) differed = true;
  }
  EXPECT_TRUE(differed);
}

TEST(Rng, BoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// A test-only element type gets a pool no product code touches.
struct PoolProbe {
  uint64_t v = 0;
};

TEST(VecPool, KeepsTheLargestClearedBuffersUnderTheCaps) {
  using Pool = VecPool<PoolProbe>;
  using Vec = std::vector<PoolProbe>;
  EXPECT_EQ(Pool::take().capacity(), 0u);  // empty pool: a fresh vector
  Pool::give(Vec(10));
  Pool::give(Vec(30));
  Pool::give(Vec(20));  // full: the smallest of the three is freed
  Pool::give(Vec(Pool::kMaxBytes / sizeof(PoolProbe) + 1));  // over cap
  Vec a = Pool::take();
  Vec b = Pool::take();
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.capacity(), 30u);  // largest first
  EXPECT_EQ(b.capacity(), 20u);
  EXPECT_EQ(Pool::take().capacity(), 0u);
}

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.header({"a", "long-col"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  const std::string s = t.render();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("long-col"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(uint64_t{42}), "42");
  EXPECT_EQ(Table::num(3.0), "3");
  EXPECT_EQ(Table::num(int64_t{-7}), "-7");
}

TEST(Table, NumNonFiniteAndHugeDoubles) {
  // A ratio over a zero bound is inf or NaN; neither may reach the
  // int64_t cast (undefined behaviour, caught by UBSan).
  EXPECT_EQ(Table::num(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(Table::num(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(Table::num(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(Table::num(1e300), "1e+300");
  EXPECT_EQ(Table::num(-1e300), "-1e+300");
  EXPECT_EQ(Table::num(0.5), "0.5");
}

TEST(Table, CsvQuotesFieldsPerRfc4180) {
  // Fields holding a comma, a quote or a line break are quoted, with the
  // quotes doubled; the rest are written as they are.
  const std::string path = ::testing::TempDir() + "table_quoting.csv";
  Table t;
  t.header({"name", "n"});
  t.row({"Depth-n-MM (c=2, s=n/4)", "3072"});
  t.row({"say \"hi\"", "two\nlines"});
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(),
            "name,n\n"
            "\"Depth-n-MM (c=2, s=n/4)\",3072\n"
            "\"say \"\"hi\"\"\",\"two\nlines\"\n");
  std::remove(path.c_str());
}

TEST(Table, CsvReportsUnwritablePath) {
  Table t;
  t.header({"a"});
  EXPECT_FALSE(t.write_csv(::testing::TempDir() + "no-such-dir/out.csv"));
}

TEST(Cli, NonNumericValueFallsBackToDefault) {
  // `--n=abc` used to parse as 0 via strtoll's nullptr endptr; it must
  // fall back to the caller's default instead.
  const char* argv[] = {"prog", "--n=abc", "--x=", "--f=oops"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 17), 17);
  EXPECT_EQ(cli.get_int("x", -3), -3);  // empty value
  EXPECT_DOUBLE_EQ(cli.get_double("f", 2.5), 2.5);
}

TEST(Cli, NumericValuesFullyParsed) {
  const char* argv[] = {"prog", "--n=0x10", "--m=-42", "--f=1.5e3"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 16);  // base-0: hex accepted
  EXPECT_EQ(cli.get_int("m", 0), -42);
  EXPECT_DOUBLE_EQ(cli.get_double("f", 0), 1500.0);
}

TEST(CliDeathTest, PartiallyNumericGarbageIsChecked) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"prog", "--n=12x", "--f=3.5qq"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_DEATH(cli.get_int("n", 0), "trailing garbage");
  EXPECT_DEATH(cli.get_double("f", 0), "trailing garbage");
}

TEST(Cli, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog", "--n=32", "--name", "x", "pos1", "--flag"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 32);
  EXPECT_EQ(cli.get_str("name", ""), "x");
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get_int("missing", 9), 9);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

}  // namespace
}  // namespace ro
