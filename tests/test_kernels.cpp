// Unit tests for the branch-free sort kernels (alg/kernels.h): every
// kernel against its std:: reference on random and adversarial inputs,
// plus the per-backend selection trait that keeps the recording contexts
// on the scalar base cases (bit-exact traces) while the seq / par-*
// contexts take the fast path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ro/alg/kernels.h"
#include "ro/core/seq_ctx.h"
#include "ro/core/trace_ctx.h"
#include "ro/rt/par_ctx.h"
#include "ro/util/rng.h"

namespace ro {
namespace {

using alg::kern::corank;
using alg::kern::lower_bound;
using alg::kern::merge;
using alg::kern::upper_bound;

std::vector<int64_t> sorted_input(const std::string& kind, size_t n,
                                  uint64_t seed) {
  std::vector<int64_t> v(n);
  if (kind == "random") {
    Rng rng(seed);
    for (auto& x : v) x = static_cast<int64_t>(rng.next_below(4 * n + 1)) - 7;
  } else if (kind == "all-equal") {
    std::fill(v.begin(), v.end(), int64_t{5});
  } else if (kind == "few-distinct") {
    Rng rng(seed + 1);
    for (auto& x : v) x = static_cast<int64_t>(rng.next_below(3));
  } else if (kind == "ramp") {
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<int64_t>(2 * i);
  }
  std::sort(v.begin(), v.end());
  return v;
}

const char* kKinds[] = {"random", "all-equal", "few-distinct", "ramp"};

TEST(Kernels, BoundsMatchStdOnEveryKindAndKey) {
  for (const char* kind : kKinds) {
    for (const size_t n : {0u, 1u, 2u, 7u, 63u, 256u}) {
      const std::vector<int64_t> v = sorted_input(kind, n, n * 13 + 5);
      // Probe every value in range plus the out-of-range extremes, so hits,
      // misses, duplicate runs and both ends are all exercised.
      for (int64_t key = -9; key <= static_cast<int64_t>(4 * n) + 2; ++key) {
        const size_t lo_want = static_cast<size_t>(
            std::lower_bound(v.begin(), v.end(), key) - v.begin());
        const size_t hi_want = static_cast<size_t>(
            std::upper_bound(v.begin(), v.end(), key) - v.begin());
        ASSERT_EQ(lower_bound(v.data(), n, key), lo_want)
            << kind << " n=" << n << " key=" << key;
        ASSERT_EQ(upper_bound(v.data(), n, key), hi_want)
            << kind << " n=" << n << " key=" << key;
      }
    }
  }
}

TEST(Kernels, MergeMatchesStdMerge) {
  for (const char* ka : kKinds) {
    for (const char* kb : kKinds) {
      for (const auto& [na, nb] :
           {std::pair<size_t, size_t>{0, 0}, {0, 9}, {9, 0}, {1, 1}, {7, 200},
            {200, 7}, {128, 128}, {333, 500}}) {
        const std::vector<int64_t> a = sorted_input(ka, na, na * 7 + 1);
        const std::vector<int64_t> b = sorted_input(kb, nb, nb * 11 + 2);
        std::vector<int64_t> want(na + nb);
        std::merge(a.begin(), a.end(), b.begin(), b.end(), want.begin());
        std::vector<int64_t> got(na + nb, -1);
        merge(a.data(), na, b.data(), nb, got.data());
        ASSERT_EQ(got, want) << ka << "+" << kb << " na=" << na
                             << " nb=" << nb;
      }
    }
  }
}

TEST(Kernels, CorankIsTheSmallestValidSplit) {
  for (const char* ka : kKinds) {
    for (const char* kb : kKinds) {
      const size_t na = 57, nb = 91;
      const std::vector<int64_t> a = sorted_input(ka, na, 3);
      const std::vector<int64_t> b = sorted_input(kb, nb, 4);
      for (size_t q = 0; q <= na + nb; ++q) {
        const size_t ai = corank(q, a.data(), na, b.data(), nb);
        // Reference: linear scan for the smallest ai in the valid range
        // with a[ai] >= b[q - ai - 1] (the same predicate the kernel
        // halves on).
        const size_t lo = q > nb ? q - nb : 0;
        const size_t hi = q < na ? q : na;
        size_t want = lo;
        while (want < hi && a[want] < b[q - want - 1]) ++want;
        ASSERT_EQ(ai, want) << ka << "+" << kb << " q=" << q;
        // The split is a valid merge prefix: a[0..ai) + b[0..q-ai) are all
        // <= every remaining element of the other side.
        const size_t bi = q - ai;
        if (ai > 0 && bi < nb) {
          ASSERT_LE(a[ai - 1], b[bi]) << " q=" << q;
        }
        if (bi > 0 && ai < na) {
          ASSERT_LE(b[bi - 1], a[ai]) << " q=" << q;
        }
      }
    }
  }
}

TEST(Kernels, CopyAndFill) {
  const std::vector<int64_t> src = sorted_input("random", 300, 77);
  std::vector<int64_t> dst(300, 0);
  alg::kern::copy(src.data(), src.size(), dst.data());
  EXPECT_EQ(dst, src);
  alg::kern::fill(dst.data(), dst.size(), -3);
  EXPECT_TRUE(std::all_of(dst.begin(), dst.end(),
                          [](int64_t x) { return x == -3; }));
}

// The selection trait: recording contexts (and unknown context types) must
// stay on the scalar base cases; the non-recording execution contexts take
// the kernels.
struct NoTraitCtx {};

static_assert(!alg::kern::fast_path_v<TraceCtx>,
              "TraceCtx records — must keep the scalar base cases");
static_assert(!alg::kern::fast_path_v<NoTraitCtx>,
              "unknown contexts are conservatively treated as recording");
static_assert(alg::kern::fast_path_v<SeqCtx>,
              "SeqCtx does not record — fast path expected");
static_assert(alg::kern::fast_path_v<rt::ParCtx>,
              "ParCtx does not record — fast path expected");

TEST(Kernels, FastPathSelectionTrait) {
  EXPECT_FALSE(alg::kern::fast_path_v<TraceCtx>);
  EXPECT_TRUE(alg::kern::fast_path_v<SeqCtx>);
}

}  // namespace
}  // namespace ro
