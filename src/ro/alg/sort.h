// Sort — HBP merge sort with parallel merge: the simple baseline sorting
// primitive.  The paper's real primitive, SPMS (Sample-Partition-Merge
// Sort [12]), lives in spms.h; every sort consumer picks between the two
// at runtime through the SortKind knob (see alg::sort_by in spms.h).
//
// Type-2 HBP shape: two recursive half-sorts into fresh local arrays
// followed by a parallel merge that splits by binary search.  Limited
// access: every array is written once; reads are unrestricted.  Bounds:
// W = O(n log n), T∞ = O(log³ n) (log² per merge × log levels; SPMS achieves
// O(log n · log log n)), Q = O((n/B)·log₂(n/M)) vs SPMS's O((n/B)·log_M n).
// msort is kept as the default for small routing sorts and as the fallback
// inside SPMS itself; bench_spms compares the two head to head.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ro/alg/scan.h"
#include "ro/core/context.h"
#include "ro/mem/varray.h"
#include "ro/util/check.h"

namespace ro::alg {

/// Runtime choice of sorting primitive for the sort-consuming algorithms
/// (route, list ranking, CC, Euler tours): the HBP merge sort below or the
/// paper's SPMS (spms.h).  Threaded through the options structs.
enum class SortKind : uint8_t { kMsort, kSpms };

namespace detail {

/// Parallel merge of sorted a, b into out (|out| = |a| + |b|).
template <class Ctx>
void merge_rec(Ctx& cx, Slice<i64> a, Slice<i64> b, Slice<i64> out,
               size_t base, size_t grain) {
  RO_CHECK(out.n == a.n + b.n);
  if (out.n <= std::max(base, grain)) {
    size_t i = 0;
    size_t j = 0;
    for (size_t k = 0; k < out.n; ++k) {
      const bool take_a =
          j >= b.n || (i < a.n && cx.get(a, i) <= cx.get(b, j));
      cx.set(out, k, take_a ? cx.get(a, i++) : cx.get(b, j++));
    }
    return;
  }
  if (a.n < b.n) std::swap(a, b);
  const size_t am = a.n / 2;
  const i64 pivot = cx.get(a, am);
  // bm = first index of b with b[bm] >= pivot (O(log) head work).
  size_t lo = 0;
  size_t hi = b.n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (cx.get(b, mid) < pivot) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t bm = lo;
  cx.fork2(
      2 * (am + bm),
      [&] {
        merge_rec(cx, a.first(am), b.first(bm), out.first(am + bm), base,
                  grain);
      },
      2 * (out.n - am - bm), [&] {
        merge_rec(cx, a.drop(am), b.drop(bm), out.drop(am + bm), base,
                  grain);
      });
}

template <class Ctx>
void msort_rec(Ctx& cx, Slice<i64> a, Slice<i64> out, size_t base,
               size_t grain) {
  RO_CHECK(a.n == out.n);
  if (a.n <= base) {
    // Read once, sort in registers, write once (limited access).
    std::vector<i64> buf(a.n);
    for (size_t i = 0; i < a.n; ++i) buf[i] = cx.get(a, i);
    std::sort(buf.begin(), buf.end());
    for (size_t i = 0; i < a.n; ++i) cx.set(out, i, buf[i]);
    return;
  }
  const size_t half = a.n / 2;
  auto tmp = cx.template local<i64>(a.n);
  auto ts = tmp.slice();
  cx.fork2(
      2 * half, [&] { msort_rec(cx, a.first(half), ts.first(half), base, grain); },
      2 * (a.n - half),
      [&] { msort_rec(cx, a.drop(half), ts.drop(half), base, grain); });
  merge_rec(cx, ts.first(half), ts.drop(half), out, base, grain);
}

}  // namespace detail

/// Sorts `a` into `out` (non-destructive; |a| = |out|).
template <class Ctx>
void msort(Ctx& cx, Slice<i64> a, Slice<i64> out, size_t base = 8,
           size_t grain = 1) {
  detail::msort_rec(cx, a, out, base, grain);
}

}  // namespace ro::alg
