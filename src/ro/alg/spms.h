// SPMS — Sample, Partition, and Merge Sort, the paper's sorting primitive
// ("Resource Oblivious Sorting on Multicores", Cole & Ramachandran [12]).
//
// Three-phase recursion on n keys (docs/spms.md maps each phase to the
// paper's bounds):
//   1. Sample / subsort: split into k = Θ(√n) contiguous runs of ~4√n and
//      recursively sort them in parallel (one T(√n) term).
//   2. Partition: deterministically sample each sorted run (stride
//      4⌈√m⌉, raised to ≥ 16r when a merge arrives with many sequences —
//      the adaptive stride that keeps the r×t boundary tables ≤ ~m/16 for
//      *any* sequence count, so bucket merges stay on the sampling
//      machinery instead of detouring through a binary merge tree), sort
//      the sample by a recursive multiway merge, deduplicate it into pivot
//      values with the scan.h pack primitives, and locate every pivot in
//      every run with ONE batched amortized multisearch per run: a single
//      divide-and-conquer pass resolves both the lower- and upper-bound
//      tables, carrying each resolved pivot's interval down the recursion
//      (children search strictly disjoint subranges, the equal-range
//      excluded from both) and resolving dense leaves with a linear
//      merge-sweep, O(len + t) instead of O(t log len).
//   3. Merge: the pivots cut the output into interleaved buckets —
//      equal-value buckets resolved by a parallel fill and strict-gap
//      buckets staged contiguously and recursed *directly* into the next
//      SPMS level (the fully interleaved bucket recursion).  Merges whose
//      sequence count defeats even the adaptive stride (near-empty
//      segments) collapse their sequence count to the cap with ONE
//      word-balanced grouping round (merge_grouped) and re-enter the
//      machinery — O(1) rounds in place of the old O(log r)-level binary
//      merge2 tree, which is where the old span paid an extra log factor.
//
// Bounds vs the paper: W = O(n log n), Q = O((n/B)·log_M n)-shaped
// (bench_spms measures Q below msort's (n/B)·log₂(n/M) from n = 2^16 up),
// and span O(log n · log log n)-consistent: bench_spms RO_CHECKs that
// span/(log n · log log n) stays flat over doubling n, and test_spms pins
// the exact spans.  msort (sort.h) remains O(log³ n).
//
// Hardware fast path: on non-recording contexts (SeqCtx, rt::ParCtx) the
// base cases switch to the branch-free kernels in kernels.h (cmov merge,
// branchless binary search, co-rank, bulk copy/fill) — selected by
// kern::fast_path_v<Ctx>, so simulator traces stay bit-exact while the
// par-* backends get conditional-move selection and memcpy-grade copies.
//
// Limited access: every scratch array and every output position is written
// exactly once per owning merge call (Def 2.4); base cases use the same
// read-once/sort-in-registers/write-once idiom as msort.  All scratch is
// frame-local (cx.local), so replay reuses arena stacks exactly as msort's
// temporaries do.
//
// Tuning: every threshold lives in SpmsTuning, passed by value down the
// call like SortKind (the trailing parameter of spms / sort_by; named
// workloads take it from RunOptions::spms), so bench sweeps never need a
// recompile and differently-tuned sorts run side by side.
#pragma once

#include <algorithm>
#include <vector>

#include "ro/alg/kernels.h"
#include "ro/alg/scan.h"
#include "ro/alg/sort.h"
#include "ro/core/context.h"
#include "ro/mem/varray.h"
#include "ro/util/bits.h"
#include "ro/util/check.h"

namespace ro::alg {

/// SortKind -> "msort" / "spms".
const char* sort_kind_name(SortKind k);

/// Runtime tuning of the SPMS recursion — the constants that used to be
/// compile-time.  Defaults reproduce the shipped behavior; benches sweep
/// them through --spms-* flags (bench/common.h), served jobs through
/// RunOptions::spms.
struct SpmsTuning {
  /// Leaf size below which a (sub)problem is resolved by the sequential
  /// base case.
  size_t merge_base = 32;
  /// Below this size merge2's √-splitting hands over to the sequential
  /// merge (kernel merge on the fast path, merge_rec when recording).
  size_t merge2_min = 1024;
  /// Sampling stride factor: stride = stride_mul·⌈√m⌉.
  size_t stride_mul = 4;
  /// Phase-1 run count divisor: k = ⌈√n⌉/seq_cap_div runs (also the
  /// grouped-merge target).  The classic sample cap.
  size_t seq_cap_div = 4;
  /// Adaptive-stride floor per sequence: a merge of r sequences samples at
  /// stride ≥ stride_per_seq·r, so the r×t tables stay ≤ ~m/stride_per_seq
  /// for any r.  The knob behind the interleaved bucket recursion.
  size_t stride_per_seq = 16;
  /// Multisearch leaf: when (pivots + range) fit under this, resolve the
  /// whole leaf with one linear merge-sweep (the amortized base case).
  size_t multisearch_leaf = 48;
  /// Samples up to this count sort via the sequential base case — a fixed
  /// cap, so the O(1)-span shortcut never reintroduces a Θ(√m)-span
  /// sequential sample sort; larger samples (m beyond ~2^20) take the
  /// parallel recursive merge.
  size_t sample_sort_seq = 256;
  /// Below this merge size the sampling machinery's per-level apparatus
  /// (sample sort, multisearch, boundary tables, two prefix-sum passes)
  /// costs more span than it saves: resolve with the binary merge tree
  /// instead.  Subproblems under a *fixed* cutoff contribute O(1) span, so
  /// this floor does not reintroduce the asymptotic log factor — it is
  /// what keeps the interleaved recursion's constants low at every
  /// measured size.
  size_t machinery_min = 2048;
  /// Branch-free kernels (kernels.h) on non-recording backends.
  bool kernels = true;

  bool operator==(const SpmsTuning&) const = default;
};

/// The tuning's invariants (thresholds the recursion needs to make
/// progress): nullptr when `t` is valid, else a message naming the field.
/// alg::spms RO_CHECKs it; Engine::submit turns it into a kError result.
const char* spms_tuning_error(const SpmsTuning& t);

namespace detail {

/// Paranoia cap: structural progress is guaranteed (every merge level has
/// at least one pivot, so strict-gap buckets shrink, and every grouping
/// round strictly lowers the sequence count), but a cap keeps any
/// unforeseen degeneracy from recursing unboundedly — at the cap the
/// subproblem is resolved by the sequential base case (correct, if slow;
/// unreachable in practice).
inline constexpr uint32_t kSpmsDepthCap = 64;

/// ⌈√m⌉ (m >= 1).
inline size_t ceil_sqrt(size_t m) { return m <= 1 ? 1 : isqrt(m - 1) + 1; }

/// Sampling stride for a merge of total size m: every stride_mul·⌈√m⌉-th
/// element, so the sample (and with it the pivot count t) stays ~√m/4 and
/// the r×t partition tables stay a small fraction of m.
inline size_t spms_stride(size_t m, const SpmsTuning& tn) {
  return tn.stride_mul * ceil_sqrt(m);
}

/// The sequence-count target of a merge of size m: phase 1 cuts the input
/// into this many runs, and grouped merges collapse down to it.  With
/// r ≤ ⌈√m⌉/4 the r×t boundary tables hold ≤ ~m/16 entries.
inline size_t spms_seq_cap(size_t m, const SpmsTuning& tn) {
  return std::max<size_t>(2, ceil_sqrt(m) / tn.seq_cap_div);
}

/// Sequence i's sampling offset: strides start at (i/r)·s so that when
/// each run yields only one sample, the r samples sit at r *distinct*
/// quantiles instead of r copies of the same one (iid runs would otherwise
/// put every pivot at the global median and leave two giant end buckets).
inline size_t spms_sample_off(size_t i, size_t r, size_t s) {
  return (i * s) / r;
}

/// Number of samples of a length-`len` sequence at stride s from `off`.
inline size_t spms_sample_count(size_t len, size_t s, size_t off) {
  return len > off ? (len - off - 1) / s + 1 : 0;
}

/// Base case shared by the sort and merge recursions: read each element
/// once, order in registers, write each output once (msort's idiom).  On
/// the fast path, one- and two-sequence cases lower to memcpy / the cmov
/// merge kernel.
template <class Ctx>
void spms_base(Ctx& cx, const std::vector<Slice<i64>>& seqs, Slice<i64> out,
               const SpmsTuning& tn) {
  if constexpr (kern::fast_path_v<Ctx>) {
    if (tn.kernels) {
      if (seqs.size() == 2) {
        // Two sequences arriving here are sorted (merge-side base case):
        // the cmov merge beats gather+sort.
        RO_CHECK(seqs[0].n + seqs[1].n == out.n);
        kern::merge(seqs[0].ptr, seqs[0].n, seqs[1].ptr, seqs[1].n, out.ptr);
        return;
      }
      // General case — including the sort recursion's single *unsorted*
      // run: gather with bulk copies, sort in place, done.
      size_t k = 0;
      for (const Slice<i64>& s : seqs) {
        kern::copy(s.ptr, s.n, out.ptr + k);
        k += s.n;
      }
      RO_CHECK(k == out.n);
      std::sort(out.ptr, out.ptr + out.n);
      return;
    }
  }
  std::vector<i64> buf;
  buf.reserve(out.n);
  for (const Slice<i64>& s : seqs) {
    for (size_t i = 0; i < s.n; ++i) buf.push_back(cx.get(s, i));
  }
  RO_CHECK(buf.size() == out.n);
  std::sort(buf.begin(), buf.end());
  for (size_t i = 0; i < out.n; ++i) cx.set(out, i, buf[i]);
}

/// Parallel copy of one sorted sequence into its output range.  Fast path:
/// coarse leaves lowering to memcpy; recording path: the word loop.
template <class Ctx>
void spms_copy(Ctx& cx, Slice<i64> src, Slice<i64> out, size_t grain,
               const SpmsTuning& tn) {
  RO_CHECK(src.n == out.n);
  if constexpr (kern::fast_path_v<Ctx>) {
    if (tn.kernels) {
      bp_range(cx, 0, src.n, std::max(grain, tn.merge2_min), 2,
               [&](size_t lo, size_t hi) {
                 kern::copy(src.ptr + lo, hi - lo, out.ptr + lo);
               });
      return;
    }
  }
  bp_range(cx, 0, src.n, grain, 2, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) cx.set(out, i, cx.get(src, i));
  });
}

/// Batched amortized multisearch: ONE divide-and-conquer pass per
/// (sequence, pivot set) resolves BOTH boundary tables — lo_row[j] = first
/// index with seq[idx] >= pv[j] (lower bound), hi_row[j] = first index
/// with seq[idx] > pv[j] (upper bound) — for pivots [j0, j1) within the
/// sequence range [slo, shi).
///
/// Each node resolves the middle pivot's equal-range [lpos, hpos) and
/// carries the interval down: the left half recurses on [slo, lpos), the
/// right half on [hpos, shi) — strictly disjoint, the equal range excluded
/// from both — instead of two independent passes each re-searching from
/// the full nested range.  Dense leaves (pivots + range under
/// tn.multisearch_leaf) resolve with one linear merge-sweep, O(len + t)
/// work; this is what amortizes a level's multisearch work to O(m).
/// The fast path uses the branchless searches from kernels.h.
template <class Ctx>
void multisearch(Ctx& cx, Slice<i64> seq, Slice<i64> pv, Slice<i64> lo_row,
                 Slice<i64> hi_row, size_t j0, size_t j1, size_t slo,
                 size_t shi, const SpmsTuning& tn) {
  if (j0 >= j1) return;
  if ((j1 - j0) + (shi - slo) <= tn.multisearch_leaf) {
    // Amortized leaf: pivots and range walk forward together once.
    size_t idx = slo;
    for (size_t j = j0; j < j1; ++j) {
      const i64 p = cx.get(pv, j);
      while (idx < shi && cx.get(seq, idx) < p) ++idx;
      cx.set(lo_row, j, static_cast<i64>(idx));
      while (idx < shi && cx.get(seq, idx) == p) ++idx;
      cx.set(hi_row, j, static_cast<i64>(idx));
    }
    return;
  }
  const size_t jm = j0 + (j1 - j0) / 2;
  const i64 p = cx.get(pv, jm);
  size_t lpos = slo;
  size_t hpos = shi;
  bool scalar = true;
  if constexpr (kern::fast_path_v<Ctx>) {
    if (tn.kernels) {
      lpos = slo + kern::lower_bound(seq.ptr + slo, shi - slo, p);
      hpos = lpos + kern::upper_bound(seq.ptr + lpos, shi - lpos, p);
      scalar = false;
    }
  }
  if (scalar) {
    size_t lo = slo;
    size_t hi = shi;
    while (lo < hi) {  // lower bound
      const size_t mid = lo + (hi - lo) / 2;
      if (cx.get(seq, mid) < p) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    lpos = lo;
    // Upper bound by galloping from lpos: the equal run is usually empty
    // or short, so this costs O(log gap) reads instead of a second full
    // O(log range) search — the fused node stays as cheap as the
    // single-table node on the critical path.
    size_t run = lpos;  // everything in [lpos, run) is == p
    size_t probe = 1;
    while (run + probe <= shi && cx.get(seq, run + probe - 1) <= p) {
      run += probe;
      probe <<= 1;
    }
    hi = std::min(run + probe - 1, shi);
    while (run < hi) {  // the first > p is in [run, hi)
      const size_t mid = run + (hi - run) / 2;
      if (cx.get(seq, mid) <= p) {
        run = mid + 1;
      } else {
        hi = mid;
      }
    }
    hpos = run;
  }
  cx.set(lo_row, jm, static_cast<i64>(lpos));
  cx.set(hi_row, jm, static_cast<i64>(hpos));
  if (j1 - j0 == 1) return;
  cx.fork2(
      2 * ((jm - j0) + (lpos - slo) + 1),
      [&] {
        multisearch(cx, seq, pv, lo_row, hi_row, j0, jm, slo, lpos, tn);
      },
      2 * ((j1 - jm) + (shi - hpos) + 1), [&] {
        multisearch(cx, seq, pv, lo_row, hi_row, jm + 1, j1, hpos, shi, tn);
      });
}

template <class Ctx>
void spms_sort_rec(Ctx& cx, Slice<i64> a, Slice<i64> out, size_t base,
                   size_t grain, uint32_t depth, const SpmsTuning& tn);

template <class Ctx>
void spms_merge(Ctx& cx, const std::vector<Slice<i64>>& seqs_in,
                Slice<i64> out, size_t base, size_t grain, uint32_t depth,
                const SpmsTuning& tn);

/// √-splitting binary merge — SPMS's replacement for sort.h's merge_rec.
/// Instead of one pivot split per recursion level (O(log² m) span), it
/// co-ranks ⌈√m⌉ evenly spaced *output* positions in parallel (one
/// O(log m) search each) and recurses on the resulting √m-sized chunks:
/// T(m) = O(log m) + T(√m) = O(log m).  This is the rank-based splitting
/// the paper's merge relies on for its T∞ bound.
template <class Ctx>
void merge2(Ctx& cx, Slice<i64> a, Slice<i64> b, Slice<i64> out, size_t base,
            size_t grain, const SpmsTuning& tn) {
  RO_CHECK(out.n == a.n + b.n);
  const size_t m = out.n;
  if (a.n == 0) {
    spms_copy(cx, b, out, grain, tn);
    return;
  }
  if (b.n == 0) {
    spms_copy(cx, a, out, grain, tn);
    return;
  }
  if (m < tn.merge2_min) {
    // Below this size the co-ranking setup costs more than it saves.
    if constexpr (kern::fast_path_v<Ctx>) {
      if (tn.kernels) {  // flat cmov merge beats the split recursion
        kern::merge(a.ptr, a.n, b.ptr, b.n, out.ptr);
        return;
      }
    }
    // merge_rec's single-pivot splitting has the smaller constants.
    merge_rec(cx, a, b, out, std::max(base, size_t{8}), grain);
    return;
  }
  const size_t c = ceil_sqrt(m);
  const size_t chunks = (m + c - 1) / c;
  auto split = cx.template local<i64>(chunks - 1);
  {
    auto sp = split.slice();
    // Co-rank output position q = (j+1)·c: the smallest ai with
    // a[ai] >= b[q-ai-1] gives a valid prefix split (its complement
    // condition a[ai-1] < b[q-ai] holds by minimality).
    fork_range(cx, 0, chunks - 1, 2 * (log2_ceil(m | 1) + 1), [&](size_t j) {
      const size_t q = (j + 1) * c;
      size_t pos;
      bool scalar = true;
      if constexpr (kern::fast_path_v<Ctx>) {
        if (tn.kernels) {
          pos = kern::corank(q, a.ptr, a.n, b.ptr, b.n);
          scalar = false;
        }
      }
      if (scalar) {
        size_t lo = q > b.n ? q - b.n : 0;
        size_t hi = std::min(q, a.n);
        while (lo < hi) {
          const size_t mid = lo + (hi - lo) / 2;
          if (cx.get(a, mid) >= cx.get(b, q - mid - 1)) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        pos = lo;
      }
      cx.set(sp, j, static_cast<i64>(pos));
    });
  }
  // Chunk boundaries, made monotone (ties admit several valid splits).
  std::vector<size_t> ai(chunks + 1);
  std::vector<size_t> qa(chunks + 1);
  ai[0] = 0;
  qa[0] = 0;
  for (size_t j = 1; j < chunks; ++j) {
    qa[j] = j * c;
    ai[j] = std::max<size_t>(ai[j - 1], static_cast<size_t>(split.raw()[j - 1]));
  }
  ai[chunks] = a.n;
  qa[chunks] = m;
  fork_range_sized(
      cx, 0, chunks, [&](size_t j) { return 2 * (qa[j + 1] - qa[j]); },
      [&](size_t j) {
        const size_t a0 = ai[j];
        const size_t a1 = ai[j + 1];
        const size_t b0 = qa[j] - a0;
        const size_t b1 = qa[j + 1] - a1;
        merge2(cx, a.sub(a0, a1 - a0), b.sub(b0, b1 - b0),
               out.sub(qa[j], qa[j + 1] - qa[j]), base, grain, tn);
      });
}

/// Recursive 2D decomposition over [b0, b1) × [i0, i1): forks the longer
/// axis until tiles are ≤ 8×8, then runs `body(b0, b1, i0, i1)`.  Keeps
/// passes that pair a bucket-major array with seq-major tables (a logical
/// transpose) cache-oblivious instead of striding across one of them.
template <class Ctx, class Body>
void tile2d(Ctx& cx, size_t b0, size_t b1, size_t i0, size_t i1,
            uint64_t words_per_cell, Body&& body) {
  const size_t db = b1 - b0;
  const size_t di = i1 - i0;
  if (db == 0 || di == 0) return;
  if (db <= 4 && di <= 4) {
    body(b0, b1, i0, i1);
    return;
  }
  if (db >= di) {
    const size_t bm = b0 + db / 2;
    cx.fork2(
        (bm - b0) * di * words_per_cell,
        [&] { tile2d(cx, b0, bm, i0, i1, words_per_cell, body); },
        (b1 - bm) * di * words_per_cell,
        [&] { tile2d(cx, bm, b1, i0, i1, words_per_cell, body); });
  } else {
    const size_t im = i0 + di / 2;
    cx.fork2(
        db * (im - i0) * words_per_cell,
        [&] { tile2d(cx, b0, b1, i0, im, words_per_cell, body); },
        db * (i1 - im) * words_per_cell,
        [&] { tile2d(cx, b0, b1, im, i1, words_per_cell, body); });
  }
}

/// Balanced *binary* merge tree over seqs[lo, hi) — span O(log r · log² m),
/// one log factor worse than the sampling machinery, so spms_merge only
/// takes it below the fixed machinery_min cutoff, where it wins on
/// constants and contributes O(1) span.
template <class Ctx>
void merge_many(Ctx& cx, const std::vector<Slice<i64>>& seqs, size_t lo,
                size_t hi, Slice<i64> out, size_t base, size_t grain,
                const SpmsTuning& tn) {
  if (hi == lo) return;
  if (hi - lo == 1) {
    spms_copy(cx, seqs[lo], out, grain, tn);
    return;
  }
  if (hi - lo == 2) {
    merge2(cx, seqs[lo], seqs[lo + 1], out, 8, grain, tn);
    return;
  }
  if (out.n <= std::max(base, tn.merge_base)) {
    std::vector<Slice<i64>> segs(seqs.begin() + lo, seqs.begin() + hi);
    spms_base(cx, segs, out, tn);
    return;
  }
  // Split the sequence list where the words split most evenly.
  size_t words = 0;
  for (size_t i = lo; i < hi; ++i) words += seqs[i].n;
  size_t mid = lo + 1;
  size_t left_words = seqs[lo].n;
  while (mid + 1 < hi && 2 * (left_words + seqs[mid].n) <= words) {
    left_words += seqs[mid].n;
    ++mid;
  }
  auto scratch = cx.template local<i64>(words);
  auto sl = scratch.slice(0, left_words);
  auto sr = scratch.slice(left_words, words - left_words);
  cx.fork2(
      2 * left_words,
      [&] { merge_many(cx, seqs, lo, mid, sl, base, grain, tn); },
      2 * (words - left_words),
      [&] { merge_many(cx, seqs, mid, hi, sr, base, grain, tn); });
  merge2(cx, sl, sr, out, 8, grain, tn);
}

/// Interleaved resolver for merges the adaptive stride could not tame
/// (sequence count r with r·t tables that would dominate m — near-empty
/// segments): ONE word-balanced grouping round collapses the sequence
/// count to the cap — every group merges recursively in parallel into
/// staged scratch, then the g group results re-enter spms_merge, whose
/// sampling machinery now applies.  O(1) grouping rounds replace the old
/// binary tree's O(log r) merge2 levels on the critical path.
template <class Ctx>
void merge_grouped(Ctx& cx, const std::vector<Slice<i64>>& seqs,
                   Slice<i64> out, size_t base, size_t grain, uint32_t depth,
                   const SpmsTuning& tn) {
  const size_t q = seqs.size();
  RO_CHECK(q >= 3);  // 0/1/2 sequences are handled upstream
  const size_t words = out.n;
  if (words <= std::max(base, tn.merge_base) || depth >= kSpmsDepthCap) {
    spms_base(cx, seqs, out, tn);
    return;
  }
  // Group count: the machinery's cap, but at most q/2 so every round
  // strictly (and usually geometrically) lowers the sequence count.
  const size_t g =
      std::max<size_t>(2, std::min(spms_seq_cap(words, tn), q / 2));
  std::vector<size_t> gb(g + 1);  // group boundaries into seqs
  std::vector<size_t> goff(g + 1, 0);  // group word offsets into scratch
  {
    size_t i = 0;
    size_t acc = 0;
    for (size_t j = 0; j < g; ++j) {
      gb[j] = i;
      goff[j] = acc;
      // Take ≥ 1 sequence, stop at the word-balanced target, and always
      // leave one sequence for each remaining group.
      do {
        acc += seqs[i].n;
        ++i;
      } while (i + (g - 1 - j) < q && acc * g < words * (j + 1));
    }
    gb[g] = q;
    goff[g] = words;
    RO_CHECK(i <= q && acc <= words);
    // Trailing sequences the walk did not reach belong to the last group.
    for (size_t k = i; k < q; ++k) acc += seqs[k].n;
    RO_CHECK(acc == words);
  }
  auto scratch = cx.template local<i64>(words);
  auto st = scratch.slice();
  fork_range_sized(
      cx, 0, g, [&](size_t j) { return 2 * (goff[j + 1] - goff[j]); },
      [&](size_t j) {
        std::vector<Slice<i64>> group(seqs.begin() + gb[j],
                                      seqs.begin() + gb[j + 1]);
        spms_merge(cx, group, st.sub(goff[j], goff[j + 1] - goff[j]), base,
                   grain, depth + 1, tn);
      });
  std::vector<Slice<i64>> merged(g);
  for (size_t j = 0; j < g; ++j) {
    merged[j] = st.sub(goff[j], goff[j + 1] - goff[j]);
  }
  spms_merge(cx, merged, out, base, grain, depth + 1, tn);
}

/// Multiway merge of the sorted sequences `seqs_in` (total size out.n).
template <class Ctx>
void spms_merge(Ctx& cx, const std::vector<Slice<i64>>& seqs_in,
                Slice<i64> out, size_t base, size_t grain, uint32_t depth,
                const SpmsTuning& tn) {
  std::vector<Slice<i64>> seqs;
  seqs.reserve(seqs_in.size());
  size_t total = 0;
  for (const Slice<i64>& s : seqs_in) {
    if (!s.empty()) {
      seqs.push_back(s);
      total += s.n;
    }
  }
  const size_t m = out.n;
  RO_CHECK(total == m);
  if (m == 0) return;
  const size_t r = seqs.size();
  if (r == 1) {
    spms_copy(cx, seqs[0], out, grain, tn);
    return;
  }
  // Base case.  Many tiny sequences stay parallel via merge_grouped
  // rather than bailing to the sequential base below 2r: that keeps
  // Θ(r)-span sequential sample sorts off every machinery level.
  if (m <= std::max(base, tn.merge_base) || depth >= kSpmsDepthCap) {
    spms_base(cx, seqs, out, tn);
    return;
  }
  if (r == 2) {
    merge2(cx, seqs[0], seqs[1], out, 8, grain, tn);
    return;
  }
  const size_t s = spms_stride(m, tn);
  size_t ns = 0;
  for (size_t i = 0; i < r; ++i) {
    ns += spms_sample_count(seqs[i].n, s, spms_sample_off(i, r, s));
  }
  // Below the machinery floor the binary tree wins on constants and its
  // depth is bounded by the fixed cutoff — O(1) span per occurrence.
  if (m < tn.machinery_min) {
    merge_many(cx, seqs, 0, seqs.size(), out, base, grain, tn);
    return;
  }
  // The machinery wants r ≤ ⌈√m⌉/4 sequences: beyond that the per-
  // sequence table overhead binds (stride_per_seq·r outgrows the natural
  // stride) and a level would yield almost no pivots.  One word-balanced
  // grouping round collapses r to the cap and re-enters — O(1) rounds
  // where a binary merge tree would pay O(log r) merge2 levels.
  if (ns < 2 || tn.stride_per_seq * r > s || r * ns > m) {
    merge_grouped(cx, seqs, out, base, grain, depth, tn);
    return;
  }

  // ---- Phase 2a: deterministic sample, every s-th element of each run ----
  std::vector<size_t> scnt(r);
  std::vector<size_t> soff(r + 1, 0);
  for (size_t i = 0; i < r; ++i) {
    scnt[i] = spms_sample_count(seqs[i].n, s, spms_sample_off(i, r, s));
    soff[i + 1] = soff[i] + scnt[i];
  }
  RO_CHECK(soff[r] == ns && ns >= 2);
  auto sample = cx.template local<i64>(ns);
  {
    auto sm = sample.slice();
    fork_range_sized(
        cx, 0, r, [&](size_t i) { return 2 * scnt[i]; },
        [&](size_t i) {
          const Slice<i64> sq = seqs[i];
          auto dst = sm.sub(soff[i], scnt[i]);
          const size_t off = spms_sample_off(i, r, s);
          bp_range(cx, 0, scnt[i], grain, 2, [&](size_t lo, size_t hi) {
            for (size_t j = lo; j < hi; ++j) {
              cx.set(dst, j, cx.get(sq, off + j * s));
            }
          });
        });
  }

  // ---- Phase 2b: sort the sample by recursive multiway merge (it is r
  // sorted subsequences of the runs), then dedup into pivot values ----
  auto sample_sorted = cx.template local<i64>(ns);
  {
    std::vector<Slice<i64>> sseqs;
    sseqs.reserve(r);
    for (size_t i = 0; i < r; ++i) {
      if (scnt[i]) sseqs.push_back(sample.slice(soff[i], scnt[i]));
    }
    if (ns <= tn.sample_sort_seq) {
      // Small sample: the sequential base case beats any parallel
      // structure's fork overhead, and the fixed cap keeps this O(1) span.
      spms_base(cx, sseqs, sample_sorted.slice(), tn);
    } else {
      spms_merge(cx, sseqs, sample_sorted.slice(), base, grain, depth + 1,
                 tn);
    }
  }
  auto keep = cx.template local<i64>(ns);
  auto pos = cx.template local<i64>(ns);
  {
    auto ss = sample_sorted.slice();
    auto ks = keep.slice();
    bp_range(cx, 0, ns, grain, 3, [&](size_t lo, size_t hi) {
      for (size_t j = lo; j < hi; ++j) {
        const bool first = j == 0 || cx.get(ss, j - 1) != cx.get(ss, j);
        cx.set(ks, j, first ? i64{1} : i64{0});
      }
    });
  }
  prefix_sums_exclusive(cx, keep.slice(), pos.slice(), grain);
  const size_t t = static_cast<size_t>(pos.raw()[ns - 1] + keep.raw()[ns - 1]);
  auto pivots = cx.template local<i64>(t);
  scatter_pack(cx, sample_sorted.slice(), keep.slice(), pos.slice(),
               pivots.slice(), grain);

  // ---- Phase 2c: locate every pivot in every run — lower AND upper
  // bounds from one batched amortized multisearch per run ----
  auto lo_tab = cx.template local<i64>(r * t);
  auto hi_tab = cx.template local<i64>(r * t);
  {
    auto lt = lo_tab.slice();
    auto ht = hi_tab.slice();
    auto pv = pivots.slice();
    fork_range_sized(
        cx, 0, r, [&](size_t i) { return 2 * (seqs[i].n + t); },
        [&](size_t i) {
          multisearch(cx, seqs[i], pv, lt.sub(i * t, t), ht.sub(i * t, t), 0,
                      t, 0, seqs[i].n, tn);
        });
  }

  // ---- Phase 3: interleaved buckets G_0 E_0 G_1 E_1 ... E_{t-1} G_t.
  // E_j holds the elements equal to pivot j (filled directly); G_j holds
  // the values strictly between pivots j-1 and j (merged recursively; each
  // run contributes < s of them, the sampling guarantee).  Per-segment
  // lengths prefix-sum to both bucket boundaries and segment offsets. ----
  const size_t nb = 2 * t + 1;
  auto seg_len = cx.template local<i64>(nb * r);
  {
    auto sl = seg_len.slice();
    auto lt = lo_tab.slice();
    auto ht = hi_tab.slice();
    // seg_len is bucket-major, the lo/hi tables seq-major — a logical
    // transpose, so tile the pass instead of striding across the tables.
    tile2d(cx, 0, nb, 0, r, 4, [&](size_t b0, size_t b1, size_t i0,
                                   size_t i1) {
      for (size_t i = i0; i < i1; ++i) {
        for (size_t b = b0; b < b1; ++b) {
          i64 len;
          if (b % 2 == 1) {  // E bucket for pivot j = (b-1)/2
            const size_t j = (b - 1) / 2;
            len = cx.get(ht, i * t + j) - cx.get(lt, i * t + j);
          } else {  // G bucket j = b/2: (hi of pivot j-1, lo of pivot j)
            const size_t j = b / 2;
            const i64 from = j == 0 ? 0 : cx.get(ht, i * t + (j - 1));
            const i64 to = j == t ? static_cast<i64>(seqs[i].n)
                                  : cx.get(lt, i * t + j);
            len = to - from;
          }
          cx.set(sl, b * r + i, len);
        }
      }
    });
  }
  auto seg_off = cx.template local<i64>(nb * r);
  // Coarser leaves here only shrink the prefix tree (the values are O(1)
  // bookkeeping words, not elements).
  prefix_sums_exclusive(cx, seg_len.slice(), seg_off.slice(),
                        std::max<size_t>(grain, 8));

  // Bucket boundaries for recursion control come from the host-visible
  // prefix sums (the same idiom as list ranking's survivor counts).
  const i64* off_raw = seg_off.raw();
  const i64* len_raw = seg_len.raw();
  auto bucket_begin = [&](size_t b) {
    return static_cast<size_t>(off_raw[b * r]);
  };
  auto bucket_end = [&](size_t b) {
    return b + 1 < nb ? static_cast<size_t>(off_raw[(b + 1) * r]) : m;
  };
  fork_range_sized(
      cx, 0, nb,
      [&](size_t b) { return 2 * (bucket_end(b) - bucket_begin(b)) + 1; },
      [&](size_t b) {
        const size_t begin = bucket_begin(b);
        const size_t size = bucket_end(b) - begin;
        if (size == 0) return;
        Slice<i64> dst = out.sub(begin, size);
        if (b % 2 == 1) {  // equal-value bucket: fill with the pivot
          const size_t j = (b - 1) / 2;
          const i64 v = cx.get(pivots.slice(), j);
          if constexpr (kern::fast_path_v<Ctx>) {
            if (tn.kernels) {
              bp_range(cx, 0, size, std::max(grain, tn.merge2_min), 1,
                       [&](size_t lo, size_t hi) {
                         kern::fill(dst.ptr + lo, hi - lo, v);
                       });
              return;
            }
          }
          bp_range(cx, 0, size, grain, 1, [&](size_t lo, size_t hi) {
            for (size_t q = lo; q < hi; ++q) cx.set(dst, q, v);
          });
          return;
        }
        const size_t j = b / 2;  // strict-gap bucket: recursive merge
        std::vector<Slice<i64>> srcs;
        std::vector<size_t> offs;
        srcs.reserve(r);
        offs.reserve(r + 1);
        offs.push_back(0);
        for (size_t i = 0; i < r; ++i) {
          const size_t from =
              j == 0 ? 0
                     : static_cast<size_t>(hi_tab.raw()[i * t + (j - 1)]);
          const size_t len = static_cast<size_t>(len_raw[b * r + i]);
          if (len) {
            srcs.push_back(seqs[i].sub(from, len));
            offs.push_back(offs.back() + len);
          }
        }
        // Structural guarantee: a strict gap excludes at least the pivot
        // occurrences themselves, so the subproblem shrank.
        RO_CHECK_MSG(size < m, "SPMS bucket failed to shrink");
        // Stage the bucket's segments contiguously (this materializes the
        // partition): the recursive merge then reads one compact range
        // instead of r scattered ones, which is what keeps a bucket's
        // working set ~its own size on any cache.  The interleaved
        // recursion then drops straight into the next SPMS level — the
        // adaptive stride keeps it on the sampling machinery.
        auto staged = cx.template local<i64>(size);
        auto st = staged.slice();
        fork_range_sized(
            cx, 0, srcs.size(),
            [&](size_t i) { return 2 * srcs[i].n; },
            [&](size_t i) {
              spms_copy(cx, srcs[i], st.sub(offs[i], srcs[i].n), grain, tn);
            });
        std::vector<Slice<i64>> segs(srcs.size());
        for (size_t i = 0; i < srcs.size(); ++i) {
          segs[i] = st.sub(offs[i], srcs[i].n);
        }
        spms_merge(cx, segs, dst, base, grain, depth + 1, tn);
      });
}

template <class Ctx>
void spms_sort_rec(Ctx& cx, Slice<i64> a, Slice<i64> out, size_t base,
                   size_t grain, uint32_t depth, const SpmsTuning& tn) {
  RO_CHECK(a.n == out.n);
  const size_t n = a.n;
  if (n <= std::max(base, tn.merge_base)) {
    spms_base(cx, {a}, out, tn);
    return;
  }
  // Phase 1: k = ⌈√n⌉/4 contiguous runs of size ~4√n, sorted recursively
  // in parallel into fresh scratch (written once — limited access).  The
  // divisor keeps k at the merge's sequence cap so the top merge needs no
  // grouping round and its boundary tables stay ≤ ~m/16 entries.
  const size_t k = spms_seq_cap(n, tn);
  const size_t run = (n + k - 1) / k;
  const size_t nruns = (n + run - 1) / run;
  auto runs = cx.template local<i64>(n);
  {
    auto rs = runs.slice();
    fork_range(cx, 0, nruns, 2 * run, [&](size_t i) {
      const size_t lo = i * run;
      const size_t len = std::min(run, n - lo);
      spms_sort_rec(cx, a.sub(lo, len), rs.sub(lo, len), base, grain,
                    depth + 1, tn);
    });
  }
  std::vector<Slice<i64>> seqs(nruns);
  for (size_t i = 0; i < nruns; ++i) {
    const size_t lo = i * run;
    seqs[i] = runs.slice(lo, std::min(run, n - lo));
  }
  spms_merge(cx, seqs, out, base, grain, depth, tn);
}

}  // namespace detail

/// Sorts `a` into `out` with SPMS (non-destructive; |a| = |out|) under
/// the tuning `tn` (RO_CHECKs spms_tuning_error).
template <class Ctx>
void spms(Ctx& cx, Slice<i64> a, Slice<i64> out, size_t base = 32,
          size_t grain = 1, const SpmsTuning& tn = {}) {
  const char* bad = spms_tuning_error(tn);
  RO_CHECK_MSG(bad == nullptr, bad);
  detail::spms_sort_rec(cx, a, out, base, grain, 0, tn);
}

/// Runtime dispatch for the sort-consuming algorithms (route, LR, CC,
/// Euler): one knob selects the primitive, everything downstream is
/// unchanged.
template <class Ctx>
void sort_by(Ctx& cx, SortKind kind, Slice<i64> a, Slice<i64> out,
             size_t base = 8, size_t grain = 1, const SpmsTuning& tn = {}) {
  if (kind == SortKind::kSpms) {
    spms(cx, a, out, std::max<size_t>(base, 32), grain, tn);
  } else {
    msort(cx, a, out, base, grain);
  }
}

}  // namespace ro::alg
