// CC — connected components (§3.2, §4.6).
//
// The paper uses the CC algorithm of [11], whose dominant cost is ~log n
// stages of list-ranking-flavoured work.  We implement the same substrate
// shape (see the substitution notes in docs/claims.md): O(log n) rounds of
//   1. min-label hooking       (sort endpoints, group minima)
//   2. star contraction        (pointer-jump parents to roots via gathers)
//   3. edge relabel + cleanup  (gathers, self-edge pack, sort-dedupe)
// each round built entirely from sorts, scans and sort-routed gathers, so
// the measured cost is a log n multiple of the LR-style primitives — the
// relationship Table 1 states.
//
// Input: m undirected edges (eu[i], ev[i]) over vertices 0..n-1 (n < 2^31).
// Output: label[v] = smallest vertex id in v's component.
#pragma once

#include "ro/alg/route.h"
#include "ro/alg/scan.h"
#include "ro/alg/sort.h"
#include "ro/core/context.h"
#include "ro/mem/varray.h"
#include "ro/util/check.h"

namespace ro::alg {

struct CcOptions {
  size_t grain = 1;
  uint32_t max_rounds = 0;  // 0 = auto: 4·log2(n) + 8 (safety cap)
  SortKind sort = SortKind::kMsort;  // sorting primitive for all passes
};

template <class Ctx>
void connected_components(Ctx& cx, size_t n, Slice<i64> eu, Slice<i64> ev,
                          Slice<i64> label_out, CcOptions opt = {}) {
  RO_CHECK(eu.n == ev.n && label_out.n == n && n >= 1);
  const size_t grain = opt.grain;
  const uint32_t max_rounds =
      opt.max_rounds ? opt.max_rounds : 4 * log2_ceil(n | 1) + 8;

  // comp[v]: current component label of each original vertex.
  auto comp = cx.template alloc<i64>(n, "cc.comp");
  {
    auto cs = comp.slice();
    bp_range(cx, 0, n, grain, 1, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) cx.set(cs, i, static_cast<i64>(i));
    });
  }

  // Current edge list (between component labels), shrinking over rounds.
  auto cur_u = cx.template alloc<i64>(std::max<size_t>(1, eu.n), "cc.u");
  auto cur_v = cx.template alloc<i64>(std::max<size_t>(1, ev.n), "cc.v");
  size_t m = eu.n;
  {
    auto us = cur_u.slice();
    auto vs = cur_v.slice();
    bp_range(cx, 0, m, grain, 4, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        cx.set(us, i, cx.get(eu, i));
        cx.set(vs, i, cx.get(ev, i));
      }
    });
  }

  for (uint32_t round = 0; round < max_rounds && m > 0; ++round) {
    // --- 1. hooking: parent[x] = min(x, min neighbor label) ---
    auto parent = cx.template alloc<i64>(n, "cc.parent");
    {
      auto ps = parent.slice();
      bp_range(cx, 0, n, grain, 1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) cx.set(ps, i, static_cast<i64>(i));
      });
      // Both directions: records (endpoint, other); sorted, the first
      // element of each group is the minimum neighbor.
      auto recs = cx.template alloc<i64>(2 * m, "cc.recs");
      auto sorted = cx.template alloc<i64>(2 * m, "cc.sorted");
      {
        auto rs = recs.slice();
        auto us = cur_u.slice();
        auto vs = cur_v.slice();
        bp_range(cx, 0, m, grain, 4, [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            const i64 u = cx.get(us, i);
            const i64 v = cx.get(vs, i);
            cx.set(rs, 2 * i, detail::pack2(u, v));
            cx.set(rs, 2 * i + 1, detail::pack2(v, u));
          }
        });
      }
      sort_by(cx, opt.sort, recs.slice(), sorted.slice(), 8, grain);
      auto srt = sorted.slice();
      bp_range(cx, 0, 2 * m, grain, 3, [&](size_t lo, size_t hi) {
        for (size_t j = lo; j < hi; ++j) {
          const i64 rec = cx.get(srt, j);
          const i64 x = detail::hi32(rec);
          const bool start =
              j == 0 || detail::hi32(cx.get(srt, j - 1)) != x;
          if (start) {
            const i64 mn = detail::lo32(rec);
            if (mn < x) cx.set(ps, static_cast<size_t>(x), mn);
          }
        }
      });
    }

    // --- 2. contract: pointer-jump parents to roots ---
    {
      const uint32_t jumps = log2_ceil(n | 1) + 1;
      for (uint32_t t = 0; t < jumps; ++t) {
        auto next = cx.template alloc<i64>(n, "cc.pnext");
        gather(cx, StridedView{parent.slice(), 1},
               StridedView{parent.slice(), 1},
               StridedView{next.slice(), 1}, n, grain, opt.sort);
        parent = std::move(next);
      }
    }

    // --- 3. update vertex labels and relabel edges ---
    {
      auto next_comp = cx.template alloc<i64>(n, "cc.comp2");
      gather(cx, StridedView{comp.slice(), 1},
             StridedView{parent.slice(), 1},
             StridedView{next_comp.slice(), 1}, n, grain, opt.sort);
      comp = std::move(next_comp);
    }
    auto nu = cx.template alloc<i64>(std::max<size_t>(1, m), "cc.nu");
    auto nv = cx.template alloc<i64>(std::max<size_t>(1, m), "cc.nv");
    gather(cx, StridedView{cur_u.slice(), 1},
           StridedView{parent.slice(), 1}, StridedView{nu.slice(), 1}, m,
           grain, opt.sort);
    gather(cx, StridedView{cur_v.slice(), 1},
           StridedView{parent.slice(), 1}, StridedView{nv.slice(), 1}, m,
           grain, opt.sort);

    // Drop self-edges and duplicates: sort packed (min,max) pairs, keep
    // group firsts, pack survivors.
    auto packed = cx.template alloc<i64>(std::max<size_t>(1, m), "cc.pk");
    {
      auto pk = packed.slice();
      auto us = nu.slice();
      auto vs = nv.slice();
      bp_range(cx, 0, m, grain, 3, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          const i64 a = cx.get(us, i);
          const i64 b = cx.get(vs, i);
          cx.set(pk, i, detail::pack2(std::min(a, b), std::max(a, b)));
        }
      });
    }
    auto psorted = cx.template alloc<i64>(std::max<size_t>(1, m), "cc.pks");
    sort_by(cx, opt.sort, packed.slice(), psorted.slice(), 8, grain);
    auto keep = cx.template alloc<i64>(std::max<size_t>(1, m), "cc.keep");
    {
      auto srt = psorted.slice();
      auto ks = keep.slice();
      bp_range(cx, 0, m, grain, 3, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          const i64 rec = cx.get(srt, i);
          const bool self = detail::hi32(rec) == detail::lo32(rec);
          const bool dup = i > 0 && cx.get(srt, i - 1) == rec;
          cx.set(ks, i, (self || dup) ? i64{0} : i64{1});
        }
      });
    }
    auto pos = cx.template alloc<i64>(std::max<size_t>(1, m), "cc.pos");
    prefix_sums_exclusive(cx, keep.slice(), pos.slice(), grain);
    const size_t m_next = static_cast<size_t>(
        m ? pos.raw()[m - 1] + keep.raw()[m - 1] : 0);
    auto next_u =
        cx.template alloc<i64>(std::max<size_t>(1, m_next), "cc.u2");
    auto next_v =
        cx.template alloc<i64>(std::max<size_t>(1, m_next), "cc.v2");
    {
      auto srt = psorted.slice();
      auto ks = keep.slice();
      auto ps = pos.slice();
      auto us = next_u.slice();
      auto vs = next_v.slice();
      bp_range(cx, 0, m, grain, 5, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          if (cx.get(ks, i) != 0) {
            const i64 rec = cx.get(srt, i);
            const size_t at = static_cast<size_t>(cx.get(ps, i));
            cx.set(us, at, detail::hi32(rec));
            cx.set(vs, at, detail::lo32(rec));
          }
        }
      });
    }
    cur_u = std::move(next_u);
    cur_v = std::move(next_v);
    m = m_next;
  }
  RO_CHECK_MSG(m == 0, "CC did not converge within the round cap");

  // Emit labels.
  {
    auto cs = comp.slice();
    bp_range(cx, 0, n, grain, 2, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        cx.set(label_out, i, cx.get(cs, i));
      }
    });
  }
}

}  // namespace ro::alg
