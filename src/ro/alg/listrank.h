// LR — list ranking (§3.2, §4.6).  Type-3 HBP: O(log log n) phases of
// independent-set contraction, each built from O(1) sort-routed passes,
// switching to pointer jumping once the list length falls below n / log n.
//
// Input: succ[i] = successor of node i; the tail satisfies succ[t] = t.
// Output: rank[i] = weighted distance from i to the tail (tail rank 0,
// initial edge weights 1), i.e. the number of hops to the end of the list.
//
// Gapping (§3.2): the level-ℓ list of m nodes is stored using every x-th
// location with x = ⌊√(n/m)⌋ rounded down to a power of two, so once
// m ≤ n/B² no two list elements share a block and contraction incurs no
// further block misses.  Disable via options.gapping to ablate (E12).
//
// The independent set differs from the paper's; see the substitution notes
// in docs/claims.md.
#pragma once

#include <vector>

#include "ro/alg/route.h"
#include "ro/alg/scan.h"
#include "ro/core/context.h"
#include "ro/mem/varray.h"
#include "ro/util/check.h"
#include "ro/util/rng.h"

namespace ro::alg {

struct ListRankOptions {
  bool gapping = true;
  size_t grain = 1;
  uint64_t seed = 0x11572;
  size_t jump_threshold = 0;  // 0 = auto: max(64, n / log2 n)
  SortKind sort = SortKind::kMsort;  // routing sort for the gathers
};

namespace detail {

inline uint64_t lr_stride(bool gapping, size_t n0, size_t m) {
  if (!gapping || m == 0 || m >= n0) return 1;
  const uint64_t ratio = n0 / m;
  return uint64_t{1} << (log2_floor(ratio) / 2);
}

/// One contraction level's bookkeeping for the expansion sweep.
struct LrLevel {
  VArray<i64> succ_pre;  // successors before splicing (strided)
  VArray<i64> w_pre;     // weights before splicing (strided)
  VArray<i64> selected;  // spliced-out flags (strided)
  VArray<i64> newid;     // survivor renumbering (dense)
  size_t m = 0;
  uint64_t stride = 1;
};

}  // namespace detail

/// Weighted variant: rank[i] = Σ of w along the path from i to the tail
/// (tail rank 0; w may be negative, |w| and |rank| < 2³¹).
/// Pass an empty w_in for unit weights.
template <class Ctx>
void list_rank_weighted(Ctx& cx, Slice<i64> succ_in, Slice<i64> w_in,
                        Slice<i64> rank_out, ListRankOptions opt = {}) {
  const size_t n0 = succ_in.n;
  RO_CHECK(rank_out.n == n0 && n0 >= 1);
  RO_CHECK(w_in.n == 0 || w_in.n == n0);
  const size_t grain = opt.grain;
  const size_t threshold =
      opt.jump_threshold ? opt.jump_threshold
                         : std::max<size_t>(64, n0 / std::max<uint32_t>(
                                                     1, log2_floor(n0)));

  // Level 0: copy the input into our own (stride-1) arrays.
  auto succ0 = cx.template alloc<i64>(n0, "lr.succ0");
  auto w0 = cx.template alloc<i64>(n0, "lr.w0");
  {
    auto s0 = succ0.slice();
    auto ws = w0.slice();
    bp_range(cx, 0, n0, grain, 2, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        cx.set(s0, i, cx.get(succ_in, i));
        cx.set(ws, i, w_in.n ? cx.get(w_in, i) : i64{1});
      }
    });
  }

  std::vector<detail::LrLevel> levels;
  VArray<i64> succ_cur = std::move(succ0);
  VArray<i64> w_cur = std::move(w0);
  size_t m = n0;
  uint64_t stride = 1;

  // ---- contraction ----
  while (m > threshold) {
    StridedView succ{succ_cur.slice(), stride};
    StridedView w{w_cur.slice(), stride};

    auto selected = cx.template alloc<i64>(m * stride, "lr.sel");
    StridedView sel{selected.slice(), stride};
    // coin[i]: deterministic hash coin; select heads whose successor is
    // tails (and is not the tail itself / a self loop).
    {
      auto coin = cx.template alloc<i64>(m * stride, "lr.coin");
      StridedView cv{coin.slice(), stride};
      const uint64_t seed = splitmix64(opt.seed ^ (levels.size() << 32));
      bp_range(cx, 0, m, grain, 2, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          cv.set(cx, i, static_cast<i64>(splitmix64(seed ^ i) & 1));
        }
      });
      auto coin_s = cx.template alloc<i64>(m * stride, "lr.coin_s");
      StridedView cs{coin_s.slice(), stride};
      gather(cx, succ, cv, cs, m, grain, opt.sort);
      bp_range(cx, 0, m, grain, 4, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          const bool is_tail =
              succ.get(cx, i) == static_cast<i64>(i);
          // The selected node is the *successor* of the splice: head=1 at
          // pred, 0 at node => select node i when coin[i]=0, coin[pred]=1;
          // equivalently mark via pred's view below.  We select i directly:
          // i is spliced out iff coin[i]=1 and coin[succ[i]]=0.
          const bool pick = !is_tail && cv.get(cx, i) == 1 &&
                            cs.get(cx, i) == 0;
          sel.set(cx, i, pick ? i64{1} : i64{0});
        }
      });
    }

    // Splice: survivors whose successor is selected skip over it.
    auto sel_s = cx.template alloc<i64>(m * stride, "lr.sel_s");
    auto succ_s = cx.template alloc<i64>(m * stride, "lr.succ_s");
    auto w_s = cx.template alloc<i64>(m * stride, "lr.w_s");
    StridedView ss{sel_s.slice(), stride};
    StridedView s2{succ_s.slice(), stride};
    StridedView ws{w_s.slice(), stride};
    gather(cx, succ, sel, ss, m, grain, opt.sort);
    gather(cx, succ, succ, s2, m, grain, opt.sort);
    gather(cx, succ, w, ws, m, grain, opt.sort);

    auto succ_spl = cx.template alloc<i64>(m * stride, "lr.succ_spl");
    auto w_spl = cx.template alloc<i64>(m * stride, "lr.w_spl");
    StridedView sp{succ_spl.slice(), stride};
    StridedView wp{w_spl.slice(), stride};
    auto keep = cx.template alloc<i64>(m, "lr.keep");
    bp_range(cx, 0, m, grain, 8, [&](size_t lo, size_t hi) {
      auto ks = keep.slice();
      for (size_t i = lo; i < hi; ++i) {
        const bool skip = ss.get(cx, i) != 0;
        sp.set(cx, i, skip ? s2.get(cx, i) : succ.get(cx, i));
        wp.set(cx, i, skip ? w.get(cx, i) + ws.get(cx, i) : w.get(cx, i));
        cx.set(ks, i, sel.get(cx, i) ? i64{0} : i64{1});
      }
    });

    // Renumber survivors (exclusive prefix sums of keep).
    auto pos = cx.template alloc<i64>(m, "lr.pos");
    prefix_sums_exclusive(cx, keep.slice(), pos.slice(), grain);
    const size_t m_next = static_cast<size_t>(
        pos.raw()[m - 1] + keep.raw()[m - 1]);

    // New-id of each node's spliced successor.
    auto pos_s = cx.template alloc<i64>(m, "lr.pos_s");
    gather(cx, sp, StridedView{pos.slice(), 1},
           StridedView{pos_s.slice(), 1}, m, grain, opt.sort);

    // Build the next level (gapped layout).
    const uint64_t stride_next = detail::lr_stride(opt.gapping, n0, m_next);
    auto succ_next =
        cx.template alloc<i64>(std::max<size_t>(1, m_next * stride_next),
                               "lr.succ_next");
    auto w_next = cx.template alloc<i64>(
        std::max<size_t>(1, m_next * stride_next), "lr.w_next");
    {
      StridedView sn{succ_next.slice(), stride_next};
      StridedView wn{w_next.slice(), stride_next};
      auto ps = pos.slice();
      auto ps2 = pos_s.slice();
      auto ks = keep.slice();
      bp_range(cx, 0, m, grain, 6, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          if (cx.get(ks, i) != 0) {
            const size_t ni = static_cast<size_t>(cx.get(ps, i));
            sn.set(cx, ni, cx.get(ps2, i));
            wn.set(cx, ni, wp.get(cx, i));
          }
        }
      });
    }

    levels.push_back(detail::LrLevel{std::move(succ_cur), std::move(w_cur),
                                     std::move(selected), std::move(pos), m,
                                     stride});
    succ_cur = std::move(succ_next);
    w_cur = std::move(w_next);
    m = m_next;
    stride = stride_next;
    RO_CHECK_MSG(m >= 1, "list ranking lost the tail");
  }

  // ---- base: pointer jumping on the contracted list ----
  auto rank_cur = cx.template alloc<i64>(std::max<size_t>(1, m * stride),
                                         "lr.rank_base");
  {
    StridedView succ{succ_cur.slice(), stride};
    StridedView w{w_cur.slice(), stride};
    StridedView r{rank_cur.slice(), stride};
    bp_range(cx, 0, m, grain, 3, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        const bool is_tail = succ.get(cx, i) == static_cast<i64>(i);
        r.set(cx, i, is_tail ? 0 : w.get(cx, i));
      }
    });
    VArray<i64> s_jump = std::move(succ_cur);
    VArray<i64> r_jump = std::move(rank_cur);
    const uint32_t rounds = m > 1 ? log2_ceil(m) : 0;
    for (uint32_t rd = 0; rd < rounds; ++rd) {
      auto r_s = cx.template alloc<i64>(std::max<size_t>(1, m * stride),
                                        "lr.jump_r");
      auto s_s = cx.template alloc<i64>(std::max<size_t>(1, m * stride),
                                        "lr.jump_s");
      StridedView sv{s_jump.slice(), stride};
      StridedView rv{r_jump.slice(), stride};
      StridedView rsv{r_s.slice(), stride};
      StridedView ssv{s_s.slice(), stride};
      gather(cx, sv, rv, rsv, m, grain, opt.sort);
      gather(cx, sv, sv, ssv, m, grain, opt.sort);
      auto r_new = cx.template alloc<i64>(std::max<size_t>(1, m * stride),
                                          "lr.jump_r2");
      auto s_new = cx.template alloc<i64>(std::max<size_t>(1, m * stride),
                                          "lr.jump_s2");
      StridedView rnv{r_new.slice(), stride};
      StridedView snv{s_new.slice(), stride};
      bp_range(cx, 0, m, grain, 6, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          rnv.set(cx, i, rv.get(cx, i) + rsv.get(cx, i));
          snv.set(cx, i, ssv.get(cx, i));
        }
      });
      r_jump = std::move(r_new);
      s_jump = std::move(s_new);
    }
    rank_cur = std::move(r_jump);
    succ_cur = std::move(s_jump);
  }

  // ---- expansion ----
  for (size_t li = levels.size(); li-- > 0;) {
    detail::LrLevel& lv = levels[li];
    const size_t lm = lv.m;
    const uint64_t lstride = lv.stride;
    auto rank_lvl = cx.template alloc<i64>(
        std::max<size_t>(1, lm * lstride), "lr.rank_lvl");
    StridedView rl{rank_lvl.slice(), lstride};
    StridedView rn{rank_cur.slice(), stride};
    StridedView sel{lv.selected.slice(), lstride};
    StridedView sp{lv.succ_pre.slice(), lstride};
    StridedView wp{lv.w_pre.slice(), lstride};
    {
      auto ids = lv.newid.slice();
      // Survivors: rank = rank_next[newid[i]] (monotone reads).
      bp_range(cx, 0, lm, grain, 4, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          if (sel.get(cx, i) == 0) {
            rl.set(cx, i,
                   rn.get(cx, static_cast<size_t>(cx.get(ids, i))));
          }
        }
      });
    }
    // Spliced-out nodes: rank = w_pre + rank[succ_pre] (succ_pre survives).
    auto r_s = cx.template alloc<i64>(std::max<size_t>(1, lm * lstride),
                                      "lr.exp_rs");
    StridedView rsv{r_s.slice(), lstride};
    gather(cx, sp, rl, rsv, lm, grain, opt.sort);
    bp_range(cx, 0, lm, grain, 4, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        if (sel.get(cx, i) != 0) {
          rl.set(cx, i, wp.get(cx, i) + rsv.get(cx, i));
        }
      }
    });
    rank_cur = std::move(rank_lvl);
    stride = lstride;
    m = lm;
  }

  // Copy level-0 ranks to the output.
  {
    auto rs = rank_cur.slice();
    bp_range(cx, 0, n0, grain, 2, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        cx.set(rank_out, i, cx.get(rs, i));
      }
    });
  }
}

/// Unit-weight list ranking: rank[i] = hops from i to the tail.
template <class Ctx>
void list_rank(Ctx& cx, Slice<i64> succ_in, Slice<i64> rank_out,
               ListRankOptions opt = {}) {
  list_rank_weighted(cx, succ_in, Slice<i64>{}, rank_out, opt);
}

}  // namespace ro::alg
