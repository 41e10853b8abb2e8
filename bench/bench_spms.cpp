// E18 — SPMS vs HBP msort, head to head on the simulated machine and on
// real threads, plus the two hot-path gates the sort carries for CI:
//
//  * span trend: record SPMS over doubling n.  The recorded span is
//    deterministic — same trace on every build flag — so the gate is
//    exact: span / (lg n · lg lg n) stays in a narrow band and the
//    absolute coefficient is bounded.  Together these pin the
//    O(log n · log log n) bound (a binary merge tree's extra log factor
//    fails the band); tests/test_spms.cpp pins the exact spans.
//  * kernel head-to-head: the branchy scalar merge (what the recording
//    backends execute) vs kern::merge (the cmov kernel the par-*
//    backends select), both as a raw merge microbench and as the full
//    seq-backend sort with SpmsTuning::kernels off vs on.  `--kernel-gate`
//    RO_CHECKs the sort A/B >= 1.15x (the acceptance bar; measured ~2.2x)
//    and the microbench >= 1.05x (a not-slower floor) — CI passes it on
//    the optimized legs only, since a -O0 or sanitized build is not a
//    statement about the kernels.
//
// For each sort we record one trace at --n (default 2^16, the acceptance
// size) and replay it on sim-PWS and sim-RWS; Q(n,M,B) is the p=1
// sequential cache complexity from the baseline replay, the column the
// paper's Table 1 reports.  The parallel backends run the same program on
// real threads for wall-clock.  Expected shape: Q(spms) <= Q(msort) for
// n >= 2^16 (SPMS's O((n/B)·log_M n) vs msort's O((n/B)·log₂(n/M))),
// W within ~1.4x, and span growing visibly slower with n.
//
//   $ ./bench_spms [--n=65536] [--p=8] [--M=4096] [--B=32] [--threads=0]
//                  [--kernel-gate] [--spms-*=...] [--csv]
#include <cmath>
#include <cstdio>

#include "common.h"

using namespace ro;
using namespace ro::bench;

namespace {

// Records one SPMS sort of the bench input at `n` under `t` and returns
// the critical-path span.  Deterministic: same n + same tuning = same
// value on every build and host.
uint64_t spms_span(size_t n, const alg::SpmsTuning& t) {
  return engine().record(prog_sort(n, 1, alg::SortKind::kSpms, t)).stats.span;
}

double span_norm(size_t n, uint64_t span) {
  const double lg = std::log2(static_cast<double>(n));
  return static_cast<double>(span) / (lg * std::log2(lg));
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 16));
  SimConfig c = cfg(static_cast<uint32_t>(cli.get_int("p", 8)),
                    static_cast<uint64_t>(cli.get_int("M", 1 << 12)),
                    static_cast<uint32_t>(cli.get_int("B", 32)));
  // --spms-* flags steer every SPMS program below.
  const alg::SpmsTuning tuning = spms_from_cli(cli);

  Table t("E18: SPMS vs msort (n=" + std::to_string(n) + ")");
  t.header({"sort", "backend", "W", "T_inf", "Q(n,M,B)", "misses", "excess",
            "makespan", "speedup", "wall-ms"});

  uint64_t q[2] = {0, 0};
  for (SortKind kind : {SortKind::kMsort, SortKind::kSpms}) {
    const char* name = alg::sort_kind_name(kind);
    const Recording rec = engine().record(prog_sort(n, 1, kind, tuning));
    for (Backend b : {Backend::kSimPws, Backend::kSimRws}) {
      const RunReport r = engine().replay(rec, b, c);
      if (b == Backend::kSimPws) q[kind == SortKind::kSpms] = r.q_seq;
      t.row({name, backend_name(b), Table::num(rec.stats.work),
             Table::num(rec.stats.span), Table::num(r.q_seq),
             Table::num(r.sim.cache_misses()), Table::num(r.cache_excess),
             Table::num(r.sim.makespan), Table::num(r.sim_speedup()),
             Table::num(r.wall_ms)});
    }
    for (Backend b : {Backend::kParRandom, Backend::kParPriority}) {
      RunOptions opt;
      opt.backend = b;
      opt.threads = static_cast<unsigned>(cli.get_int("threads", 0));
      opt.label = name;
      const RunReport r = engine().run(prog_sort(n, 1, kind, tuning), opt);
      t.row({name, backend_name(b), "-", "-", "-", "-", "-", "-", "-",
             Table::num(r.wall_ms)});
    }
  }
  t.print();
  if (cli.has("csv") && !t.write_csv("spms.csv")) {
    std::fprintf(stderr, "bench_spms: cannot write spms.csv\n");
    return 1;
  }

  // ---- span trend over doubling n ----
  // Gate constants sit well clear of the measured values (band max/min
  // ~1.50 and coefficient <= ~48 over 2^12..2^17 on the bench seed) while
  // a binary merge tree's extra log factor blows through both.
  {
    Table st("Span trend (span / (lg n · lg lg n))");
    st.header({"n", "T_inf", "norm"});
    double norm_min = 0, norm_max = 0;
    bool first = true;
    const size_t lo = std::max<size_t>(4096, n / 16);
    for (size_t m = lo; m <= n; m <<= 1) {
      const uint64_t span = spms_span(m, tuning);
      const double norm = span_norm(m, span);
      st.row({Table::num(static_cast<uint64_t>(m)), Table::num(span),
              Table::num(norm)});
      RO_CHECK_MSG(norm <= 80.0,
                   "SPMS span trend: span above 80 · lg n · lg lg n");
      norm_min = first ? norm : std::min(norm_min, norm);
      norm_max = first ? norm : std::max(norm_max, norm);
      first = false;
    }
    st.print();
    RO_CHECK_MSG(first || norm_max <= 1.8 * norm_min,
                 "SPMS span trend: normalized span not flat — growth is "
                 "faster than O(lg n · lg lg n)");
    std::printf("span trend: normalized band [%.2f, %.2f] (max/min %.2f, "
                "gate 1.80)\n",
                norm_min, norm_max, first ? 0.0 : norm_max / norm_min);
  }

  // ---- kernel head-to-head: scalar vs branch-free base cases ----
  // Two measurements: the raw merge microbench (kern::merge vs the branchy
  // indexed loop) and the end-to-end sort on the seq backend with
  // SpmsTuning::kernels off vs on — the latter is exactly the code swap
  // the par-* backends get.
  {
    const KernelMergeBench kb = kernel_merge_bench();
    std::printf("\nkernel merge: scalar %.2f ms, kernel %.2f ms -> %.2fx\n",
                kb.scalar_ms, kb.kernel_ms, kb.speedup());

    double sort_ms[2] = {0, 0};
    for (const bool kernels : {false, true}) {
      alg::SpmsTuning kt = tuning;
      kt.kernels = kernels;
      RunOptions opt;
      opt.backend = Backend::kSeq;
      opt.label = "kernel-ab";
      double best = 0;
      for (int r = 0; r < 3; ++r) {
        const double ms =
            engine().run(prog_sort(n, 1, SortKind::kSpms, kt), opt).wall_ms;
        best = (r == 0 || ms < best) ? ms : best;
      }
      sort_ms[kernels] = best;
    }
    const double sort_speedup = sort_ms[1] > 0 ? sort_ms[0] / sort_ms[1] : 0;
    std::printf("kernel sort A/B (seq, n=%zu): scalar %.2f ms, kernel "
                "%.2f ms -> %.2fx\n",
                n, sort_ms[0], sort_ms[1], sort_speedup);

    if (cli.has("kernel-gate")) {
      // The acceptance bar rides on the sort A/B: it is the code swap the
      // backends actually see and it clears 1.15x with ~2x headroom.  The
      // raw merge microbench sits near ~1.2x idle — gcc if-converts the
      // branchy loop into cmov too, so the kernel's win there is only the
      // hoisted bound checks — and gets a not-slower floor instead of a
      // bar a noisy CI neighbor could shave past.
      RO_CHECK_MSG(kb.speedup() >= 1.05,
                   "kernel merge microbench regressed below scalar");
      RO_CHECK_MSG(sort_speedup >= 1.15,
                   "kernel sort A/B below the 1.15x acceptance bar");
      std::printf("kernel gate: sort %.2fx >= 1.15x, merge %.2fx >= "
                  "1.05x OK\n",
                  sort_speedup, kb.speedup());
    }
  }

  std::printf("\nQ(n,M,B): msort=%llu spms=%llu -> %s\n",
              static_cast<unsigned long long>(q[0]),
              static_cast<unsigned long long>(q[1]),
              q[1] <= q[0] ? "SPMS no worse (expected for n >= 2^16)"
                           : "SPMS worse (expected only below n ~ 2^16)");
  // Acceptance gate: from 2^16 up, SPMS's Q must not exceed msort's.  CI
  // runs this at --n=65536, so a regression here goes red.
  if (n >= (size_t{1} << 16) && q[1] > q[0]) return 1;
  return 0;
}
