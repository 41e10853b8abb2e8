// Shared infrastructure for the bench binaries.
//
// Workloads are *programs*: generic callables over any execution context,
// runnable unchanged on every ro::Engine backend (seq, sim-PWS, sim-RWS,
// par-random, par-priority).  `prog_*` builds deterministic inputs (per
// size) and runs one Table-1 algorithm; `rec_*` records a program once
// through the shared Engine for the trace-replay benches.  Binaries print
// their tables via ro::Table; bench_claims gates the paper's claims
// (docs/claims.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "ro/alg/cc.h"
#include "ro/alg/kernels.h"
#include "ro/alg/counters.h"
#include "ro/alg/euler.h"
#include "ro/alg/fft.h"
#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/mm.h"
#include "ro/alg/mt.h"
#include "ro/alg/rm_bi.h"
#include "ro/alg/scan.h"
#include "ro/alg/sort.h"
#include "ro/alg/spms.h"
#include "ro/alg/strassen.h"
#include "ro/engine/engine.h"
#include "ro/util/cli.h"
#include "ro/util/rng.h"
#include "ro/util/table.h"

namespace ro::bench {

using alg::cplx;
using alg::i64;
using alg::SortKind;

/// Splits a comma-separated flag value into its entries.  Empty entries
/// ("1,,2", trailing comma) are RO_CHECK failures — a typo must fail
/// loudly, never silently shrink a sweep.
inline std::vector<std::string> split_csv(const std::string& spec) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string tok =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    RO_CHECK_MSG(!tok.empty(), "comma-list flag holds an empty entry");
    out.push_back(tok);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// A comma list of non-negative integers ("1,2,4").  Follows the Cli
/// numeric policy: trailing garbage ("2x8") is an RO_CHECK failure, not a
/// silently truncated number.
inline std::vector<uint32_t> u32_list_from_cli(const Cli& cli,
                                               const std::string& flag,
                                               const std::string& def) {
  std::vector<uint32_t> out;
  for (const std::string& tok : split_csv(cli.get_str(flag, def))) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
    RO_CHECK_MSG(end != tok.c_str() && *end == '\0' && v <= UINT32_MAX,
                 "comma-list flag holds a non-numeric entry");
    out.push_back(static_cast<uint32_t>(v));
  }
  return out;
}

/// The bench-wide `--backends=` flag: a comma list of backend names (see
/// parse_backend; short aliases allowed) or one of the sets "all", "sim"
/// (seq + the two trace replays) and "par" (the two real-thread
/// backends).  RO_CHECK fails on unknown names so a typo cannot silently
/// bench the wrong backend.
inline std::vector<Backend> backends_from_cli(const Cli& cli,
                                              const std::string& def = "all") {
  const std::string spec = cli.get_str("backends", def);
  if (spec == "all")
    return {std::begin(kAllBackends), std::end(kAllBackends)};
  if (spec == "sim")
    return {Backend::kSeq, Backend::kSimPws, Backend::kSimRws};
  if (spec == "par")
    return {Backend::kParRandom, Backend::kParPriority};
  std::vector<Backend> out;
  for (const std::string& name : split_csv(spec)) {
    Backend b;
    RO_CHECK_MSG(parse_backend(name, b),
                 "--backends holds an unknown backend name");
    out.push_back(b);
  }
  return out;
}

/// The shared SPMS tuning flags (`--spms-*`): every knob of
/// alg::SpmsTuning is overridable from the command line so bench sweeps
/// never need a recompile.  Returns the defaults with the given flags
/// applied; benches pass it into their programs (prog_sort).
inline alg::SpmsTuning spms_from_cli(const Cli& cli) {
  alg::SpmsTuning t;
  t.merge_base = static_cast<size_t>(
      cli.get_int("spms-merge-base", static_cast<int64_t>(t.merge_base)));
  t.merge2_min = static_cast<size_t>(
      cli.get_int("spms-merge2-min", static_cast<int64_t>(t.merge2_min)));
  t.stride_mul = static_cast<size_t>(
      cli.get_int("spms-stride-mul", static_cast<int64_t>(t.stride_mul)));
  t.seq_cap_div = static_cast<size_t>(
      cli.get_int("spms-seq-cap-div", static_cast<int64_t>(t.seq_cap_div)));
  t.stride_per_seq = static_cast<size_t>(cli.get_int(
      "spms-stride-per-seq", static_cast<int64_t>(t.stride_per_seq)));
  t.multisearch_leaf = static_cast<size_t>(
      cli.get_int("spms-ms-leaf", static_cast<int64_t>(t.multisearch_leaf)));
  t.sample_sort_seq = static_cast<size_t>(
      cli.get_int("spms-sample-seq", static_cast<int64_t>(t.sample_sort_seq)));
  t.machinery_min = static_cast<size_t>(
      cli.get_int("spms-machinery-min", static_cast<int64_t>(t.machinery_min)));
  t.kernels = cli.get_int("spms-kernels", t.kernels ? 1 : 0) != 0;
  return t;
}

/// One scalar-vs-kernel head-to-head on the pairwise merge base case: the
/// branchy scalar loop (what the recording backends execute) against
/// kern::merge (the cmov kernel the par-* backends select), same inputs,
/// min wall time over `reps` passes.  The checksum keeps the optimizer
/// honest and doubles as a correctness cross-check between the two.
struct KernelMergeBench {
  double scalar_ms = 0;
  double kernel_ms = 0;
  double speedup() const { return kernel_ms > 0 ? scalar_ms / kernel_ms : 0; }
};

inline KernelMergeBench kernel_merge_bench(size_t n = size_t{1} << 21,
                                           int reps = 5) {
  std::vector<i64> a(n), b(n), out(2 * n);
  Rng rng(n + 9);
  for (size_t i = 0; i < n; ++i) a[i] = static_cast<i64>(rng.next() >> 1);
  for (size_t i = 0; i < n; ++i) b[i] = static_cast<i64>(rng.next() >> 1);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());

  uint64_t sum_scalar = 0, sum_kernel = 0;
  const auto timed = [&](auto&& body, uint64_t& sum, int r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    sum += static_cast<uint64_t>(out[(r * 977) % out.size()]);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  const auto scalar = [&] {
    size_t i = 0, j = 0, k = 0;
    while (i < n && j < n) {
      if (a[i] <= b[j])
        out[k++] = a[i++];
      else
        out[k++] = b[j++];
    }
    while (i < n) out[k++] = a[i++];
    while (j < n) out[k++] = b[j++];
  };
  const auto kernel = [&] {
    alg::kern::merge(a.data(), n, b.data(), n, out.data());
  };

  // A/B passes interleaved (with one untimed warmup each) so a load spike
  // from a noisy neighbor hits both sides alike instead of skewing the
  // ratio; min-of-reps then discards the spikes entirely.
  scalar();
  kernel();
  KernelMergeBench kb;
  for (int r = 0; r < reps; ++r) {
    const double sm = timed(scalar, sum_scalar, r);
    const double km = timed(kernel, sum_kernel, r);
    kb.scalar_ms = (r == 0 || sm < kb.scalar_ms) ? sm : kb.scalar_ms;
    kb.kernel_ms = (r == 0 || km < kb.kernel_ms) ? km : kb.kernel_ms;
  }
  RO_CHECK_MSG(sum_scalar == sum_kernel,
               "kernel merge disagrees with the scalar merge");
  return kb;
}

/// Process-wide Engine: one record/replay entry point and one cached thread
/// pool per steal policy, shared by everything in a bench binary.
inline Engine& engine() {
  static Engine e;
  return e;
}

// ---- workload programs (inputs deterministic per size) ----

inline auto prog_msum(size_t n, size_t grain = 1) {
  return [=](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n);
    for (size_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next_below(100));
    auto out = cx.template alloc<i64>(1, "out");
    cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice(), grain); });
  };
}

inline auto prog_ps(size_t n, size_t grain = 1) {
  return [=](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n + 1);
    for (size_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next_below(100));
    auto out = cx.template alloc<i64>(n, "out");
    cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), out.slice(), grain); });
  };
}

inline auto prog_ma(size_t n, size_t grain = 1) {
  return [=](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    auto b = cx.template alloc<i64>(n, "b");
    auto out = cx.template alloc<i64>(n, "out");
    cx.run(3 * n, [&] {
      alg::matrix_add(cx, a.slice(), b.slice(), out.slice(), grain);
    });
  };
}

inline auto prog_mt(uint32_t n, size_t grain = 1) {
  return [=](auto& cx) {
    const size_t m = static_cast<size_t>(n) * n;
    auto in = cx.template alloc<i64>(m, "in");
    auto out = cx.template alloc<i64>(m, "out");
    cx.run(2 * m, [&] { alg::mt_bi(cx, in.slice(), out.slice(), n, grain); });
  };
}

inline auto prog_rm2bi(uint32_t n, size_t grain = 1) {
  return [=](auto& cx) {
    const size_t m = static_cast<size_t>(n) * n;
    auto in = cx.template alloc<i64>(m, "rm");
    auto out = cx.template alloc<i64>(m, "bi");
    cx.run(2 * m, [&] { alg::rm_to_bi(cx, in.slice(), out.slice(), n, grain); });
  };
}

inline auto prog_bi2rm_direct(uint32_t n, size_t grain = 1) {
  return [=](auto& cx) {
    const size_t m = static_cast<size_t>(n) * n;
    auto in = cx.template alloc<i64>(m, "bi");
    auto out = cx.template alloc<i64>(m, "rm");
    cx.run(2 * m, [&] {
      alg::bi_to_rm_direct(cx, in.slice(), out.slice(), n, grain);
    });
  };
}

inline auto prog_bi2rm_gap(uint32_t n, size_t grain = 1) {
  return [=](auto& cx) {
    const size_t m = static_cast<size_t>(n) * n;
    auto in = cx.template alloc<i64>(m, "bi");
    auto out = cx.template alloc<i64>(m, "rm");
    cx.run(2 * m, [&] {
      alg::bi_to_rm_gap(cx, in.slice(), out.slice(), n, grain);
    });
  };
}

inline auto prog_bi2rm_fft(uint32_t n, size_t grain = 1) {
  return [=](auto& cx) {
    const size_t m = static_cast<size_t>(n) * n;
    auto in = cx.template alloc<i64>(m, "bi");
    auto out = cx.template alloc<i64>(m, "rm");
    cx.run(2 * m, [&] {
      alg::bi_to_rm_fft(cx, in.slice(), out.slice(), n, grain);
    });
  };
}

inline auto prog_strassen(uint32_t n, size_t grain = 1) {
  return [=](auto& cx) {
    const size_t m = static_cast<size_t>(n) * n;
    auto a = cx.template alloc<i64>(m, "a");
    auto b = cx.template alloc<i64>(m, "b");
    auto c = cx.template alloc<i64>(m, "c");
    cx.run(3 * m, [&] {
      alg::strassen_bi(cx, a.slice(), b.slice(), c.slice(), n, 2, grain);
    });
  };
}

inline auto prog_mm(uint32_t n, size_t grain = 1) {
  return [=](auto& cx) {
    const size_t m = static_cast<size_t>(n) * n;
    auto a = cx.template alloc<i64>(m, "a");
    auto b = cx.template alloc<i64>(m, "b");
    auto c = cx.template alloc<i64>(m, "c");
    cx.run(3 * m, [&] {
      alg::depth_n_mm(cx, a.slice(), b.slice(), c.slice(), n, 2, grain);
    });
  };
}

inline auto prog_fft(size_t n, bool bi_transpose = false, size_t grain = 1) {
  return [=](auto& cx) {
    auto x = cx.template alloc<cplx>(n, "x");
    Rng rng(n + 3);
    for (size_t i = 0; i < n; ++i) {
      x.raw()[i] = cplx(rng.next_double(), rng.next_double());
    }
    auto y = cx.template alloc<cplx>(n, "y");
    alg::FftOptions opt;
    opt.bi_transpose = bi_transpose;
    opt.grain = grain;
    cx.run(4 * n, [&] { alg::fft(cx, x.slice(), y.slice(), opt); });
  };
}

inline auto prog_sort(size_t n, size_t grain = 1,
                      SortKind kind = SortKind::kMsort,
                      const alg::SpmsTuning& spms = {}) {
  return [=](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n + 4);
    for (size_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next() >> 1);
    auto out = cx.template alloc<i64>(n, "out");
    cx.run(2 * n, [&] {
      alg::sort_by(cx, kind, a.slice(), out.slice(), 8, grain, spms);
    });
  };
}

inline auto prog_lr(size_t n, bool gapping = true) {
  const auto succ = alg::random_list(n, n * 7 + 3);
  return [=](auto& cx) {
    auto s = cx.template alloc<i64>(n, "succ");
    std::copy(succ.begin(), succ.end(), s.raw());
    auto r = cx.template alloc<i64>(n, "rank");
    alg::ListRankOptions opt;
    opt.gapping = gapping;
    cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice(), opt); });
  };
}

inline auto prog_cc(size_t n, size_t extra, size_t groups) {
  const auto e = alg::random_graph(n, extra, groups, n * 13 + 7);
  return [=](auto& cx) {
    const size_t m = e.u.size();
    auto eu = cx.template alloc<i64>(std::max<size_t>(1, m), "eu");
    auto ev = cx.template alloc<i64>(std::max<size_t>(1, m), "ev");
    std::copy(e.u.begin(), e.u.end(), eu.raw());
    std::copy(e.v.begin(), e.v.end(), ev.raw());
    auto label = cx.template alloc<i64>(n, "label");
    cx.run(2 * (n + m), [&] {
      alg::connected_components(cx, n, eu.slice().first(m),
                                ev.slice().first(m), label.slice());
    });
  };
}

/// The false-sharing calibration microbench (alg/counters.h): k counters
/// `stride` words apart, `iters` increments each.  stride = 1 is the
/// packed adversary ro-doctor must diagnose and repair; stride = B is the
/// padded control.
inline auto prog_counters(uint32_t k, uint64_t iters, uint64_t stride) {
  return [=](auto& cx) {
    auto slots = cx.template alloc<i64>(alg::counter_words(k, stride),
                                        "counters");
    for (uint32_t c = 0; c < k; ++c) slots.raw()[c * stride] = 0;
    cx.run(uint64_t{k} * 2 * iters, [&] {
      alg::counter_stripes(cx, slots.slice(), k, iters, stride);
    });
  };
}

// ---- recorded-graph factories (record a program once, replay many) ----

inline TaskGraph rec_msum(size_t n) {
  return engine().record(prog_msum(n)).graph;
}

inline TaskGraph rec_counters(uint32_t k, uint64_t iters, uint64_t stride) {
  return engine().record(prog_counters(k, iters, stride)).graph;
}

// ---- run helpers ----

inline SimConfig cfg(uint32_t p, uint64_t M, uint32_t B) {
  SimConfig c;
  c.p = p;
  c.M = M;
  c.B = B;
  return c;
}

}  // namespace ro::bench
