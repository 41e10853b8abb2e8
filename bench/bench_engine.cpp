// E17 — Engine smoke bench: one workload program per algorithm family runs
// through ro::Engine on all five backends with a single RunOptions change,
// and the unified RunReports are dumped as JSON (BENCH_engine.json) so the
// perf trajectory of the engine accumulates across commits.
//
//   $ ./bench_engine [--n=16384] [--p=8] [--M=4096] [--B=32]
//                    [--replay-threads=1] [--backends=all]
//                    [--out=BENCH_engine.json]
#include <cstdio>
#include <fstream>

#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 14));
  RunOptions opt;
  opt.sim.p = static_cast<uint32_t>(cli.get_int("p", 8));
  opt.sim.M = static_cast<uint64_t>(cli.get_int("M", 1 << 12));
  opt.sim.B = static_cast<uint32_t>(cli.get_int("B", 32));
  opt.threads = static_cast<unsigned>(cli.get_int("threads", 0));
  // Host-parallel replay (overlaps each replay with its p=1 baseline walk);
  // metrics are bit-identical for every value — see docs/sharding.md.
  opt.sim.replay_threads =
      static_cast<uint32_t>(cli.get_int("replay-threads", 1));
  const alg::SpmsTuning spms = spms_from_cli(cli);
  const std::vector<Backend> backends = backends_from_cli(cli);

  std::vector<RunReport> reports;
  Table t("Engine smoke: every backend, one RunOptions change");
  t.header({"workload", "backend", "wall-ms", "makespan", "cache-miss",
            "blk-miss", "sim-steals", "pool-steals", "speedup"});

  auto sweep = [&](const std::string& label, auto prog) {
    for (Backend b : backends) {
      opt.backend = b;  // the single knob
      opt.label = label;
      const RunReport r = engine().run(prog, opt);
      reports.push_back(r);
      t.row({label, backend_name(b), Table::num(r.wall_ms),
             r.has_sim ? Table::num(r.sim.makespan) : "-",
             r.has_sim ? Table::num(r.sim.cache_misses()) : "-",
             r.has_sim ? Table::num(r.sim.block_misses()) : "-",
             r.has_sim ? Table::num(r.sim.steals()) : "-",
             r.has_pool ? Table::num(r.pool_steals) : "-",
             r.has_baseline ? Table::num(r.sim_speedup()) : "-"});
    }
  };

  sweep("scan-ps", prog_ps(n));
  sweep("msum", prog_msum(n));
  sweep("sort", prog_sort(n / 4));
  sweep("sort-spms", prog_sort(n / 4, 1, SortKind::kSpms, spms));
  sweep("mt-bi", prog_mt(static_cast<uint32_t>(next_pow2(isqrt(n)))));

  // The sort's merge base case off-simulator (scalar vs kern::merge), as
  // two wall-clock-only rows so the kernel speedup accumulates in
  // BENCH_history.json and the --trend gate catches a sustained loss of
  // the branch-free win.  Sized so both rows clear the gate's --min-ms
  // noise guard on CI runners.
  {
    const KernelMergeBench kb = kernel_merge_bench();
    RunReport scalar;
    scalar.label = "kernel-merge-scalar";
    scalar.backend = Backend::kSeq;
    scalar.wall_ms = kb.scalar_ms;
    RunReport kernel;
    kernel.label = "kernel-merge";
    kernel.backend = Backend::kSeq;
    kernel.wall_ms = kb.kernel_ms;
    reports.push_back(scalar);
    reports.push_back(kernel);
    t.row({"kernel-merge-scalar", backend_name(Backend::kSeq),
           Table::num(kb.scalar_ms), "-", "-", "-", "-", "-", "-"});
    t.row({"kernel-merge", backend_name(Backend::kSeq),
           Table::num(kb.kernel_ms), "-", "-", "-", "-", "-", "-"});
  }
  t.print();

  const std::string out = cli.get_str("out", "BENCH_engine.json");
  std::ofstream f(out);
  f << reports_to_json(reports);
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %zu RunReports to %s\n", reports.size(), out.c_str());
  return 0;
}
