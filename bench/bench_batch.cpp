// Batch pipeline bench: N workload instances, each one record -> analyze
// -> replay chain on its own address shard and simulated machine — one
// chain at a time (--replay-threads=1) and with chains on concurrent host
// threads.  Demonstrates the two acceptance properties of the sharded
// pipeline:
//
//   * speedup:   the concurrent batch's wall clock beats running the same
//                N chains one at a time (the table's last column);
//   * exactness: the concurrent batch's per-shard and aggregate Metrics are
//                bit-identical to the one-at-a-time run (RO_CHECK'd here,
//                not just eyeballed).
//
//   $ ./bench_batch [--shards=8] [--n=4096] [--p=8] [--M=4096] [--B=32]
//                   [--replay-threads=0]   # 0 = hardware concurrency
//                   [--backends=sim-pws]   # any replay backend
//                   [--out=BENCH_batch.json]
#include <cstdio>
#include <fstream>
#include <functional>

#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 12));
  const uint32_t shards = static_cast<uint32_t>(cli.get_int("shards", 8));
  const uint32_t replay_threads =
      static_cast<uint32_t>(cli.get_int("replay-threads", 0));

  RunOptions opt;
  const std::vector<Backend> backends = backends_from_cli(cli, "sim-pws");
  RO_CHECK_MSG(backends.size() == 1 && !backend_is_parallel(backends[0]),
               "bench_batch replays traces; pick one seq/sim backend");
  opt.backend = backends[0];
  opt.label = "batch";
  opt.sim.p = static_cast<uint32_t>(cli.get_int("p", 8));
  opt.sim.M = static_cast<uint64_t>(cli.get_int("M", 1 << 12));
  opt.sim.B = static_cast<uint32_t>(cli.get_int("B", 32));

  // A mixed tenant population: the three trace families of the test suite.
  using Prog = std::function<void(detail::EngineCtx<TraceCtx>&)>;
  std::vector<Prog> progs;
  for (uint32_t i = 0; i < shards; ++i) {
    switch (i % 3) {
      case 0: progs.emplace_back(prog_sort(n, 1, SortKind::kSpms)); break;
      case 1: progs.emplace_back(prog_lr(n / 2)); break;
      default: progs.emplace_back(prog_ps(2 * n)); break;
    }
  }

  Table t("Batch record/replay: N shards, one simulated machine each");
  t.header({"chains", "threads", "record-ms", "replay-ms", "wall-ms",
            "speedup"});

  opt.sim.replay_threads = 1;
  const BatchReport seq = engine().run_batch(progs, opt);
  t.row({"one at a time", "1", Table::num(seq.record_ms),
         Table::num(seq.replay_ms), Table::num(seq.wall_ms), "1.00"});

  opt.sim.replay_threads = replay_threads;
  const uint32_t t_eff = replay_host_threads(replay_threads, shards);
  const BatchReport par = engine().run_batch(progs, opt);
  char spd[32];
  std::snprintf(spd, sizeof spd, "%.2f",
                par.wall_ms > 0 ? seq.wall_ms / par.wall_ms : 0.0);
  t.row({"concurrent", std::to_string(t_eff), Table::num(par.record_ms),
         Table::num(par.replay_ms), Table::num(par.wall_ms), spd});
  t.print();
  std::printf("(record/replay-ms are cumulative per-shard busy times)\n");

  // Deterministic merge: the concurrent chains must reproduce the
  // one-at-a-time run's metrics exactly, shard by shard and in aggregate.
  RO_CHECK_MSG(par.runs.size() == seq.runs.size(), "shard count drifted");
  for (size_t i = 0; i < par.runs.size(); ++i) {
    RO_CHECK_MSG(par.runs[i].sim == seq.runs[i].sim,
                 "concurrent chains diverged from the one-at-a-time run");
    RO_CHECK_MSG(par.runs[i].q_seq == seq.runs[i].q_seq,
                 "baseline diverged between replay modes");
  }
  RO_CHECK_MSG(par.aggregate.sim == seq.aggregate.sim,
               "aggregate metrics diverged");
  std::printf("\ndeterministic merge: %u threads == one at a time "
              "(%zu shards, makespan=%llu, cache_miss=%llu)\n",
              t_eff, par.runs.size(),
              static_cast<unsigned long long>(par.aggregate.sim.makespan),
              static_cast<unsigned long long>(
                  par.aggregate.sim.cache_misses()));

  const std::string out = cli.get_str("out", "BENCH_batch.json");
  std::ofstream f(out);
  f << "[\n  " << seq.to_json() << ",\n  " << par.to_json() << "\n]\n";
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote 2 BatchReports to %s\n", out.c_str());
  return 0;
}
