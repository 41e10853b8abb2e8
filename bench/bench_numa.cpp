// E18 — grouped-pool bench: rt::Pool under both steal policies, swept over
// forced worker-group layouts.  The engine's par backends take their
// grouping from the host topology (one group on a single-node host); this
// bench forces contiguous layouts so the locality-preferring victim choice
// runs on any machine.  Two properties are RO_CHECK'd, not just printed:
//
//   * parity:   every policy and group count produces bit-identical
//               outputs to the seq golden run on every workload (the pool
//               only reorders race-free work, it must never change
//               results);
//   * locality: on a forced 2-group layout both policies steal locally
//               more often than remotely (the victim preference actually
//               holds, aggregated over all workloads and reps).
//
//   $ ./bench_numa [--n=32768] [--threads=8] [--groups=1,2,4] [--reps=3]
//                  [--serial-below=64] [--out=BENCH_numa.json]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "common.h"

using namespace ro;
using namespace ro::bench;
using alg::i64;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 15));
  const unsigned threads = static_cast<unsigned>(cli.get_int("threads", 8));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const uint64_t serial_below =
      static_cast<uint64_t>(cli.get_int("serial-below", 64));

  const std::vector<uint32_t> group_counts =
      u32_list_from_cli(cli, "groups", "1,2,4");
  for (uint32_t g : group_counts)
    RO_CHECK_MSG(g >= 1, "--groups entries must be >= 1");

  // One pool per (policy, group count), reused across workloads and reps.
  struct Config {
    Backend backend;  // the par backend whose steal policy the pool runs
    uint32_t groups;
    std::unique_ptr<rt::Pool> pool;
  };
  std::vector<Config> configs;
  for (Backend b : {Backend::kParRandom, Backend::kParPriority}) {
    for (uint32_t g : group_counts) {
      rt::PoolOptions popt;
      popt.policy = Engine::steal_policy_of(b);
      popt.layout = rt::GroupLayout::contiguous(threads, g);
      configs.push_back({b, g, std::make_unique<rt::Pool>(threads, popt)});
    }
  }

  // Workload factories: make(out) returns a generic program (any context)
  // writing its result into `out`, so the same closure runs the seq golden
  // pass and every pool.
  auto make_msum = [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(i % 13) - 6;
      auto o = cx.template alloc<i64>(1, "o");
      cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + 1);
    };
  };
  auto make_spms = [n](std::vector<i64>& out) {
    const size_t m = n / 4;
    return [m, &out](auto& cx) {
      auto a = cx.template alloc<i64>(m, "a");
      Rng rng(42);
      for (size_t i = 0; i < m; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto o = cx.template alloc<i64>(m, "o");
      cx.run(2 * m, [&] { alg::spms(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + m);
    };
  };
  auto make_lr = [n](std::vector<i64>& out) {
    const size_t m = n / 8;
    const auto succ = alg::random_list(m, m * 7 + 3);
    return [m, succ, &out](auto& cx) {
      auto s = cx.template alloc<i64>(m, "succ");
      std::copy(succ.begin(), succ.end(), s.raw());
      auto r = cx.template alloc<i64>(m, "rank");
      cx.run(2 * m, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
      out.assign(r.raw(), r.raw() + m);
    };
  };

  // Runs `prog` on `c`'s pool and reports that run alone.
  auto run_on = [serial_below](Config& c, auto prog) {
    const rt::PoolStats before = c.pool->stats();
    const auto t0 = std::chrono::steady_clock::now();
    rt::ParCtx cx(*c.pool, serial_below);
    prog(cx);
    RunReport r;
    r.backend = c.backend;
    r.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    set_pool(r, *c.pool, c.pool->stats().since(before));
    return r;
  };

  std::vector<RunReport> reports;
  Table t("Grouped pool: steal locality and wall-clock per forced layout");
  t.header({"workload", "backend", "groups", "wall-ms", "steals", "local",
            "remote", "failed"});

  uint64_t local_at2[2] = {0, 0};   // [par-random, par-priority]
  uint64_t remote_at2[2] = {0, 0};

  auto run_family = [&](const char* label, auto make) {
    std::vector<i64> golden;
    SeqCtx seq;
    make(golden)(seq);
    RO_CHECK_MSG(!golden.empty(), "golden run produced no output");
    for (Config& c : configs) {
      const int slot = c.backend == Backend::kParRandom ? 0 : 1;
      RunReport last;
      for (int rep = 0; rep < reps; ++rep) {
        std::vector<i64> out;
        last = run_on(c, make(out));
        RO_CHECK_MSG(out == golden,
                     "grouped pool diverged from the seq golden run");
        if (c.groups == 2) {
          local_at2[slot] += last.pool_local_steals;
          remote_at2[slot] += last.pool_remote_steals;
        }
      }
      last.label = std::string(label) + "/g" + std::to_string(c.groups);
      reports.push_back(last);
      t.row({label, backend_name(c.backend), std::to_string(last.pool_groups),
             Table::num(last.wall_ms), Table::num(last.pool_steals),
             Table::num(last.pool_local_steals),
             Table::num(last.pool_remote_steals),
             Table::num(last.pool_failed_steals)});
    }
  };

  run_family("msum", make_msum);
  run_family("spms", make_spms);
  run_family("listrank", make_lr);
  t.print();

  // Acceptance: with a forced 2-group layout the locality preference must
  // be visible in the counters for both policies.
  if (threads >= 4) {
    for (Config& c : configs) {
      if (c.groups != 2) continue;
      const int slot = c.backend == Backend::kParRandom ? 0 : 1;
      // OS scheduling decides how many steals a single run sees; on a
      // loaded host a short sweep can end with too few to split.  Top up
      // with extra runs on a wall-clock budget before judging.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (local_at2[slot] <= remote_at2[slot] &&
             std::chrono::steady_clock::now() < deadline) {
        std::vector<i64> out;
        const RunReport r = run_on(c, make_msum(out));
        local_at2[slot] += r.pool_local_steals;
        remote_at2[slot] += r.pool_remote_steals;
      }
      std::printf("steal locality @2 groups, %s: local=%llu remote=%llu\n",
                  backend_name(c.backend),
                  static_cast<unsigned long long>(local_at2[slot]),
                  static_cast<unsigned long long>(remote_at2[slot]));
      RO_CHECK_MSG(local_at2[slot] > remote_at2[slot],
                   "grouped pool stole remotely more often than locally");
    }
  }

  const std::string out = cli.get_str("out", "BENCH_numa.json");
  std::ofstream f(out);
  f << reports_to_json(reports);
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %zu RunReports to %s\n", reports.size(), out.c_str());
  return 0;
}
