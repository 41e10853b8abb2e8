// Engine tests: one program runs on all five backends with identical
// outputs (backend parity), record/replay plumbing, RunReport JSON, and
// pool caching.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/mt.h"
#include "ro/alg/route.h"
#include "ro/alg/scan.h"
#include "ro/alg/sort.h"
#include "ro/alg/spms.h"
#include "ro/engine/engine.h"
#include "ro/engine/workloads.h"
#include "ro/util/rng.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;

constexpr Backend kNonSeqBackends[] = {
    Backend::kSimPws,         Backend::kSimRws,    Backend::kParRandom,
    Backend::kParPriority,    Backend::kParNumaRandom,
    Backend::kParNumaPriority};

/// Runs `make(out)`'s program on kSeq for the golden output, then on every
/// other backend, asserting identical results.
template <class MakeProg>
void expect_parity(const char* label, MakeProg make) {
  std::vector<i64> golden;
  RunOptions opt;
  opt.backend = Backend::kSeq;
  testing::engine().run(make(golden), opt);
  ASSERT_FALSE(golden.empty()) << label;
  for (Backend b : kNonSeqBackends) {
    std::vector<i64> out;
    RunOptions o;
    o.backend = b;
    o.threads = backend_is_numa(b) ? 4 : 2;
    o.numa_groups = 2;    // forced topology: deterministic on any machine
    o.serial_below = 64;  // force real forking on the parallel backends
    const RunReport r = testing::engine().run(make(out), o);
    EXPECT_EQ(out, golden) << label << " under " << backend_name(b);
    EXPECT_EQ(r.has_sim, backend_is_sim(b));
    EXPECT_EQ(r.has_pool, backend_is_parallel(b));
    if (backend_is_numa(b)) EXPECT_EQ(r.pool_groups, 2u);
  }
}

TEST(EngineParity, Msum) {
  const size_t n = 4096;
  expect_parity("msum", [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(i % 13) - 6;
      auto o = cx.template alloc<i64>(1, "o");
      cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + 1);
    };
  });
}

TEST(EngineParity, PrefixSums) {
  const size_t n = 2048;
  expect_parity("prefix_sums", [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(i % 7);
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + n);
    };
  });
}

TEST(EngineParity, Sort) {
  const size_t n = 4096;
  expect_parity("msort", [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      Rng rng(77);
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::msort(cx, a.slice(), o.slice(), 8, 4); });
      out.assign(o.raw(), o.raw() + n);
    };
  });
}

TEST(EngineParity, MatrixTransposeBI) {
  const uint32_t side = 64;
  const size_t m = static_cast<size_t>(side) * side;
  expect_parity("mt_bi", [=](std::vector<i64>& out) {
    return [=, &out](auto& cx) {
      auto a = cx.template alloc<i64>(m, "a");
      for (size_t i = 0; i < m; ++i) a.raw()[i] = static_cast<i64>(i);
      auto o = cx.template alloc<i64>(m, "o");
      cx.run(2 * m, [&] { alg::mt_bi(cx, a.slice(), o.slice(), side); });
      out.assign(o.raw(), o.raw() + m);
    };
  });
}

TEST(EngineParity, ListRank) {
  const size_t n = 512;
  const auto succ = alg::random_list(n, 909);
  expect_parity("list_rank", [=](std::vector<i64>& out) {
    return [=, &out](auto& cx) {
      auto s = cx.template alloc<i64>(n, "s");
      std::copy(succ.begin(), succ.end(), s.raw());
      auto r = cx.template alloc<i64>(n, "r");
      cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
      out.assign(r.raw(), r.raw() + n);
    };
  });
}

TEST(Engine, RecordThenReplayMatchesRunReport) {
  const size_t n = 1024;
  auto prog = [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    for (size_t i = 0; i < n; ++i) a.raw()[i] = 1;
    auto o = cx.template alloc<i64>(n, "o");
    cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), o.slice()); });
  };
  Engine& eng = testing::engine();
  const Recording rec = eng.record(prog);
  EXPECT_GT(rec.stats.activations, 0u);
  EXPECT_GT(rec.stats.accesses, 0u);

  SimConfig cfg;
  cfg.p = 4;
  const RunReport a = eng.replay(rec.graph, Backend::kSimPws, cfg);
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.sim = cfg;
  const RunReport b = eng.run(prog, opt);
  // Recording is deterministic, PWS replay is deterministic: one-shot run
  // and record+replay must agree on every simulator observable.
  EXPECT_EQ(a.sim.makespan, b.sim.makespan);
  EXPECT_EQ(a.sim.cache_misses(), b.sim.cache_misses());
  EXPECT_EQ(a.sim.block_misses(), b.sim.block_misses());
  EXPECT_EQ(a.q_seq, b.q_seq);
  EXPECT_EQ(a.graph.work, b.graph.work);
}

TEST(Engine, SeqReplayBackendIsBaseline) {
  const size_t n = 512;
  const Recording rec = testing::engine().record([n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    auto o = cx.template alloc<i64>(1, "o");
    cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
  });
  SimConfig cfg;
  cfg.p = 8;
  const RunReport r = testing::engine().replay(rec.graph, Backend::kSeq, cfg);
  EXPECT_EQ(r.p, 1u);
  EXPECT_EQ(r.sim.block_misses(), 0u);
  EXPECT_EQ(r.sim.steals(), 0u);
  EXPECT_EQ(r.q_seq, r.sim.cache_misses());
  EXPECT_EQ(r.seq_makespan, r.sim.makespan);
  EXPECT_EQ(r.cache_excess, 0u);
}

TEST(Engine, ReportJsonCarriesBackendFields) {
  const size_t n = 256;
  auto prog = [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    auto o = cx.template alloc<i64>(1, "o");
    cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
  };
  RunOptions opt;
  opt.label = "json \"probe\"";
  opt.backend = Backend::kSimPws;
  const RunReport r = testing::engine().run(prog, opt);
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"backend\":\"sim-pws\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"label\":\"json \\\"probe\\\"\""), std::string::npos)
      << j;
  EXPECT_NE(j.find("\"cache_misses\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"q_seq\":"), std::string::npos) << j;

  RunOptions par;
  par.backend = Backend::kParPriority;
  par.threads = 2;
  const RunReport rp = testing::engine().run(prog, par);
  const std::string jp = rp.to_json();
  EXPECT_NE(jp.find("\"threads\":2"), std::string::npos) << jp;
  EXPECT_NE(jp.find("\"pool_steals\":"), std::string::npos) << jp;
  EXPECT_EQ(jp.find("\"cache_misses\":"), std::string::npos) << jp;

  const std::string arr = reports_to_json({r, rp});
  EXPECT_EQ(arr.front(), '[');
  EXPECT_NE(arr.find("sim-pws"), std::string::npos);
  EXPECT_NE(arr.find("par-priority"), std::string::npos);
}

TEST(Engine, ReportJsonRoundTrips) {
  // Audit guard: every field to_json emits must survive
  // report_from_json(to_json(r)).to_json() == to_json(r) — a field dropped
  // or mangled by the writer/reader pair fails the string comparison.
  const size_t n = 512;
  auto prog = [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(i % 9);
    auto o = cx.template alloc<i64>(n, "o");
    cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), o.slice()); });
  };
  // A sim report with nontrivial steal/hold/L2 traffic...
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "round \"trip\"";
  opt.sim.p = 4;
  opt.sim.M = 1 << 10;
  opt.sim.B = 16;
  opt.sim.M2 = 1 << 12;
  opt.sim.write_hold = 8;
  const RunReport r = testing::engine().run(prog, opt);
  ASSERT_GT(r.sim.steals(), 0u);
  const std::string j = r.to_json();
  RunReport back;
  ASSERT_TRUE(report_from_json(j, back)) << j;
  EXPECT_EQ(back.to_json(), j);
  EXPECT_EQ(back.label, r.label);
  EXPECT_EQ(back.sim.cache_misses(), r.sim.cache_misses());
  EXPECT_EQ(back.sim.stack_misses(), r.sim.stack_misses());
  EXPECT_EQ(back.q_seq, r.q_seq);

  // ...and a pool report (no sim section at all).
  RunOptions par;
  par.backend = Backend::kParRandom;
  par.threads = 2;
  const RunReport rp = testing::engine().run(prog, par);
  const std::string jp = rp.to_json();
  RunReport backp;
  ASSERT_TRUE(report_from_json(jp, backp)) << jp;
  EXPECT_EQ(backp.to_json(), jp);
  EXPECT_FALSE(backp.has_sim);
  EXPECT_TRUE(backp.has_pool);

  EXPECT_FALSE(report_from_json("not json", backp));
}

TEST(Engine, ReportJsonCarriesAuditedSimFields) {
  // The fields report.cpp once silently dropped from the sim/graph merge.
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  const size_t n = 256;
  const RunReport r = testing::engine().run(
      [n](auto& cx) {
        auto a = cx.template alloc<i64>(n, "a");
        auto o = cx.template alloc<i64>(1, "o");
        cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
      },
      opt);
  const std::string j = r.to_json();
  for (const char* key :
       {"\"leaves\":", "\"compute\":", "\"steal_cycles\":", "\"l2_hits\":",
        "\"hold_waits\":", "\"total_block_transfers\":",
        "\"max_block_transfers\":", "\"stack_words\":"}) {
    EXPECT_NE(j.find(key), std::string::npos) << key << " missing in " << j;
  }
}

TEST(Engine, ReportJsonEscapesLabelStrings) {
  // Regression: a label containing quotes, backslashes, newlines or raw
  // control bytes must still serialize to valid JSON (the kv helper once
  // wrote string values verbatim).
  RunReport r;
  r.label = "a\"b\\c\nd\te\rf\x01g";
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"label\":\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\""),
            std::string::npos)
      << j;
  // No raw control bytes and no unescaped quote may survive inside the
  // serialized value.
  const auto val_at = j.find("a\\\"");
  ASSERT_NE(val_at, std::string::npos);
  for (char c : j) EXPECT_GE(static_cast<unsigned char>(c), 0x20) << j;
}

TEST(EngineParity, SpmsSort) {
  const size_t n = 2048;
  expect_parity("spms", [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      Rng rng(99);
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::spms(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + n);
    };
  });
}

TEST(Engine, BackendNamesRoundTrip) {
  for (Backend b : kAllBackends) {
    Backend parsed;
    ASSERT_TRUE(parse_backend(backend_name(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  Backend out;
  EXPECT_TRUE(parse_backend("pws", out));
  EXPECT_EQ(out, Backend::kSimPws);
  EXPECT_FALSE(parse_backend("warp-drive", out));
}

/// A par-backend msum job (the pool tests only look at the pool).
JobSpec par_spec(Backend backend, unsigned threads) {
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt.backend = backend;
  spec.opt.threads = threads;
  return spec;
}

RunReport submit_ok(Engine& eng, const JobSpec& spec) {
  JobResult jr = eng.submit(spec);
  EXPECT_TRUE(jr.ok() && jr.report.has_pool) << jr.error;
  return std::move(jr.report);
}

TEST(Engine, PoolIsCachedPerPolicy) {
  Engine eng;
  JobSpec spec = par_spec(Backend::kParRandom, 2);
  EXPECT_EQ(submit_ok(eng, spec).threads, 2u);
  EXPECT_EQ(eng.pools_created(), 1u);
  submit_ok(eng, spec);
  EXPECT_EQ(eng.pools_created(), 1u);  // same configuration: reused
  spec.opt.backend = Backend::kParPriority;
  submit_ok(eng, spec);
  EXPECT_EQ(eng.pools_created(), 2u);  // other policy: its own pool
  submit_ok(eng, spec);
  EXPECT_EQ(eng.pools_created(), 2u);
}

TEST(Engine, NumaPoolIsCachedPerConfig) {
  Engine eng;
  JobSpec spec = par_spec(Backend::kParNumaRandom, 4);
  spec.opt.numa_groups = 2;
  RunReport r = submit_ok(eng, spec);
  EXPECT_EQ(r.threads, 4u);
  EXPECT_EQ(r.pool_groups, 2u);
  submit_ok(eng, spec);
  EXPECT_EQ(eng.pools_created(), 1u);  // same config: cached
  spec.opt.numa_groups = 4;
  EXPECT_EQ(submit_ok(eng, spec).pool_groups, 4u);
  EXPECT_EQ(eng.pools_created(), 2u);  // group count change: new pool
  spec.opt.numa_escape = 0.5;
  submit_ok(eng, spec);
  EXPECT_EQ(eng.pools_created(), 3u);  // escape change: new pool
  // NUMA pools are keyed apart from the flat ones.
  EXPECT_EQ(submit_ok(eng, par_spec(Backend::kParRandom, 4)).pool_groups, 1u);
  EXPECT_EQ(eng.pools_created(), 4u);
}

TEST(Engine, ZeroThreadsMeansHardwareConcurrencyWhateverRanBefore) {
  // threads = 0 resolves from the spec alone, not from the size of the
  // pool the previous job happened to use.
  Engine eng;
  EXPECT_EQ(submit_ok(eng, par_spec(Backend::kParRandom, 2)).threads, 2u);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(submit_ok(eng, par_spec(Backend::kParRandom, 0)).threads,
            hw == 0 ? 2u : hw);
}

/// A report's JSON without its host wall-clock fields, which differ run to
/// run while every deterministic field may not.
std::string without_host_times(std::string s) {
  for (const char* key : {"\"wall_ms\":", "\"record_ms\":",
                          "\"replay_ms\":"}) {
    size_t i;
    while ((i = s.find(key)) != std::string::npos)
      s.erase(i, s.find(',', i) + 1 - i);
  }
  return s;
}

TEST(Engine, RunShimIsBitIdenticalToSubmit) {
  // run()/run_batch() are deprecated wrappers over submit(); the wrapper
  // and the JobSpec path must produce the same deterministic report
  // (everything but wall-clock), or a migration to submit() changes
  // results behind callers' backs.
  Engine eng;
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "shim";
  const RunReport via_run = eng.run(make_workload("msum", 1 << 10, 0), opt);

  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt = opt;
  const JobResult via_submit = eng.submit(spec);
  ASSERT_TRUE(via_submit.ok()) << via_submit.error;

  EXPECT_EQ(without_host_times(via_run.to_json()),
            without_host_times(via_submit.report.to_json()));

  // Batch shards too: run_batch(progs) == submit(kBatch spec).
  std::vector<AnyProg> progs;
  for (uint64_t i = 0; i < 2; ++i)
    progs.push_back(make_workload("msum", 1 << 10, i));
  opt.label = "shim-batch";
  const BatchReport via_batch = eng.run_batch(progs, opt);
  JobSpec bspec;
  bspec.kind = JobKind::kBatch;
  bspec.workload = "msum";
  bspec.n = 1 << 10;
  bspec.shards = 2;
  bspec.opt = opt;
  const JobResult bjr = eng.submit(bspec);
  ASSERT_TRUE(bjr.ok() && bjr.has_batch) << bjr.error;
  EXPECT_EQ(without_host_times(via_batch.aggregate.to_json()),
            without_host_times(bjr.batch.aggregate.to_json()));
}

TEST(Engine, SubmitRejectsBadSpecsInsteadOfAborting) {
  Engine eng;
  JobSpec spec;  // no workload, no program
  EXPECT_EQ(eng.submit(spec).status, JobStatus::kError);
  spec.workload = "no-such-workload";
  EXPECT_EQ(eng.submit(spec).status, JobStatus::kError);
  spec.workload = "msum";
  spec.opt.sim.p = 0;  // invalid machine
  spec.opt.backend = Backend::kSimPws;
  EXPECT_EQ(eng.submit(spec).status, JobStatus::kError);
  spec.opt.sim.p = 4;
  spec.kind = JobKind::kDiagnose;
  spec.opt.backend = Backend::kParRandom;  // diagnose needs a sim backend
  EXPECT_EQ(eng.submit(spec).status, JobStatus::kError);
}

TEST(Engine, ConcurrentSubmitsShareThePoolCacheSafely) {
  // The redesigned API's core claim: many threads may call submit() on one
  // Engine at once.  Sequential same-config callers must still reuse one
  // pool (no unbounded growth), concurrent callers get siblings, and every
  // result stays bit-identical to a solo run.  Under TSan/ASan this is
  // also the regression test for the old lazily-created-pool data race.
  Engine eng;
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt.backend = Backend::kParRandom;
  spec.opt.threads = 2;
  const JobResult golden = eng.submit(spec);
  ASSERT_TRUE(golden.ok()) << golden.error;

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        JobSpec s = spec;
        const JobResult jr = eng.submit(s);
        if (!jr.ok() || !jr.report.has_pool) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // At most one pool per concurrent caller (plus the golden's): the cache
  // reuses free pools instead of creating one per submit.
  EXPECT_LE(eng.pools_created(), static_cast<size_t>(kThreads + 1));
  // Sim-backend submits race the same way.
  spec.opt.backend = Backend::kSimPws;
  spec.opt.threads = 0;
  std::vector<std::thread> sims;
  std::atomic<int> sim_failures{0};
  for (int t = 0; t < 4; ++t) {
    sims.emplace_back([&] {
      const JobResult jr = eng.submit(spec);
      if (!jr.ok()) sim_failures.fetch_add(1);
    });
  }
  for (std::thread& w : sims) w.join();
  EXPECT_EQ(sim_failures.load(), 0);
}

TEST(Engine, MixedTuningSubmitsMatchTheirSoloGoldens) {
  // Jobs with different SPMS tunings share no state, so they run at once
  // (nothing drains the machine between them) and each still reproduces
  // its solo result exactly.  sim-pws jobs are the named sort-spms
  // workload with RunOptions::spms; par-priority jobs are programs that
  // pass their tuning to alg::spms themselves.
  Engine eng;
  alg::SpmsTuning tuned;
  tuned.merge_base = 64;
  tuned.multisearch_leaf = 96;
  const alg::SpmsTuning tunings[2] = {alg::SpmsTuning{}, tuned};

  auto sim_spec = [&](int t) {
    JobSpec spec;
    spec.workload = "sort-spms";
    spec.n = 1 << 12;
    spec.opt.backend = Backend::kSimPws;
    if (t == 1) spec.opt.spms = tuned;
    return spec;
  };
  const size_t n = 1 << 14;
  auto par_job = [&](int t, std::vector<i64>& out) {
    auto prog = [&, t](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      Rng rng(n);
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] {
        alg::spms(cx, a.slice(), o.slice(), 32, 1, tunings[t]);
      });
      out.assign(o.raw(), o.raw() + n);
    };
    JobSpec spec;
    spec.opt.backend = Backend::kParPriority;
    spec.opt.threads = 2;
    return eng.submit(spec, AnyProg(prog));
  };

  std::string sim_gold[2];
  std::vector<i64> par_gold[2];
  for (int t : {0, 1}) {
    const JobResult jr = eng.submit(sim_spec(t));
    ASSERT_TRUE(jr.ok()) << jr.error;
    sim_gold[t] = without_host_times(jr.report.to_json());
    ASSERT_TRUE(par_job(t, par_gold[t]).ok());
  }
  ASSERT_NE(sim_gold[0], sim_gold[1]);  // the tuning shows in the trace

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        const int t = (w + r) % 2;  // neighbours always differ in tuning
        const JobResult sim = eng.submit(sim_spec(t));
        if (!sim.ok() ||
            without_host_times(sim.report.to_json()) != sim_gold[t]) {
          mismatches.fetch_add(1);
        }
        std::vector<i64> out;
        const JobResult par = par_job(t, out);
        if (!par.ok() || par.report.threads != 2 || out != par_gold[t]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Engine, CapacitySharedBatchAttributesEveryMissAndTransfer) {
  Engine eng;
  JobSpec spec;
  spec.kind = JobKind::kBatch;
  spec.workload = "sort";
  spec.n = 1 << 10;
  spec.shards = 3;
  spec.opt.backend = Backend::kSimPws;
  spec.opt.label = "shared";
  spec.opt.capacity_shared = true;
  const JobResult jr = eng.submit(spec);
  ASSERT_TRUE(jr.ok() && jr.has_batch) << jr.error;
  const BatchReport& br = jr.batch;
  EXPECT_TRUE(br.capacity_shared);
  ASSERT_EQ(br.runs.size(), 3u);
  uint64_t cache = 0, block = 0, transfers = 0;
  for (const RunReport& r : br.runs) {
    ASSERT_TRUE(r.has_tenant);
    cache += r.tenant_cache_misses;
    block += r.tenant_block_misses;
    transfers += r.tenant_transfers;
  }
  // Per-tenant attribution is a partition of the shared machine's totals:
  // nothing double-counted, nothing dropped.
  ASSERT_TRUE(br.aggregate.has_sim);
  EXPECT_EQ(cache, br.aggregate.sim.cache_misses());
  EXPECT_EQ(block, br.aggregate.sim.block_misses());
  EXPECT_EQ(transfers, br.aggregate.sim.total_block_transfers);
  // And the whole thing is deterministic: a second submit is identical.
  const JobResult again = eng.submit(spec);
  ASSERT_TRUE(again.ok() && again.has_batch);
  EXPECT_EQ(without_host_times(br.to_json()),
            without_host_times(again.batch.to_json()));
}

TEST(Engine, NumaReportCarriesLocalityCounters) {
  const size_t n = 4096;
  auto prog = [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    for (size_t i = 0; i < n; ++i) a.raw()[i] = 1;
    auto o = cx.template alloc<i64>(1, "o");
    cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
  };
  RunOptions opt;
  opt.backend = Backend::kParNumaPriority;
  opt.threads = 4;
  opt.numa_groups = 2;
  opt.serial_below = 64;
  const RunReport r = testing::engine().run(prog, opt);
  EXPECT_TRUE(r.has_pool);
  EXPECT_EQ(r.pool_groups, 2u);
  EXPECT_EQ(r.pool_local_steals + r.pool_remote_steals, r.pool_steals);
  // Per-group histogram: one bucket per group, sums matching the totals.
  ASSERT_EQ(r.pool_group_local_steals.size(), 2u);
  ASSERT_EQ(r.pool_group_remote_steals.size(), 2u);
  uint64_t loc = 0, rem = 0;
  for (uint32_t g = 0; g < 2; ++g) {
    loc += r.pool_group_local_steals[g];
    rem += r.pool_group_remote_steals[g];
  }
  EXPECT_EQ(loc, r.pool_local_steals);
  EXPECT_EQ(rem, r.pool_remote_steals);
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"backend\":\"par-numa-priority\""), std::string::npos);
  EXPECT_NE(j.find("\"pool_groups\":2"), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_local_steals\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_remote_steals\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_group_local_steals\":["), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_group_remote_steals\":["), std::string::npos) << j;
  RunReport back;
  ASSERT_TRUE(report_from_json(j, back)) << j;
  EXPECT_EQ(back.to_json(), j);  // numa pool fields survive the round trip
  EXPECT_EQ(back.pool_groups, r.pool_groups);
  EXPECT_EQ(back.pool_local_steals, r.pool_local_steals);
  EXPECT_EQ(back.pool_group_local_steals, r.pool_group_local_steals);
  EXPECT_EQ(back.pool_group_remote_steals, r.pool_group_remote_steals);
}

TEST(Engine, MalformedHistogramArrayParsesWithoutSpinning) {
  // Regression: a non-numeric array element must terminate the list scan,
  // not loop forever pushing zeros.
  RunReport out;
  const std::string j =
      "{\"label\":\"x\",\"backend\":\"par-random\",\"threads\":2,"
      "\"pool_group_local_steals\":[x],\"pool_steals\":7}";
  ASSERT_TRUE(report_from_json(j, out));
  EXPECT_TRUE(out.pool_group_local_steals.empty());
  EXPECT_EQ(out.pool_steals, 7u);  // fields after the array still parse
}

/// The satellite workloads of the NUMA backends: sort-routed gather
/// (route), list ranking, and SPMS, swept over forced group counts 1/2/4.
/// Outputs must be bit-identical to the seq golden run for every count —
/// the pool only reschedules race-free work.
TEST(EngineNuma, GroupCountParityOnRouteListrankSpms) {
  const size_t n = 512;
  const auto succ = alg::random_list(n, 1234);

  auto make_route = [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto idx = cx.template alloc<i64>(n, "idx");
      auto vals = cx.template alloc<i64>(n, "vals");
      for (size_t i = 0; i < n; ++i) {
        idx.raw()[i] = static_cast<i64>((i * 7 + 3) % n);
        vals.raw()[i] = static_cast<i64>(i * i % 101);
      }
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] {
        alg::gather(cx, alg::StridedView{idx.slice(), 1},
                    alg::StridedView{vals.slice(), 1},
                    alg::StridedView{o.slice(), 1}, n);
      });
      out.assign(o.raw(), o.raw() + n);
    };
  };
  auto make_lr = [n, &succ](std::vector<i64>& out) {
    return [n, &succ, &out](auto& cx) {
      auto s = cx.template alloc<i64>(n, "s");
      std::copy(succ.begin(), succ.end(), s.raw());
      auto r = cx.template alloc<i64>(n, "r");
      cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
      out.assign(r.raw(), r.raw() + n);
    };
  };
  auto make_spms = [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      Rng rng(321);
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::spms(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + n);
    };
  };

  auto sweep = [&](const char* label, auto make) {
    std::vector<i64> golden;
    RunOptions seq;
    seq.backend = Backend::kSeq;
    testing::engine().run(make(golden), seq);
    ASSERT_FALSE(golden.empty()) << label;
    for (Backend b : {Backend::kParNumaRandom, Backend::kParNumaPriority}) {
      for (uint32_t groups : {1u, 2u, 4u}) {
        std::vector<i64> out;
        RunOptions o;
        o.backend = b;
        o.threads = 4;
        o.numa_groups = groups;
        o.serial_below = 64;
        const RunReport r = testing::engine().run(make(out), o);
        EXPECT_EQ(out, golden)
            << label << " under " << backend_name(b) << " groups=" << groups;
        EXPECT_EQ(r.pool_groups, groups);
        EXPECT_EQ(r.pool_local_steals + r.pool_remote_steals, r.pool_steals);
      }
    }
  };
  sweep("route", make_route);
  sweep("listrank", make_lr);
  sweep("spms", make_spms);
}

}  // namespace
}  // namespace ro
