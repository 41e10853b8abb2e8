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
#include "ro/alg/scan.h"
#include "ro/alg/sort.h"
#include "ro/alg/spms.h"
#include "ro/engine/engine.h"
#include "ro/engine/workloads.h"
#include "ro/rt/numa.h"
#include "ro/util/rng.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;

constexpr Backend kNonSeqBackends[] = {Backend::kSimPws, Backend::kSimRws,
                                       Backend::kParRandom,
                                       Backend::kParPriority};

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
    o.threads = 2;
    o.serial_below = 64;  // force real forking on the parallel backends
    const RunReport r = testing::engine().run(make(out), o);
    EXPECT_EQ(out, golden) << label << " under " << backend_name(b);
    EXPECT_EQ(r.has_sim, backend_is_sim(b));
    EXPECT_EQ(r.has_pool, backend_is_parallel(b));
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

TEST(Engine, RetiredNumaBackendNamesParseAsParBackends) {
  // The par-numa-* backends folded into par-*: 1.x specs naming them must
  // keep parsing, as the par backend with the same steal policy.
  Backend out;
  for (const char* name : {"par-numa-random", "numa-random"}) {
    ASSERT_TRUE(parse_backend(name, out)) << name;
    EXPECT_EQ(out, Backend::kParRandom) << name;
  }
  for (const char* name : {"par-numa-priority", "numa-priority"}) {
    ASSERT_TRUE(parse_backend(name, out)) << name;
    EXPECT_EQ(out, Backend::kParPriority) << name;
  }
  JobSpec spec;
  ASSERT_TRUE(jobspec_from_json(
      "{\"workload\":\"msum\",\"n\":256,\"backend\":\"par-numa-random\","
      "\"threads\":2,\"numa_groups\":2,\"numa_escape\":1.5,"
      "\"numa_pin\":1}",
      spec));
  const JobResult jr = testing::engine().submit(spec);
  ASSERT_TRUE(jr.ok()) << jr.error;
  EXPECT_EQ(jr.report.backend, Backend::kParRandom);
  EXPECT_TRUE(jr.report.has_pool);
  EXPECT_EQ(jr.report.threads, 2u);
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

TEST(Engine, SubmitRejectsHostCountsAboveTheCaps) {
  // Pool sizes and shard counts come off the wire: above the caps they
  // must come back as statuses, not abort in rt::Pool or ShardedVSpace.
  // Each is rejected before any pool or program exists.
  Engine eng;
  for (const unsigned threads : {257u, 300u}) {
    JobSpec spec = par_spec(Backend::kParRandom, threads);
    const JobResult jr = eng.submit(spec);
    EXPECT_EQ(jr.status, JobStatus::kError) << threads;
    EXPECT_NE(jr.error.find("threads"), std::string::npos) << jr.error;

    JobSpec batch;
    batch.kind = JobKind::kBatch;
    batch.workload = "msum";
    batch.n = 16;
    batch.shards = 300;
    batch.opt.backend = Backend::kSimPws;
    batch.opt.sim.replay_threads = threads;
    const JobResult bj = eng.submit(batch);
    EXPECT_EQ(bj.status, JobStatus::kError) << threads;
    EXPECT_NE(bj.error.find("replay_threads"), std::string::npos) << bj.error;
  }
  EXPECT_EQ(eng.pools_created(), 0u);

  JobSpec wide;
  wide.kind = JobKind::kBatch;
  wide.workload = "msum";
  wide.n = 16;
  wide.shards = kMaxShards + 1;
  wide.opt.backend = Backend::kSimPws;
  const JobResult wj = eng.submit(wide);
  EXPECT_EQ(wj.status, JobStatus::kError);
  EXPECT_NE(wj.error.find("shards"), std::string::npos) << wj.error;

  // At the caps themselves the checks pass (only the validation is run
  // here: a 256-thread pool is not started).
  JobSpec at_cap = par_spec(Backend::kParRandom, rt::kMaxPoolThreads);
  at_cap.kind = JobKind::kDiagnose;  // fails later, on the backend check
  const JobResult cj = eng.submit(at_cap);
  EXPECT_EQ(cj.status, JobStatus::kError);
  EXPECT_EQ(cj.error.find("threads"), std::string::npos) << cj.error;
}

TEST(Engine, SubmitRefusesAWorkloadTooLargeToAllocate) {
  // n = 2^60 used to throw std::bad_array_new_length from the workload's
  // input allocation and end the process.  Resident or streamed, in every
  // kind, it is a status now, and the same Engine serves on.
  JobSpec huge;
  std::string err;
  ASSERT_TRUE(jobspec_from_json(
      "{\"kind\":\"run\",\"workload\":\"msum\","
      "\"n\":1152921504606846976,\"backend\":\"sim-pws\"}",
      huge, &err))
      << err;
  Engine eng;
  for (const JobKind kind :
       {JobKind::kRun, JobKind::kBatch, JobKind::kDiagnose}) {
    for (const uint64_t segment : {uint64_t{0}, uint64_t{64}}) {
      JobSpec bad = huge;
      bad.kind = kind;
      bad.opt.trace.segment_tasks = segment;
      bad.opt.trace.max_resident_segments = segment > 0 ? 2 : 0;
      const JobResult jr = eng.submit(bad);
      EXPECT_EQ(jr.status, JobStatus::kError) << segment;
      EXPECT_NE(jr.error.find("n must be"), std::string::npos) << jr.error;
    }
  }
  // The cap itself passes the check (the job fails later, on the backend
  // check, so nothing of that size is built).
  JobSpec at_cap = huge;
  at_cap.n = kMaxWorkloadN;
  at_cap.kind = JobKind::kDiagnose;
  at_cap.opt.backend = Backend::kParRandom;
  const JobResult cj = eng.submit(at_cap);
  EXPECT_EQ(cj.status, JobStatus::kError);
  EXPECT_EQ(cj.error.find("n must be"), std::string::npos) << cj.error;

  JobSpec ok = huge;
  ok.n = 1 << 10;
  const JobResult jr = eng.submit(ok);
  EXPECT_TRUE(jr.ok()) << jr.error;
}

TEST(Engine, RunIsTheOneShardChain) {
  // A sim-backend run job records, analyzes and replays exactly as one
  // chain of a batch does: its report equals the aggregate of a one-shard
  // batch of the same spec, host times aside (the resident high-water of
  // a streamed store depends on when spills and replay reloads overlap).
  const auto masked = [](RunReport r) {
    r.wall_ms = 0;
    r.trace_peak_resident_bytes = 0;
    return r.to_json();
  };
  struct Case {
    uint32_t replay_threads;
    uint64_t segment_tasks;
    bool pipeline;
  };
  const Case cases[] = {
      {1, 0, false}, {2, 0, false}, {1, 64, false}, {1, 64, true}};
  Engine& eng = testing::engine();
  for (const char* wl : {"ps", "sort-spms", "counters-packed"}) {
    for (const Backend b : {Backend::kSimPws, Backend::kSimRws}) {
      for (const Case& c : cases) {
        JobSpec spec;
        spec.workload = wl;
        spec.n = 1 << 10;
        spec.opt.backend = b;
        spec.opt.label = wl;
        spec.opt.sim.M = 1 << 10;
        spec.opt.sim.B = 16;
        spec.opt.sim.replay_threads = c.replay_threads;
        spec.opt.trace.segment_tasks = c.segment_tasks;
        spec.opt.trace.max_resident_segments = 2;
        spec.opt.pipeline = c.pipeline;
        const JobResult run = eng.submit(spec);
        spec.kind = JobKind::kBatch;
        const JobResult batch = eng.submit(spec);
        const std::string what = std::string(wl) + "/" + backend_name(b) +
                                 " threads=" +
                                 std::to_string(c.replay_threads) +
                                 " segment_tasks=" +
                                 std::to_string(c.segment_tasks) +
                                 " pipeline=" + std::to_string(c.pipeline);
        ASSERT_TRUE(run.ok()) << what << ": " << run.error;
        ASSERT_TRUE(batch.ok()) << what << ": " << batch.error;
        ASSERT_EQ(batch.batch.shards, 1u) << what;
        EXPECT_EQ(run.report.has_stream, c.segment_tasks > 0) << what;
        EXPECT_EQ(masked(run.report), masked(batch.batch.aggregate)) << what;
      }
    }
  }
}

TEST(Engine, HostileStoreAndAlignmentSpecsReturnStatuses) {
  Engine eng;
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt.backend = Backend::kSimPws;
  const JobResult resident = eng.submit(spec);
  ASSERT_TRUE(resident.ok()) << resident.error;

  // A 2^40-record segment with no window never seals: the store must grow
  // its open segment like a vector, not reserve 2^40 records up front.
  JobSpec huge = spec;
  huge.opt.trace.segment_tasks = uint64_t{1} << 40;
  huge.opt.trace.max_resident_segments = 0;
  const JobResult hr = eng.submit(huge);
  ASSERT_TRUE(hr.ok()) << hr.error;
  EXPECT_EQ(hr.report.sim, resident.report.sim);
  EXPECT_EQ(hr.report.q_seq, resident.report.q_seq);
  EXPECT_EQ(hr.report.trace_segments, 1u);
  EXPECT_EQ(hr.report.trace_spilled_bytes, 0u);

  // VSpace needs a power-of-two alignment, and a job's replay memory grows
  // with it (stack chunks pad to it above 2^14 words): run, batch and
  // diagnose jobs alike get a status naming the field instead of an
  // RO_CHECK abort or an out-of-memory host.  2^14 is the largest
  // accepted.
  for (const JobKind kind :
       {JobKind::kRun, JobKind::kBatch, JobKind::kDiagnose}) {
    for (const uint64_t align :
         {uint64_t{0}, uint64_t{3}, uint64_t{1} << 15, uint64_t{1} << 33,
          uint64_t{1} << 40, uint64_t{1} << 63}) {
      JobSpec bad = spec;
      bad.kind = kind;
      bad.opt.align_words = align;
      const JobResult jr = eng.submit(bad);
      EXPECT_EQ(jr.status, JobStatus::kError) << align;
      EXPECT_NE(jr.error.find("align_words"), std::string::npos) << jr.error;
    }
    JobSpec widest = spec;
    widest.kind = kind;
    widest.opt.align_words = uint64_t{1} << 14;
    const JobResult jr = eng.submit(widest);
    EXPECT_TRUE(jr.ok()) << jr.error;
  }

  // A cache table holds at most 2^20 lines.  M = 2^32 words of B = 1 used
  // to truncate the line count to 0 and abort the process; 2^32 + 1
  // simulated a one-line cache.  An L2 partition, M2 / (p B) lines, must
  // hold between 1 and 2^20 lines.
  for (const JobKind kind :
       {JobKind::kRun, JobKind::kBatch, JobKind::kDiagnose}) {
    for (const uint64_t M : {uint64_t{1} << 32, (uint64_t{1} << 32) + 1,
                             (uint64_t{1} << 20) + 1}) {
      JobSpec bad = spec;
      bad.kind = kind;
      bad.opt.sim.M = M;
      bad.opt.sim.B = 1;
      const JobResult jr = eng.submit(bad);
      EXPECT_EQ(jr.status, JobStatus::kError) << M;
      EXPECT_NE(jr.error.find("M / B"), std::string::npos) << jr.error;
    }
    for (const uint64_t M2 :
         {uint64_t{1}, uint64_t{4 * 64 - 1}, ((uint64_t{1} << 20) + 1) * 4 * 64,
          uint64_t{1} << 40}) {
      JobSpec bad = spec;  // p = 4, B = 64
      bad.kind = kind;
      bad.opt.sim.M2 = M2;
      const JobResult jr = eng.submit(bad);
      EXPECT_EQ(jr.status, JobStatus::kError) << M2;
      EXPECT_NE(jr.error.find("M2"), std::string::npos) << jr.error;
    }
    JobSpec one_line_l2 = spec;
    one_line_l2.kind = kind;
    one_line_l2.opt.sim.M2 = 4 * 64;
    const JobResult jr = eng.submit(one_line_l2);
    EXPECT_TRUE(jr.ok()) << jr.error;
  }

  // The machine's caches together hold at most 2^22 lines, counting
  // p * (M / B) + M2 / B: p = 64 cores of 2^20 lines each would commit
  // about 1.6 GB of cache tables per job.  Refused before anything is
  // allocated, so these cost nothing to run.
  struct Machine {
    uint32_t p;
    uint64_t M, M2;
  };
  for (const JobKind kind :
       {JobKind::kRun, JobKind::kBatch, JobKind::kDiagnose}) {
    for (const Machine m : {Machine{64, uint64_t{1} << 20, 0},
                            Machine{64, (uint64_t{1} << 16) + 1, 0},
                            Machine{4, uint64_t{1} << 20, 4}}) {
      JobSpec bad = spec;
      bad.kind = kind;
      bad.opt.sim.p = m.p;
      bad.opt.sim.M = m.M;
      bad.opt.sim.M2 = m.M2;
      bad.opt.sim.B = 1;
      const JobResult jr = eng.submit(bad);
      EXPECT_EQ(jr.status, JobStatus::kError) << m.p << " " << m.M;
      EXPECT_NE(jr.error.find("2^22 lines"), std::string::npos) << jr.error;
    }
  }
}

TEST(Engine, MalformedSchemaVersionsReturnErrors) {
  // A programmatic spec's schema_version is read by the wire reader's
  // rule: "major.minor" with nothing after the minor, no newer major.
  Engine& eng = testing::engine();
  JobSpec spec;
  const AnyProg prog = make_workload("msum", 1 << 8, 0);
  for (const char* v : {"1.", "1.0x", "2.0", "x.0"}) {
    spec.schema_version = v;
    const JobResult jr = eng.submit(spec, prog);
    EXPECT_EQ(jr.status, JobStatus::kError) << v;
    EXPECT_NE(jr.error.find("schema_version"), std::string::npos) << jr.error;
  }
  spec.schema_version = "1.7";  // a newer minor of a known major
  EXPECT_TRUE(eng.submit(spec, prog).ok());
}

TEST(Engine, ResidentRunReportHasNoTraceKeys) {
  // Every recording goes through a TraceStore, but only a caller that
  // asked for chunking gets the store's statistics in its report.
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt.backend = Backend::kSimPws;
  spec.opt.pipeline = true;  // a pipelined resident run never spills
  const JobResult jr = testing::engine().submit(spec);
  ASSERT_TRUE(jr.ok()) << jr.error;
  EXPECT_FALSE(jr.report.has_stream);
  EXPECT_EQ(jr.report.to_json().find("trace_"), std::string::npos)
      << jr.report.to_json();
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

TEST(Engine, ParReportCarriesLocalityCounters) {
  const size_t n = 4096;
  auto prog = [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    for (size_t i = 0; i < n; ++i) a.raw()[i] = 1;
    auto o = cx.template alloc<i64>(1, "o");
    cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
  };
  RunOptions opt;
  opt.backend = Backend::kParPriority;
  opt.threads = 4;
  opt.serial_below = 64;
  const RunReport r = testing::engine().run(prog, opt);
  EXPECT_TRUE(r.has_pool);
  // The engine's pools group their workers by the host's NUMA nodes.
  const uint32_t groups = rt::numa_group_layout(4).groups();
  EXPECT_EQ(r.pool_groups, groups);
  EXPECT_EQ(r.pool_local_steals + r.pool_remote_steals, r.pool_steals);
  // Per-group histogram: one bucket per group, sums matching the totals.
  ASSERT_EQ(r.pool_group_local_steals.size(), groups);
  ASSERT_EQ(r.pool_group_remote_steals.size(), groups);
  uint64_t loc = 0, rem = 0;
  for (uint32_t g = 0; g < groups; ++g) {
    loc += r.pool_group_local_steals[g];
    rem += r.pool_group_remote_steals[g];
  }
  EXPECT_EQ(loc, r.pool_local_steals);
  EXPECT_EQ(rem, r.pool_remote_steals);
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"backend\":\"par-priority\""), std::string::npos);
  EXPECT_NE(j.find("\"pool_groups\":" + std::to_string(groups)),
            std::string::npos)
      << j;
  EXPECT_NE(j.find("\"pool_local_steals\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_remote_steals\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_group_local_steals\":["), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_group_remote_steals\":["), std::string::npos) << j;
  RunReport back;
  ASSERT_TRUE(report_from_json(j, back)) << j;
  EXPECT_EQ(back.to_json(), j);  // pool fields survive the round trip
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

}  // namespace
}  // namespace ro
