// ro-serve tests: admission-control determinism, the JobSpec wire schema
// (forward compatibility, garbage rejection), the byte goldens of every
// wire object, every wire parser under truncation and byte mutation
// (refusals, never aborts), the line protocol over a real Unix socket
// (malformed input must produce error lines, never aborts), escaped labels
// on the wire, and served-vs-one-shot metric identity.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ro/serve/client.h"
#include "ro/serve/server.h"
#include "test_helpers.h"

namespace ro {
namespace {

std::string temp_socket(const char* tag) {
  return "/tmp/ro-serve-test." + std::string(tag) + "." +
         std::to_string(::getpid()) + ".sock";
}

// ---- admission control ----

TEST(Admission, OverBudgetJobIsRejectedImmediatelyAndDeterministically) {
  serve::Admission::Options opt;
  opt.tenant_budget_bytes = 1000;
  serve::Admission adm(opt);
  // Rejection depends only on (estimate, budget): the same ask is
  // rejected every time, even with the machine idle, and books nothing.
  for (int i = 0; i < 3; ++i) {
    double queue_ms = -1;
    EXPECT_FALSE(adm.admit("t", 1001, &queue_ms));
    EXPECT_EQ(queue_ms, 0);  // never waited
  }
  const serve::Admission::Stats st = adm.stats();
  EXPECT_EQ(st.rejected, 3u);
  EXPECT_EQ(st.admitted, 0u);
  EXPECT_EQ(st.resident_bytes, 0u);
  // Exactly at budget fits.
  EXPECT_TRUE(adm.admit("t", 1000));
  adm.release("t", 1000);
}

TEST(Admission, OverlappingTenantJobQueuesUntilResidentDrains) {
  serve::Admission::Options opt;
  opt.tenant_budget_bytes = 1000;
  serve::Admission adm(opt);
  ASSERT_TRUE(adm.admit("t", 800));
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    double queue_ms = 0;
    // Fits the budget, not the residue: must wait, and say for how long.
    EXPECT_TRUE(adm.admit("t", 800, &queue_ms));
    EXPECT_GT(queue_ms, 0);
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());  // still queued behind the first job
  adm.release("t", 800);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  const serve::Admission::Stats st = adm.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.queued, 1u);
  adm.release("t", 800);
  EXPECT_EQ(adm.stats().resident_bytes, 0u);
}

TEST(Admission, BudgetIsPerTenantAndInflightIsGlobal) {
  serve::Admission::Options opt;
  opt.max_inflight = 2;
  opt.tenant_budget_bytes = 1000;
  serve::Admission adm(opt);
  ASSERT_TRUE(adm.admit("a", 900));
  ASSERT_TRUE(adm.admit("b", 900));  // different tenant: own budget
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    EXPECT_TRUE(adm.admit("c", 100));  // fits every budget, but inflight=2
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  adm.release("a", 900);
  waiter.join();
  EXPECT_EQ(adm.stats().inflight_peak, 2u);
  adm.release("b", 900);
  adm.release("c", 100);
}

TEST(Admission, ShutdownWakesQueuedWaitersAndFailsFast) {
  serve::Admission::Options opt;
  opt.max_inflight = 1;
  serve::Admission adm(opt);
  ASSERT_TRUE(adm.admit("a", 10));
  std::atomic<bool> refused{false};
  std::thread waiter([&] {
    // Queued behind the in-flight job; shutdown() must wake it with a
    // refusal instead of making it wait for the job to drain.
    EXPECT_FALSE(adm.admit("b", 10));
    refused.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(refused.load());  // genuinely queued
  adm.shutdown();
  waiter.join();
  EXPECT_TRUE(refused.load());
  EXPECT_TRUE(adm.shutting_down());
  EXPECT_FALSE(adm.admit("c", 10));  // refused immediately from now on
  const serve::Admission::Stats st = adm.stats();
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_EQ(st.rejected, 0u);  // shutdown refusals are not "rejected"
  adm.release("a", 10);        // admitted work still balances the books
  EXPECT_EQ(adm.stats().resident_bytes, 0u);
}

TEST(Admission, EstimateSaturatesInsteadOfWrapping) {
  // Wire-controlled factors must not wrap uint64 into a tiny estimate
  // that slips an over-budget job past admission.
  JobSpec s;
  s.workload = "msum";
  s.shards = 0xffffffffu;
  s.opt.trace.segment_tasks = uint64_t{1} << 60;
  s.opt.trace.max_resident_segments = 0xffffffffu;
  EXPECT_EQ(serve::estimate_job_bytes(s),
            std::numeric_limits<uint64_t>::max());
  serve::Admission::Options opt;
  opt.tenant_budget_bytes = uint64_t{1} << 40;  // generous, still finite
  serve::Admission adm(opt);
  EXPECT_FALSE(adm.admit("t", serve::estimate_job_bytes(s)));
  EXPECT_EQ(adm.stats().rejected, 1u);
  // The classic (non-streaming) path saturates too.
  s.opt.trace.segment_tasks = 0;
  s.n = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(serve::estimate_job_bytes(s),
            std::numeric_limits<uint64_t>::max());
}

TEST(Admission, EstimateIsDeterministicAndMonotone) {
  JobSpec s;
  s.workload = "msum";
  s.n = 1 << 12;
  const uint64_t e1 = serve::estimate_job_bytes(s);
  EXPECT_EQ(e1, serve::estimate_job_bytes(s));  // same spec, same number
  s.n = 1 << 13;
  EXPECT_GT(serve::estimate_job_bytes(s), e1);
  s.shards = 4;
  const uint64_t e_classic = serve::estimate_job_bytes(s);
  EXPECT_EQ(e_classic, 4 * serve::estimate_job_bytes([&] {
              JobSpec one = s;
              one.shards = 1;
              return one;
            }()));
  // Streaming caps the estimate at the resident window, not the trace.
  s.opt.trace.segment_tasks = 256;
  s.opt.trace.max_resident_segments = 2;
  EXPECT_LT(serve::estimate_job_bytes(s), e_classic);
}

// ---- JobSpec wire schema ----

TEST(JobSchema, NewerMinorWithUnknownKeysParses) {
  JobSpec base;
  base.workload = "msum";
  base.tenant = "t";
  std::string j = base.to_json();
  // A future 1.x writer: bumped minor, an extra key this build ignores.
  ASSERT_NE(j.find("\"schema_version\":\"1.0\""), std::string::npos);
  j.replace(j.find("\"1.0\""), 5, "\"1.7\"");
  j.insert(j.size() - 1, ",\"future_knob\":42,\"future_obj\":{\"x\":[1,2]}");
  JobSpec out;
  std::string err;
  EXPECT_TRUE(jobspec_from_json(j, out, &err)) << err;
  EXPECT_EQ(out.workload, "msum");
  EXPECT_EQ(out.tenant, "t");
  EXPECT_EQ(out.schema_version, "1.7");  // echoed, not rewritten
}

TEST(JobSchema, RetiredFlatLruKeyStillParses) {
  // Specs from before the single cache plane may still send "flat_lru".
  // The key is skipped like any unknown key, is not written back, and the
  // job runs exactly as it would without it.
  JobSpec old;
  std::string err;
  ASSERT_TRUE(jobspec_from_json(
      "{\"workload\":\"msum\",\"n\":1024,\"backend\":\"sim-pws\","
      "\"flat_lru\":0}",
      old, &err))
      << err;
  EXPECT_EQ(old.to_json().find("flat_lru"), std::string::npos);
  JobSpec plain;
  ASSERT_TRUE(jobspec_from_json(
      "{\"workload\":\"msum\",\"n\":1024,\"backend\":\"sim-pws\"}",
      plain, &err))
      << err;
  EXPECT_EQ(old.to_json(), plain.to_json());
  const JobResult a = ro::testing::engine().submit(old);
  const JobResult b = ro::testing::engine().submit(plain);
  ASSERT_TRUE(a.ok() && b.ok()) << a.error << b.error;
  EXPECT_EQ(a.report.sim, b.report.sim);
}

TEST(JobSchema, NewerMajorIsRejectedWithReason) {
  JobSpec base;
  std::string j = base.to_json();
  j.replace(j.find("\"1.0\""), 5, "\"2.0\"");
  JobSpec out;
  std::string err;
  EXPECT_FALSE(jobspec_from_json(j, out, &err));
  EXPECT_NE(err.find("schema"), std::string::npos) << err;
}

TEST(JobSchema, JobResultOfANewerMajorIsRefused) {
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 8;
  spec.opt.backend = Backend::kSimPws;
  const JobResult jr = ro::testing::engine().submit(spec);
  ASSERT_TRUE(jr.ok()) << jr.error;
  const std::string j = jr.to_json();
  const size_t at = j.find("\"1.0\"");
  ASSERT_NE(at, std::string::npos) << j;
  for (const char* v : {"\"9.0\"", "\"2.0\"", "\"x.0\""}) {
    std::string newer = j;
    newer.replace(at, 5, v);
    JobResult back;
    EXPECT_FALSE(jobresult_from_json(newer, back)) << v;
  }
  std::string minor = j;  // a newer minor of a known major still reads
  minor.replace(at, 5, "\"1.7\"");
  JobResult back;
  ASSERT_TRUE(jobresult_from_json(minor, back));
  EXPECT_EQ(back.to_json(), j);
}

TEST(JobSchema, MalformedSpecJsonIsRejectedNotMisread) {
  JobSpec out;
  EXPECT_FALSE(jobspec_from_json("not json at all", out));
  EXPECT_FALSE(jobspec_from_json("{\"workload\":", out));
  EXPECT_FALSE(jobspec_from_json("", out));
}

TEST(JobSchema, JobResultRoundTrips) {
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt.backend = Backend::kSimPws;
  spec.opt.label = "rt";
  JobResult jr = ro::testing::engine().submit(spec);
  ASSERT_TRUE(jr.ok()) << jr.error;
  JobResult back;
  ASSERT_TRUE(jobresult_from_json(jr.to_json(), back));
  EXPECT_EQ(back.to_json(), jr.to_json());
}

TEST(JobSchema, BatchReportRoundTrips) {
  JobSpec spec;
  spec.kind = JobKind::kBatch;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.shards = 2;
  spec.opt.backend = Backend::kSimPws;
  spec.opt.label = "rt-batch";
  spec.opt.capacity_shared = true;
  JobResult jr = ro::testing::engine().submit(spec);
  ASSERT_TRUE(jr.ok()) << jr.error;
  ASSERT_TRUE(jr.has_batch);
  BatchReport back;
  ASSERT_TRUE(batch_from_json(jr.batch.to_json(), back));
  EXPECT_EQ(back.to_json(), jr.batch.to_json());
  EXPECT_TRUE(back.capacity_shared);
}

// ---- wire byte goldens ----
//
// The exact to_json bytes of every wire object, with every optional part
// present where the object has one: a client reading these never sees a
// change of key order, number format or omission rule.  The objects are
// built by hand, so the goldens pin the codecs, not the simulator.  Each
// golden also reads back into the same bytes.

RunReport every_section_report() {
  RunReport r;
  r.label = "wire \"golden\"\\";
  r.backend = Backend::kSimRws;
  r.wall_ms = 12.5;
  r.has_graph = true;
  r.graph = GraphStats{101, 23, 7, 15, 64, 8};
  r.has_sim = true;
  r.p = 4;
  r.M = 4096;
  r.B = 32;
  CoreMetrics c;
  c.compute = 106;
  c.miss[0][static_cast<int>(MissClass::kCold)] = 5;
  c.miss[0][static_cast<int>(MissClass::kCapacity)] = 2;
  c.miss[0][static_cast<int>(MissClass::kCoherence)] = 1;
  c.miss[1][static_cast<int>(MissClass::kCold)] = 3;
  c.miss[1][static_cast<int>(MissClass::kCapacity)] = 1;
  c.miss[1][static_cast<int>(MissClass::kCoherence)] = 2;
  c.steals = 4;
  c.steal_attempts = 14;
  c.usurpations = 3;
  c.idle = 960;
  c.steal_cycles = 1344;
  c.finish = 439;
  c.l2_hits = 6;
  c.hold_waits = 11;
  r.sim.core = {c, c};
  r.sim.makespan = 439;
  r.sim.total_block_transfers = 7;
  r.sim.max_block_transfers = 2;
  r.sim.stack_words = 85959;
  r.has_baseline = true;
  r.q_seq = 3;
  r.seq_makespan = 202;
  r.cache_excess = 19;
  r.has_pool = true;
  r.threads = 4;
  r.pool_steals = 9;
  r.pool_failed_steals = 3;
  r.pool_groups = 2;
  r.pool_local_steals = 5;
  r.pool_remote_steals = 4;
  r.pool_group_local_steals = {3, 2};
  r.pool_group_remote_steals = {1, 3};
  r.has_contention = true;
  r.fs_false_events = 3;
  r.fs_true_events = 1;
  r.fs_hot_lines = 2;
  r.has_tenant = true;
  r.tenant = "t1";
  r.tenant_compute = 50;
  r.tenant_cache_misses = 6;
  r.tenant_block_misses = 2;
  r.tenant_transfers = 3;
  r.has_stream = true;
  r.trace_segments = 5;
  r.trace_spilled_bytes = 4096;
  r.trace_compressed_bytes = 1000;
  r.trace_peak_resident_bytes = 2048;
  return r;
}

constexpr char kEverySectionReport[] =
    "{\"label\":\"wire \\\"golden\\\"\\\\\",\"backend\":\"sim-rws\","
    "\"wall_ms\":12.5000,\"work\":101,\"span\":23,\"max_depth\":7,"
    "\"activations\":15,\"accesses\":64,\"leaves\":8,\"p\":4,\"M\":4096,"
    "\"B\":32,\"makespan\":439,\"compute\":212,\"cache_misses\":22,"
    "\"block_misses\":6,\"stack_misses\":12,\"steals\":8,"
    "\"steal_attempts\":28,\"steal_cycles\":2688,\"usurpations\":6,"
    "\"idle\":1920,\"l2_hits\":12,\"hold_waits\":22,"
    "\"total_block_transfers\":7,\"max_block_transfers\":2,"
    "\"stack_words\":85959,\"q_seq\":3,\"seq_makespan\":202,"
    "\"cache_excess\":19,\"sim_speedup\":0.4601,\"threads\":4,"
    "\"pool_steals\":9,\"pool_failed_steals\":3,\"pool_groups\":2,"
    "\"pool_local_steals\":5,\"pool_remote_steals\":4,"
    "\"pool_group_local_steals\":[3,2],\"pool_group_remote_steals\":[1,3],"
    "\"fs_false_events\":3,\"fs_true_events\":1,\"fs_hot_lines\":2,"
    "\"tenant\":\"t1\",\"tenant_compute\":50,\"tenant_cache_misses\":6,"
    "\"tenant_block_misses\":2,\"tenant_transfers\":3,\"trace_segments\":5,"
    "\"trace_spilled_bytes\":4096,\"trace_compressed_bytes\":1000,"
    "\"trace_peak_resident_bytes\":2048,\"trace_compression_ratio\":4.0960}";

TEST(WireBytes, JobSpecWithDefaultFieldsMatchesGolden) {
  const char* golden =
      "{\"schema_version\":\"1.0\",\"tenant\":\"\",\"kind\":\"run\","
      "\"workload\":\"\",\"n\":4096,\"seed\":0,\"shards\":1,"
      "\"backend\":\"seq\",\"p\":4,\"M\":16384,\"B\":64,\"miss_latency\":32,"
      "\"steal_latency\":0,\"sim_seed\":24301,\"M2\":0,\"l2_latency\":8,"
      "\"write_hold\":0,\"replay_threads\":1,\"padded\":0,"
      "\"align_words\":4096,\"seq_baseline\":1,\"pipeline\":0,"
      "\"capacity_shared\":0,\"segment_tasks\":0,\"max_resident_segments\":4,"
      "\"compress\":1,\"threads\":0,\"serial_below\":4096,"
      "\"doc_max_lines\":64,\"doc_min_false_events\":1}";
  EXPECT_EQ(JobSpec{}.to_json(), golden);
  JobSpec back;
  std::string err;
  ASSERT_TRUE(jobspec_from_json(golden, back, &err)) << err;
  EXPECT_EQ(back.to_json(), golden);
}

TEST(WireBytes, JobSpecWithEveryFieldSetMatchesGolden) {
  JobSpec s;
  s.schema_version = "1.3";
  s.tenant = "tenant-a";
  s.tag = "tag \"7\"";
  s.kind = JobKind::kDiagnose;
  s.workload = "sort-spms";
  s.n = 1 << 14;
  s.seed = 9;
  s.shards = 3;
  s.opt.backend = Backend::kSimRws;
  s.opt.label = "every-field";
  s.opt.sim.p = 8;
  s.opt.sim.M = 1 << 12;
  s.opt.sim.B = 16;
  s.opt.sim.miss_latency = 40;
  s.opt.sim.steal_latency = 100;
  s.opt.sim.seed = 77;
  s.opt.sim.M2 = 1 << 16;
  s.opt.sim.l2_latency = 6;
  s.opt.sim.write_hold = 5;
  s.opt.sim.replay_threads = 2;
  s.opt.padded = true;
  s.opt.align_words = 64;
  s.opt.seq_baseline = false;
  s.opt.pipeline = true;
  s.opt.capacity_shared = true;
  s.opt.trace.segment_tasks = 256;
  s.opt.trace.max_resident_segments = 2;
  s.opt.trace.compress = false;
  s.opt.threads = 3;
  s.opt.serial_below = 512;
  s.doc.max_lines = 16;
  s.doc.min_false_events = 2;
  alg::SpmsTuning t;
  t.merge_base = 40;
  t.merge2_min = 2000;
  t.stride_mul = 5;
  t.seq_cap_div = 3;
  t.stride_per_seq = 12;
  t.multisearch_leaf = 50;
  t.sample_sort_seq = 300;
  t.machinery_min = 4000;
  t.kernels = false;
  s.opt.spms = t;
  const char* golden =
      "{\"schema_version\":\"1.3\",\"tenant\":\"tenant-a\","
      "\"tag\":\"tag \\\"7\\\"\",\"kind\":\"diagnose\","
      "\"workload\":\"sort-spms\",\"n\":16384,\"seed\":9,\"shards\":3,"
      "\"backend\":\"sim-rws\",\"label\":\"every-field\",\"p\":8,\"M\":4096,"
      "\"B\":16,\"miss_latency\":40,\"steal_latency\":100,\"sim_seed\":77,"
      "\"M2\":65536,\"l2_latency\":6,\"write_hold\":5,\"replay_threads\":2,"
      "\"padded\":1,\"align_words\":64,\"seq_baseline\":0,\"pipeline\":1,"
      "\"capacity_shared\":1,\"segment_tasks\":256,"
      "\"max_resident_segments\":2,\"compress\":0,\"threads\":3,"
      "\"serial_below\":512,\"doc_max_lines\":16,\"doc_min_false_events\":2,"
      "\"spms\":{\"merge_base\":40,\"merge2_min\":2000,\"stride_mul\":5,"
      "\"seq_cap_div\":3,\"stride_per_seq\":12,\"multisearch_leaf\":50,"
      "\"sample_sort_seq\":300,\"machinery_min\":4000,\"kernels\":0}}";
  EXPECT_EQ(s.to_json(), golden);
  JobSpec back;
  std::string err;
  ASSERT_TRUE(jobspec_from_json(golden, back, &err)) << err;
  EXPECT_EQ(back.to_json(), golden);
  EXPECT_EQ(back.opt.spms, s.opt.spms);
}

TEST(WireBytes, RunReportWithEverySectionMatchesGolden) {
  EXPECT_EQ(every_section_report().to_json(), kEverySectionReport);
  RunReport back;
  ASSERT_TRUE(report_from_json(kEverySectionReport, back));
  EXPECT_EQ(back.to_json(), kEverySectionReport);
}

TEST(WireBytes, BatchReportMatchesGolden) {
  BatchReport b;
  b.label = "batch";
  b.backend = Backend::kSimPws;
  b.shards = 2;
  b.replay_threads = 0;
  b.pipelined = true;
  b.capacity_shared = true;
  b.wall_ms = 3.25;
  b.record_ms = 1.5;
  b.replay_ms = 1.0625;
  b.aggregate = every_section_report();
  RunReport shard;
  shard.label = "batch#0";
  shard.backend = Backend::kSimPws;
  shard.has_tenant = true;
  shard.tenant = "t0";
  shard.tenant_compute = 17;
  b.runs = {shard, shard};
  b.runs[1].label = "batch#1";
  const std::string golden =
      "{\"label\":\"batch\",\"backend\":\"sim-pws\",\"shards\":2,"
      "\"replay_threads\":0,\"pipelined\":1,\"capacity_shared\":1,"
      "\"wall_ms\":3.2500,\"record_ms\":1.5000,\"replay_ms\":1.0625,"
      "\"aggregate\":" +
      std::string(kEverySectionReport) +
      ",\"runs\":[{\"label\":\"batch#0\",\"backend\":\"sim-pws\","
      "\"wall_ms\":0.0000,\"tenant\":\"t0\",\"tenant_compute\":17,"
      "\"tenant_cache_misses\":0,\"tenant_block_misses\":0,"
      "\"tenant_transfers\":0},{\"label\":\"batch#1\","
      "\"backend\":\"sim-pws\",\"wall_ms\":0.0000,\"tenant\":\"t0\","
      "\"tenant_compute\":17,\"tenant_cache_misses\":0,"
      "\"tenant_block_misses\":0,\"tenant_transfers\":0}]}";
  EXPECT_EQ(b.to_json(), golden);
  BatchReport back;
  ASSERT_TRUE(batch_from_json(golden, back));
  EXPECT_EQ(back.to_json(), golden);
}

TEST(WireBytes, OkJobResultMatchesGolden) {
  JobResult jr;
  jr.job_id = 42;
  jr.tenant = "tenant-a";
  jr.tag = "t-42";
  jr.kind = JobKind::kRun;
  jr.queue_ms = 0.5;
  jr.exec_ms = 2.75;
  jr.report = every_section_report();
  const std::string golden =
      "{\"schema_version\":\"1.0\",\"job_id\":42,\"tenant\":\"tenant-a\","
      "\"tag\":\"t-42\",\"kind\":\"run\",\"status\":\"ok\","
      "\"queue_ms\":0.5000,\"exec_ms\":2.7500,\"report\":" +
      std::string(kEverySectionReport) + "}";
  EXPECT_EQ(jr.to_json(), golden);
  JobResult back;
  ASSERT_TRUE(jobresult_from_json(golden, back));
  EXPECT_EQ(back.to_json(), golden);
}

TEST(WireBytes, RejectedJobResultMatchesGolden) {
  JobResult jr;
  jr.job_id = 43;
  jr.tenant = "tenant-b";
  jr.kind = JobKind::kBatch;
  jr.status = JobStatus::kRejected;
  jr.error = "over budget: \"tenant-b\"";
  const char* golden =
      "{\"schema_version\":\"1.0\",\"job_id\":43,\"tenant\":\"tenant-b\","
      "\"kind\":\"batch\",\"status\":\"rejected\","
      "\"error\":\"over budget: \\\"tenant-b\\\"\",\"queue_ms\":0.0000,"
      "\"exec_ms\":0.0000}";
  EXPECT_EQ(jr.to_json(), golden);
  JobResult back;
  ASSERT_TRUE(jobresult_from_json(golden, back));
  EXPECT_EQ(back.to_json(), golden);
}

// ---- wire parsers under mutation ----

TEST(WireParsers, TruncatedAndMutatedMessagesAreRefusedNotFatal) {
  // Every reader the wire feeds gets every proper prefix of a real message
  // and a seeded sample of single-byte substitutions drawn from the JSON
  // structural bytes.  Each call must return: true or false, never an
  // abort or a spin.  Host times are zeroed so the inputs are fixed.
  JobSpec spec;
  spec.tenant = "t";
  spec.tag = "tag";
  spec.workload = "sort-spms";
  spec.opt.label = "spec";
  spec.opt.spms = alg::SpmsTuning{};

  JobSpec diag;
  diag.kind = JobKind::kDiagnose;
  diag.workload = "counters-packed";
  diag.n = 16;
  diag.opt.backend = Backend::kSimPws;
  diag.opt.label = "diag";
  JobResult dr = ro::testing::engine().submit(diag);
  ASSERT_TRUE(dr.ok() && dr.has_doctor) << dr.error;
  ASSERT_TRUE(dr.doctor.has_after);
  dr.queue_ms = dr.exec_ms = 0;
  dr.doctor.before.wall_ms = dr.doctor.after.wall_ms = 0;

  JobSpec batch;
  batch.kind = JobKind::kBatch;
  batch.workload = "msum";
  batch.n = 1 << 8;
  batch.shards = 2;
  batch.opt.backend = Backend::kSimPws;
  batch.opt.label = "batch";
  JobResult br = ro::testing::engine().submit(batch);
  ASSERT_TRUE(br.ok() && br.has_batch) << br.error;
  br.queue_ms = br.exec_ms = 0;
  br.batch.wall_ms = br.batch.record_ms = br.batch.replay_ms = 0;
  br.batch.aggregate.wall_ms = 0;
  for (RunReport& r : br.batch.runs) r.wall_ms = 0;

  using Parser = std::function<bool(const std::string&)>;
  const Parser spec_reader = [](const std::string& j) {
    JobSpec o;
    return jobspec_from_json(j, o);
  };
  const Parser result_reader = [](const std::string& j) {
    JobResult o;
    return jobresult_from_json(j, o);
  };
  const Parser report_reader = [](const std::string& j) {
    RunReport o;
    return report_from_json(j, o);
  };
  const Parser batch_reader = [](const std::string& j) {
    BatchReport o;
    return batch_from_json(j, o);
  };
  const Parser doctor_reader = [](const std::string& j) {
    doctor::DoctorReport o;
    return doctor::doctor_report_from_json(j, o);
  };
  const std::pair<Parser, std::string> cases[] = {
      {spec_reader, spec.to_json()},
      {result_reader, dr.to_json()},
      {result_reader, br.to_json()},
      {report_reader, dr.doctor.before.to_json()},
      {batch_reader, br.batch.to_json()},
      {doctor_reader, dr.doctor.to_json()},
  };
  constexpr char kBytes[] = "\"{}[],:\\-0";
  constexpr int kMutationsPerCase = 400;
  std::mt19937_64 rng(0x5eed);
  for (const auto& [parse, msg] : cases) {
    ASSERT_TRUE(parse(msg)) << msg;
    // The closing brace is the only top-level '}', so no proper prefix is
    // a complete object.
    for (size_t len = 0; len < msg.size(); ++len) {
      EXPECT_FALSE(parse(msg.substr(0, len))) << msg.substr(0, len);
    }
    for (int k = 0; k < kMutationsPerCase; ++k) {
      std::string m = msg;
      m[rng() % m.size()] = kBytes[rng() % (sizeof kBytes - 1)];
      parse(m);
    }
  }
}

// ---- the wire protocol ----

class ServeSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::Server::Options opt;
    opt.socket_path = temp_socket(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    opt.admission.max_inflight = 2;
    server_ = std::make_unique<serve::Server>(opt);
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeSocketTest, GarbageLinesGetErrorResultsAndTheConnectionLives) {
  serve::Client c;
  ASSERT_TRUE(c.connect(server_->socket_path()));
  const char* garbage[] = {
      "this is not json",
      "{\"op\":\"submit\"}",                       // no spec
      "{\"op\":\"submit\",\"spec\":\"nope\"}",     // spec not an object
      "{\"op\":\"launch-missiles\"}",              // unknown op
      "{\"op\":\"submit\",\"spec\":{\"workload\":\"no-such\"}}",
      "{\"op\":\"submit\",\"spec\":{\"schema_version\":\"9.0\"}}",
      "{\"op\":\"submit\",\"spec\":{\"workload\":\"msum\",\"p\":\"0\"}}",
  };
  for (const char* line : garbage) {
    std::string reply;
    ASSERT_TRUE(c.exchange(line, reply)) << line;
    JobResult jr;
    ASSERT_TRUE(jobresult_from_json(reply, jr)) << reply;
    EXPECT_FALSE(jr.ok()) << line;
    EXPECT_FALSE(jr.error.empty()) << line;
  }
  // After all that abuse, the same connection still serves a real job.
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt.backend = Backend::kSimPws;
  JobResult jr;
  ASSERT_TRUE(c.submit(spec, jr));
  EXPECT_TRUE(jr.ok()) << jr.error;
  EXPECT_TRUE(jr.report.has_sim);
}

TEST_F(ServeSocketTest, DaemonServesOnAfterHostileStoreAndAlignmentSpecs) {
  // Specs that used to abort the whole daemon: a 2^40-record unwindowed
  // trace segment (an up-front reserve threw bad_alloc), alignments
  // VSpace cannot use (an RO_CHECK) and a streamed n = 2^60 (admission
  // sizes a streamed job by its window, so it reached the input
  // allocation, which threw).  Each gets its status, and the next job on
  // the same connection is still answered.
  JobSpec ok;
  ok.workload = "msum";
  ok.n = 1 << 10;
  ok.opt.backend = Backend::kSimPws;
  JobSpec huge = ok;
  huge.opt.trace.segment_tasks = uint64_t{1} << 40;
  huge.opt.trace.max_resident_segments = 0;
  JobSpec align0 = ok;
  align0.opt.align_words = 0;
  JobSpec align3 = ok;
  align3.opt.align_words = 3;
  JobSpec huge_n = ok;
  huge_n.n = uint64_t{1} << 60;
  huge_n.opt.trace.segment_tasks = 64;
  huge_n.opt.trace.max_resident_segments = 2;
  serve::Client c;
  ASSERT_TRUE(c.connect(server_->socket_path()));
  const std::pair<JobSpec, bool> cases[] = {
      {huge, true}, {align0, false}, {align3, false}, {huge_n, false}};
  for (const auto& [hostile, served] : cases) {
    JobResult jr;
    ASSERT_TRUE(c.submit(hostile, jr));
    EXPECT_EQ(jr.ok(), served) << jr.error;
    JobResult next;
    ASSERT_TRUE(c.submit(ok, next));
    EXPECT_TRUE(next.ok()) << next.error;
  }
}

TEST_F(ServeSocketTest, OversizedLineEndsOnlyThatConnection) {
  serve::Client abuser;
  ASSERT_TRUE(abuser.connect(server_->socket_path()));
  std::string huge(serve::kMaxLineBytes + 2, 'x');  // no newline anywhere
  std::string reply;
  EXPECT_FALSE(abuser.exchange(huge, reply));  // server hangs up
  serve::Client c;  // a fresh connection is unaffected
  ASSERT_TRUE(c.connect(server_->socket_path()));
  serve::Admission::Stats st;
  EXPECT_TRUE(c.stats(st));
}

TEST_F(ServeSocketTest, ServedMetricsMatchOneShotSubmit) {
  JobSpec spec;
  spec.tenant = "parity";
  spec.workload = "sort";
  spec.n = 1 << 11;
  spec.opt.backend = Backend::kSimPws;
  spec.opt.label = "parity";
  const JobResult golden = ro::testing::engine().submit(spec);
  ASSERT_TRUE(golden.ok()) << golden.error;
  serve::Client c;
  ASSERT_TRUE(c.connect(server_->socket_path()));
  JobResult jr;
  ASSERT_TRUE(c.submit(spec, jr));
  ASSERT_TRUE(jr.ok()) << jr.error;
  EXPECT_EQ(jr.report.sim.makespan, golden.report.sim.makespan);
  EXPECT_EQ(jr.report.sim.cache_misses(), golden.report.sim.cache_misses());
  EXPECT_EQ(jr.report.sim.block_misses(), golden.report.sim.block_misses());
  EXPECT_EQ(jr.report.sim.steals(), golden.report.sim.steals());
  EXPECT_EQ(jr.report.q_seq, golden.report.q_seq);
}

TEST_F(ServeSocketTest, DiagnoseLabelNeedingEscapesRoundTrips) {
  // Quotes, backslashes and braces in a label are escaped on the way out
  // and restored on the way in; the reply's findings are untouched.
  JobSpec spec;
  spec.kind = JobKind::kDiagnose;
  spec.workload = "counters-packed";
  spec.n = 16;
  spec.opt.backend = Backend::kSimPws;
  spec.opt.label = "quo\"te\\slash}{";
  const JobResult golden = ro::testing::engine().submit(spec);
  ASSERT_TRUE(golden.ok()) << golden.error;
  serve::Client c;
  ASSERT_TRUE(c.connect(server_->socket_path()));
  JobResult jr;
  ASSERT_TRUE(c.submit(spec, jr));
  ASSERT_TRUE(jr.ok()) << jr.error;
  ASSERT_TRUE(jr.has_doctor);
  EXPECT_EQ(jr.doctor.label, spec.opt.label);
  EXPECT_EQ(jr.doctor.before.label, spec.opt.label);
  EXPECT_FALSE(jr.doctor.findings.empty());
  EXPECT_EQ(jr.doctor.findings, golden.doctor.findings);
  EXPECT_EQ(jr.doctor.plan, golden.doctor.plan);
}

TEST_F(ServeSocketTest, ShutdownOpStopsTheServer) {
  serve::Client c;
  ASSERT_TRUE(c.connect(server_->socket_path()));
  EXPECT_TRUE(c.shutdown());
  // The accept loop is down: poll until new connections fail (the listener
  // teardown races the ack by design — stop() does the final join).
  bool refused = false;
  for (int i = 0; i < 100 && !refused; ++i) {
    serve::Client probe;
    refused = !probe.connect(server_->socket_path());
    if (!refused)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(refused);
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeSocketTest, StopReturnsWhileClientsSitIdleOnOpenConnections) {
  // The high-severity hang: a client that keeps its connection open but
  // sends nothing leaves the serving thread blocked in read().  stop()
  // must shut those fds down and join promptly, not wait forever.
  serve::Client idle1, idle2;
  ASSERT_TRUE(idle1.connect(server_->socket_path()));
  ASSERT_TRUE(idle2.connect(server_->socket_path()));
  serve::Admission::Stats st;
  ASSERT_TRUE(idle1.stats(st));  // both connections are live and served...
  ASSERT_TRUE(idle2.stats(st));  // ...and now sit idle in the server read
  server_->stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeSocketTest, ShutdownOpWorksWhileAnotherClientIsIdle) {
  serve::Client idle;
  ASSERT_TRUE(idle.connect(server_->socket_path()));
  serve::Admission::Stats st;
  ASSERT_TRUE(idle.stats(st));
  serve::Client c;
  ASSERT_TRUE(c.connect(server_->socket_path()));
  EXPECT_TRUE(c.shutdown());
  server_->stop();  // joins the idle connection without draining anything
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeSocketTest, FinishedConnectionsAreReapedNotAccumulated) {
  for (int i = 0; i < 8; ++i) {
    serve::Client c;
    ASSERT_TRUE(c.connect(server_->socket_path()));
    serve::Admission::Stats st;
    ASSERT_TRUE(c.stats(st));
  }  // each client hangs up here
  // New accepts prune finished connections, so the tracked set shrinks
  // back to roughly the live probes instead of growing per connection
  // served.  Disconnect detection is asynchronous: poll.
  size_t open = 1000;
  for (int i = 0; i < 200 && open > 2; ++i) {
    serve::Client probe;
    ASSERT_TRUE(probe.connect(server_->socket_path()));
    serve::Admission::Stats st;
    ASSERT_TRUE(probe.stats(st));
    probe.close();
    open = server_->open_connections();
    if (open > 2) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(open, 2u);
}

TEST(ServeBudget, OverBudgetTenantGetsDeterministicRejectionLine) {
  serve::Server::Options opt;
  opt.socket_path = temp_socket("budget");
  opt.admission.tenant_budget_bytes = 1024;  // way below any real job
  serve::Server server(opt);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  JobSpec spec;
  spec.tenant = "greedy";
  spec.workload = "msum";
  spec.n = 1 << 14;
  spec.opt.backend = Backend::kSimPws;
  serve::Client c;
  ASSERT_TRUE(c.connect(server.socket_path()));
  for (int i = 0; i < 2; ++i) {  // the same ask, the same answer
    JobResult jr;
    ASSERT_TRUE(c.submit(spec, jr));
    EXPECT_EQ(jr.status, JobStatus::kRejected);
    EXPECT_NE(jr.error.find("budget"), std::string::npos) << jr.error;
    EXPECT_EQ(jr.queue_ms, 0);  // rejected before any waiting
  }
  const serve::Admission::Stats st = server.admission_stats();
  EXPECT_EQ(st.rejected, 2u);
  EXPECT_EQ(st.admitted, 0u);
  server.stop();
}

}  // namespace
}  // namespace ro
