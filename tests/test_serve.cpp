// ro-serve tests: admission-control determinism, the JobSpec wire schema
// (forward compatibility, garbage rejection), the line protocol over a
// real Unix socket (malformed input must produce error lines, never
// aborts), and served-vs-one-shot metric identity.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
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
