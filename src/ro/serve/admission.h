// Admission control for the ro-serve daemon (docs/serve.md).
//
// Two bounded resources gate a job into the engine:
//
//   1. In-flight jobs: at most `max_inflight` execute at once — the
//      engine's real concurrency (pool siblings, replay threads) is
//      bounded by what admission lets through, not by client count.
//   2. Resident trace bytes per tenant: every job carries a deterministic
//      upfront estimate of the trace memory it will keep resident
//      (estimate_job_bytes).  A tenant whose estimate alone exceeds its
//      budget is REJECTED immediately — deterministically, before any
//      work — while a job that fits but would overlap its tenant's other
//      resident jobs QUEUES until they drain.
//
// The controller is engine-agnostic and lock-based (admission is off the
// hot path); the serve::Server wraps every Engine::submit in an
// admit/release pair.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <condition_variable>
#include <string>

#include "ro/engine/job.h"

namespace ro::serve {

/// Deterministic upfront estimate of the trace bytes a job keeps resident
/// while executing.  Streaming recordings are bounded by their resident
/// window per shard; classic recordings hold the whole trace, modelled as
/// a fixed byte cost per workload element per shard.  The estimate is a
/// *policy input*, not a measurement: the same spec always produces the
/// same number, which is what makes admission decisions reproducible.
uint64_t estimate_job_bytes(const JobSpec& spec);

class Admission {
 public:
  struct Options {
    uint32_t max_inflight = 4;          // concurrent jobs across all tenants
    uint64_t tenant_budget_bytes = 0;   // resident budget per tenant;
                                        // 0 = unbounded
  };

  struct Stats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t queued = 0;        // admissions that had to wait
    uint32_t inflight = 0;
    uint32_t inflight_peak = 0;
    uint64_t resident_bytes = 0;  // sum over tenants, currently admitted
  };

  explicit Admission(const Options& opt) : opt_(opt) {}

  /// Blocks until the job may run, then books its resources.  Returns
  /// false — immediately, never after waiting — when the estimate alone
  /// exceeds the tenant budget; `queue_ms`, when non-null, receives the
  /// time spent waiting.  A rejected job books nothing.
  bool admit(const std::string& tenant, uint64_t bytes,
             double* queue_ms = nullptr);

  /// Returns an admitted job's resources and wakes waiters.
  void release(const std::string& tenant, uint64_t bytes);

  /// Makes every queued and future admit() return false immediately and
  /// wakes all waiters, so server teardown never has to drain in-flight
  /// jobs before queued connections can exit.  Shutdown refusals are not
  /// counted in Stats::rejected — that counter stays a deterministic
  /// function of (spec, budget).  release() keeps working so admitted
  /// jobs still balance the books.
  void shutdown();
  bool shutting_down() const;

  Stats stats() const;

 private:
  const Options opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, uint64_t> resident_;  // per-tenant admitted bytes
  Stats st_;
  bool shutdown_ = false;
};

/// The reply to a "stats" request: the admission counters and the jobs
/// served.  The server writes it and Client::stats reads it by this one
/// field list (util/flatjson.h).
struct StatsReply {
  Admission::Stats st;
  uint64_t jobs = 0;
};

template <class V>
void fields(StatsReply& r, V& v) {
  v("admitted", r.st.admitted);
  v("rejected", r.st.rejected);
  v("queued", r.st.queued);
  v("inflight", r.st.inflight);
  v("inflight_peak", r.st.inflight_peak);
  v("resident_bytes", r.st.resident_bytes);
  v("jobs", r.jobs);
}

}  // namespace ro::serve
