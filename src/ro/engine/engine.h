// ro::Engine — the one execution layer over every backend.
//
// Algorithms in alg/ are templates over an execution context; the Engine
// owns everything around them: the simulated address space and cache
// simulator (via TraceCtx + sched/replay), scheduler selection, and the
// real-thread pools.  One generic callable runs unchanged on five backends:
//
//   Engine eng;
//   auto prog = [&](auto& cx) {
//     auto a = cx.template alloc<int64_t>(n, "a");
//     ... fill a.raw() ...
//     auto out = cx.template alloc<int64_t>(1, "out");
//     cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice()); });
//   };
//   RunOptions opt;
//   opt.backend = Backend::kSimPws;   // the only thing that changes
//   RunReport r = eng.run(prog, opt);
//
// `prog` must call cx.run(root_size, body) exactly once; allocation and
// input initialization happen before it, accounted accesses inside it.
//
// The primary entry point is Engine::submit(JobSpec [, program]): one
// versioned spec describes the job (docs/engine.md), the result comes back
// as a JobResult with a status instead of an abort, and — the redesign's
// point — submit is safe to call from many threads at once.  Pools come
// from a thread-safe PoolCache under exclusive leases, and a job's SPMS
// tuning travels inside its program (make_workload captures
// RunOptions::spms), so differently-tuned jobs share no mutable state and
// run side by side.  run / run_batch are thin shims over submit and remain
// the convenient single-caller surface; record / replay / diagnose expose
// the two phases separately for benches that replay one trace on many
// machines.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ro/alg/spms.h"
#include "ro/core/seq_ctx.h"
#include "ro/core/shard_ctx.h"
#include "ro/core/trace_ctx.h"
#include "ro/doctor/doctor.h"
#include "ro/engine/any_prog.h"
#include "ro/engine/job.h"
#include "ro/engine/options.h"
#include "ro/engine/pool_cache.h"
#include "ro/engine/report.h"
#include "ro/rt/par_ctx.h"
#include "ro/rt/pool.h"
#include "ro/sched/replay.h"
#include "ro/util/check.h"

namespace ro {

namespace detail {

/// Aborts with the JobResult's error when a shim's job failed — the legacy
/// entry points promised RO_CHECK semantics, submit promises a status.
void require_ok(const JobResult& jr, const char* what);

}  // namespace detail

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- the concurrent-caller entry point -------------------------------

  /// Executes the named workload the spec selects (spec.workload, resolved
  /// through engine/workloads.h, built under spec.opt.spms) as a kRun /
  /// kBatch / kDiagnose job.  Thread-safe: concurrent submits share only
  /// the pool cache.  Invalid specs come back as status kError with a
  /// reason — never an abort — so wire callers (ro-serve) stay up across
  /// bad input.
  JobResult submit(const JobSpec& spec);

  /// Programmatic flavour: runs `prog` instead of a named workload
  /// (kRun and kDiagnose jobs; spec.workload is ignored).  A program
  /// carries its own SPMS tuning (the alg::spms / sort_by argument), so a
  /// spec with opt.spms set is a kError here rather than silently ignored.
  JobResult submit(const JobSpec& spec, const AnyProg& prog);

  /// Batch flavour: one program per shard (kBatch jobs); opt.spms as above.
  JobResult submit(const JobSpec& spec, const std::vector<AnyProg>& progs);

  // ---- legacy single-caller surface (shims over submit) ----------------

  /// Runs `prog` on the backend selected by `opt` and returns the unified
  /// report.  `prog(cx)` must call cx.run(root_size, body) exactly once.
  /// Equivalent to submit() with a kRun spec; kept for callers that want
  /// report-or-abort semantics.
  template <class Prog>
  RunReport run(Prog&& prog, const RunOptions& opt = {}) {
    JobSpec spec;
    spec.kind = JobKind::kRun;
    spec.opt = opt;
    JobResult jr = submit(spec, AnyProg(std::forward<Prog>(prog)));
    detail::require_ok(jr, "Engine::run");
    return std::move(jr.report);
  }

  /// Batch pipeline: records `progs[i]` into shard i of one ShardedVSpace —
  /// on concurrent host threads when opt.sim.replay_threads allows — fuses
  /// the per-shard graphs with merge_shards, and replays every shard (plus
  /// its p=1 baseline unless opt.seq_baseline is off) in parallel against
  /// the machine opt.sim describes.  opt.backend must be kSeq / kSimPws /
  /// kSimRws.  The BatchReport carries one RunReport per shard (labelled
  /// "label#i") and the shard-order aggregate; both are bit-identical for
  /// every replay_threads value.  With opt.capacity_shared the shards
  /// replay on ONE shared machine with per-tenant attribution instead
  /// (docs/serve.md).  Equivalent to submit() with a kBatch spec.
  template <class Prog>
  BatchReport run_batch(const std::vector<Prog>& progs,
                        const RunOptions& opt = {}) {
    std::vector<AnyProg> any(progs.begin(), progs.end());
    JobSpec spec;
    spec.kind = JobKind::kBatch;
    spec.shards = static_cast<uint32_t>(progs.size());
    spec.opt = opt;
    JobResult jr = submit(spec, any);
    detail::require_ok(jr, "Engine::run_batch");
    return std::move(jr.batch);
  }

  /// Records `prog` through a fresh TraceCtx (the Engine-owned virtual
  /// address space) and returns the graph + stats for repeated replay.
  /// `shard` selects the address shard recorded into (0 = the classic
  /// single-shard layout); replay rebases per shard, so the shard choice
  /// never changes the replayed Metrics.
  template <class Prog>
  Recording record(Prog&& prog, bool padded = false,
                   uint64_t align_words = 4096, uint32_t shard = 0) {
    Recording rec;
    rec.graph = record_graph(AnyProg(std::forward<Prog>(prog)), nullptr,
                             padded, align_words, shard);
    rec.stats = rec.graph.analyze();
    return rec;
  }

  /// Streaming flavour of record(): access records go through a chunked
  /// ro::TraceStore with a bounded resident window (`stream`), sealed
  /// segments spilling to disk, so the trace never has to fit in memory.
  /// The returned Recording replays through the exact same entry points
  /// (replay / simulate) with bit-identical Metrics; the graph keeps the
  /// store alive via its StreamPart.
  template <class Prog>
  Recording record_stream(Prog&& prog, const StreamOptions& stream,
                          bool padded = false, uint64_t align_words = 4096,
                          uint32_t shard = 0) {
    RO_CHECK_MSG(stream.segment_tasks > 0,
                 "record_stream needs a trace segment capacity");
    Recording rec;
    rec.graph = record_graph(AnyProg(std::forward<Prog>(prog)), &stream,
                             padded, align_words, shard);
    rec.stats = rec.graph.analyze();
    return rec;
  }

  /// Replays a recorded graph on one simulated machine.  `backend` may be
  /// kSeq (p = 1 depth-first replay), kSimPws or kSimRws; parallel backends
  /// cannot replay a trace.  With `seq_baseline`, a p=1 replay is added so
  /// the report carries Q(n,M,B), the cache-miss excess and the simulated
  /// speedup.  `stats` lets callers that replay one graph many times pass
  /// the precomputed analysis instead of paying g.analyze() per call.
  RunReport replay(const TaskGraph& g, Backend backend, const SimConfig& sim,
                   bool seq_baseline = true, const std::string& label = "",
                   const GraphStats* stats = nullptr);

  /// Recording-aware overload: reuses the stats computed at record time.
  RunReport replay(const Recording& rec, Backend backend,
                   const SimConfig& sim, bool seq_baseline = true,
                   const std::string& label = "") {
    return replay(rec.graph, backend, sim, seq_baseline, label, &rec.stats);
  }

  /// The ro-doctor closed loop over one recorded trace (docs/doctor.md):
  /// a profiled replay on `sim`'s machine (ContentionProfile attached),
  /// classification into ranked per-line findings, a repair plan as an
  /// AddressRemap, and — when the plan is non-empty — a verifying replay
  /// of the *same* trace under the remap.  The report carries bit-exact
  /// before/after metrics; `backend` must be a sim backend.  This is the
  /// seam kDiagnose submit() jobs land on after recording their workload.
  doctor::DoctorReport diagnose(const TaskGraph& g, Backend backend,
                                const SimConfig& sim,
                                const doctor::DoctorOptions& opt = {},
                                const std::string& label = "");

  doctor::DoctorReport diagnose(const Recording& rec, Backend backend,
                                const SimConfig& sim,
                                const doctor::DoctorOptions& opt = {},
                                const std::string& label = "") {
    return diagnose(rec.graph, backend, sim, opt, label);
  }

  /// Pools ever constructed by this engine's cache (tests/observability).
  uint64_t pools_created() const { return pool_cache_.created(); }

  /// The steal policy a parallel backend selects.
  static rt::StealPolicy steal_policy_of(Backend b) {
    return (b == Backend::kParRandom || b == Backend::kParNumaRandom)
               ? rt::StealPolicy::kRandom
               : rt::StealPolicy::kPriority;
  }

 private:
  /// Shared recording core of record / record_stream / submit: executes
  /// `prog` through a fresh TraceCtx and returns the raw graph *without*
  /// analyzing it, so pipelined callers can overlap the analysis pass
  /// with replay.  `stream` non-null selects the chunked TraceStore.
  TaskGraph record_graph(const AnyProg& prog, const StreamOptions* stream,
                         bool padded, uint64_t align_words, uint32_t shard);

  /// kRun execution core (the old templated run()): dispatches on the
  /// backend, drives record/replay or a leased pool, fills the report.
  RunReport run_one(const AnyProg& prog, const RunOptions& opt);

  /// kBatch execution core: serial, pipelined, or capacity-shared path.
  BatchReport run_batch_any(const std::vector<AnyProg>& progs,
                            const RunOptions& opt);

  /// submit's job core once the programs are built: validates the spec,
  /// then fills `jr` (already carrying the job id) with the kRun /
  /// kDiagnose or kBatch execution.
  JobResult execute(JobResult jr, const JobSpec& spec, const AnyProg& prog);
  JobResult execute(JobResult jr, const JobSpec& spec,
                    const std::vector<AnyProg>& progs);

  PoolCache pool_cache_;
  std::atomic<uint64_t> next_job_id_{1};
};

}  // namespace ro
