#include "ro/engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <thread>

#include "ro/engine/workloads.h"
#include "ro/sched/arena.h"
#include "ro/sched/run.h"
#include "ro/sim/cache.h"
#include "ro/sim/contention.h"

namespace ro {

namespace detail {

void require_ok(const JobResult& jr, const char* what) {
  if (jr.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, jr.error.c_str());
  RO_CHECK_MSG(false, "job failed; see the error above");
}

}  // namespace detail

doctor::DoctorReport Engine::diagnose(const TaskGraph& g, Backend backend,
                                      const SimConfig& sim,
                                      const doctor::DoctorOptions& opt,
                                      const std::string& label,
                                      const GraphStats* stats) {
  RO_CHECK_MSG(backend_is_sim(backend),
               "diagnose replays a recorded trace; use sim-pws / sim-rws");
  const GraphStats gs = stats != nullptr ? *stats : g.analyze();
  doctor::DoctorReport d;
  d.label = label;
  d.backend = backend;
  d.p = sim.p;
  d.M = sim.M;
  d.B = sim.B;

  // 1. Diagnose: the "before" replay with the ContentionProfile attached.
  ContentionProfile profile;
  SimConfig pcfg = sim;
  pcfg.profile = &profile;
  pcfg.remap = nullptr;
  d.before = replay(g, backend, pcfg, /*seq_baseline=*/true, label, &gs);
  d.before.has_contention = true;
  d.before.fs_false_events = profile.false_events();
  d.before.fs_true_events = profile.true_events();
  d.before.fs_hot_lines = profile.hot_lines();

  // 2. Repair: ranked findings -> padding remap.
  d.findings = doctor::classify(profile, opt);
  d.plan = doctor::plan_repair(d.findings, g, sim.B, opt);

  // 3. Verify: replay the same stored trace under the remap.  Nothing to
  //    prove when the plan is empty (a healthy layout).
  if (!d.plan.remap.empty()) {
    SimConfig rcfg = sim;
    rcfg.profile = nullptr;
    rcfg.remap = &d.plan.remap;
    d.after = replay(g, backend, rcfg, /*seq_baseline=*/true,
                     label.empty() ? "repaired" : label + ":repaired", &gs);
    d.has_after = true;
  }
  return d;
}

namespace {

/// The status of a job whose recording overflowed its shard's range.
constexpr const char* kOverflowError =
    "align_words is too large: the program's allocations overflow the "
    "shard's 2^40-word address range";

unsigned hw_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min(hw == 0 ? 2 : hw, rt::kMaxPoolThreads);
}

/// Adds one store's statistics (segments, spilled bytes, resident
/// high-water) to the report.
void add_stream_stats(RunReport& r, const TraceStore& store) {
  const TraceStore::Stats st = store.stats();
  r.has_stream = true;
  r.trace_segments += st.segments;
  r.trace_spilled_bytes += st.spilled_bytes;
  r.trace_compressed_bytes += st.compressed_bytes;
  // Stores replay concurrently, so their peaks sum: a batch's resident
  // bound is (window + open + pins) x live stores, and the report says so
  // instead of hiding it behind a max.
  r.trace_peak_resident_bytes += st.peak_resident_bytes;
}

/// The replay half of a report: the machine, its Metrics and, when `seq`
/// is non-null, the p=1 baseline they are measured against.
void set_replay(RunReport& r, SchedKind kind, const SimConfig& sim,
                const Metrics& main, const Metrics* seq) {
  r.has_sim = true;
  r.p = kind == SchedKind::kSeq ? 1 : sim.p;
  r.M = sim.M;
  r.B = sim.B;
  r.sim = main;
  if (seq != nullptr) {
    r.has_baseline = true;
    r.q_seq = seq->cache_misses();
    r.seq_makespan = seq->makespan;
    r.cache_excess = excess(r.sim.cache_misses(), r.q_seq);
  }
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs fn(i) for every shard i < n, on a host pool when `replay_threads`
/// (SimConfig semantics) allows more than one worker.
template <class F>
void for_each_shard(uint32_t n, uint32_t replay_threads, F&& fn) {
  const uint32_t threads =
      std::min(replay_host_threads(replay_threads, n), rt::kMaxPoolThreads);
  if (threads <= 1) {
    for (uint32_t i = 0; i < n; ++i) fn(i);
  } else {
    rt::Pool pool(threads, rt::StealPolicy::kRandom);
    rt::parallel_index(pool, n, fn);
  }
}

/// One chain's results: its recording, its walks and their host times.
struct ShardResult {
  GraphStats stats;
  std::shared_ptr<TraceStore> store;  // the shard's recording
  Metrics main;
  Metrics base;             // p=1 baseline (kSeq: main again)
  TenantShare share;        // capacity-shared attribution ...
  TenantShare base_share;   // ... and its share of the p=1 baseline
  double record_ms = 0;     // host time recording this shard
  double replay_ms = 0;     // host time replaying it (+ baseline)
};

/// The record step of every recorded job: records `prog` into `vs` (one
/// shard of the job's ShardedVSpace) and analyzes the recording, unless
/// it overflowed the shard; the job then fails on its space's overflowed().
TaskGraph record_shard(const AnyProg& prog, const StreamOptions& stream,
                       const RunOptions& opt, VSpace& vs, ShardResult& s) {
  const auto t0 = std::chrono::steady_clock::now();
  TaskGraph g = detail::record_graph(prog, stream, opt.padded,
                                     opt.align_words, 0, &vs);
  s.record_ms = ms_since(t0);
  if (!vs.overflowed()) {
    s.stats = g.analyze();
    s.store = g.store;
  }
  return g;
}

/// The replay step of every job: walks `g` on `sim`'s machine under
/// `kind` and, with `seq_baseline`, on the p = 1 baseline machine (kSeq is
/// its own baseline).  The walks are independent: in a one-chain job
/// (`alone`: a run, a one-shard batch, a replay or a diagnose) whose
/// replay_threads allows two walks, the baseline runs on a thread of its
/// own, Metrics unchanged.  A multi-shard batch spends its threads on
/// chains and walks main, then baseline, so one walk at a time reads each
/// store's window and its resident high-water stays deterministic.  The
/// baseline must not record into the caller's profile: it is a different
/// machine (p=1 has no coherence traffic to attribute), and the two walks
/// may run concurrently.  The remap, if any, stays — the baseline then
/// measures the repaired layout's Q(n,M,B).
void walk(const TaskGraph& g, SchedKind kind, const SimConfig& sim,
          bool seq_baseline, bool alone, ShardResult& s) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!seq_baseline || kind == SchedKind::kSeq) {
    s.main = simulate(g, kind, sim);
    if (seq_baseline) s.base = s.main;
  } else {
    SimConfig bcfg = sim;
    bcfg.profile = nullptr;
    auto walk_base = [&] { s.base = simulate(g, SchedKind::kSeq, bcfg); };
    std::thread base_thread;
    if (alone && replay_host_threads(sim.replay_threads, 2) > 1) {
      base_thread = std::thread(walk_base);
    }
    s.main = simulate(g, kind, sim);
    if (base_thread.joinable()) {
      base_thread.join();
    } else {
      walk_base();
    }
  }
  s.replay_ms = ms_since(t0);
}

/// The one per-chain report row: a batch's per-shard row, and the report
/// of a sim-backend run job (the one-shard chain).  On independent
/// machines it carries the chain's Metrics against its p=1 baseline, its
/// store's statistics and the host time spent replaying it.
/// Capacity-shared rows carry the tenant's attribution on the shared
/// machine instead: the p=1 baseline (`machine_seq`) replays the same
/// co-scheduled trace sequentially, so a tenant's q_seq share is its
/// contention-free miss count and cache_excess the capacity/coherence
/// cost of sharing.
RunReport shard_row(const RunOptions& opt, std::string label,
                    const ShardResult& s, const Metrics& machine_seq) {
  RunReport r;
  r.label = std::move(label);
  r.backend = opt.backend;
  r.has_graph = true;
  r.graph = s.stats;
  if (opt.capacity_shared) {
    r.has_tenant = true;
    r.tenant = r.label;
    r.tenant_compute = s.share.compute;
    r.tenant_cache_misses = s.share.cache_misses;
    r.tenant_block_misses = s.share.block_misses;
    r.tenant_transfers = s.share.transfers;
    if (opt.seq_baseline) {
      r.has_baseline = true;
      r.q_seq = s.base_share.cache_misses;  // p=1: no coherence share
      r.seq_makespan = machine_seq.makespan;  // machine-wide (co-scheduled)
      r.cache_excess = excess(r.tenant_cache_misses, r.q_seq);
    }
    return r;
  }
  set_replay(r, sched_kind_of(opt.backend), opt.sim, s.main,
             opt.seq_baseline ? &s.base : nullptr);
  if (opt.trace.segment_tasks > 0) add_stream_stats(r, *s.store);
  r.wall_ms = s.replay_ms;
  return r;
}

/// Assembles the BatchReport of every batch path: one shard_row per shard
/// and the shard-order aggregate (summed recording stats, every store's
/// statistics, and the batch machine against its p=1 baseline).  The
/// machine is the shard-order merge of the per-shard Metrics, or under
/// capacity sharing the one shared machine, `shared` / `shared_seq`.
BatchReport finish_batch(const std::vector<ShardResult>& sh,
                         const RunOptions& opt, double record_ms,
                         double replay_ms,
                         std::chrono::steady_clock::time_point t0,
                         const Metrics& shared = {},
                         const Metrics& shared_seq = {}) {
  BatchReport br;
  br.label = opt.label;
  br.backend = opt.backend;
  br.shards = static_cast<uint32_t>(sh.size());
  br.replay_threads = opt.sim.replay_threads;
  br.capacity_shared = opt.capacity_shared;
  br.pipelined = opt.pipeline && !opt.capacity_shared;
  br.record_ms = record_ms;
  br.replay_ms = replay_ms;

  Metrics machine = shared;
  Metrics machine_seq = shared_seq;
  if (!opt.capacity_shared) {
    std::vector<Metrics> per, base;
    for (const ShardResult& s : sh) {
      per.push_back(s.main);
      base.push_back(s.base);
    }
    machine = merge_shard_metrics(per);
    machine_seq = merge_shard_metrics(base);
  }

  br.runs.reserve(sh.size());
  for (size_t i = 0; i < sh.size(); ++i) {
    br.runs.push_back(shard_row(opt, opt.label + "#" + std::to_string(i),
                                sh[i], machine_seq));
  }
  RunReport& agg = br.aggregate;
  agg.label = opt.label;
  agg.backend = opt.backend;
  agg.has_graph = true;
  for (const ShardResult& s : sh) {
    agg.graph.work += s.stats.work;
    agg.graph.span = std::max(agg.graph.span, s.stats.span);
    agg.graph.max_depth = std::max(agg.graph.max_depth, s.stats.max_depth);
    agg.graph.activations += s.stats.activations;
    agg.graph.accesses += s.stats.accesses;
    agg.graph.leaves += s.stats.leaves;
    if (opt.trace.segment_tasks > 0) add_stream_stats(agg, *s.store);
  }
  set_replay(agg, sched_kind_of(opt.backend), opt.sim, machine,
             opt.seq_baseline ? &machine_seq : nullptr);
  br.wall_ms = ms_since(t0);
  agg.wall_ms = br.wall_ms;
  return br;
}

/// The one record -> analyze -> replay path on independent machines:
/// chain i records progs[i] into shard i of one ShardedVSpace, analyzes
/// it and walks it on its own machine (plus its p=1 baseline), on a host
/// pool with no phase barriers — shard i replays while shard j still
/// records.  Shards share no addresses or activations, so each chain's
/// walk is exact.  With opt.pipeline each store also compresses and
/// spills behind its recorder (async_spill).  A run job is the one-shard
/// chain.  Fills `sh`; a recording that overflowed its shard sets `error`
/// instead.
bool run_chains(std::span<const AnyProg> progs, const RunOptions& opt,
                std::vector<ShardResult>& sh, std::string& error) {
  const uint32_t n = static_cast<uint32_t>(progs.size());
  ShardedVSpace ssp(n, opt.align_words);
  const SchedKind kind = sched_kind_of(opt.backend);
  StreamOptions stream = opt.trace;
  if (opt.pipeline) stream.async_spill = true;  // spill behind each recorder
  // A profile is written without a lock, so every chain records into its
  // own; they merge into the caller's in shard order after the barrier.
  std::vector<ContentionProfile> profiles(opt.sim.profile != nullptr ? n : 0);
  sh.assign(n, ShardResult{});
  for_each_shard(n, opt.sim.replay_threads, [&](size_t i) {
    VSpace& vs = ssp.shard(static_cast<uint32_t>(i));
    const TaskGraph g = record_shard(progs[i], stream, opt, vs, sh[i]);
    if (vs.overflowed()) return;  // the job fails below
    SimConfig scfg = opt.sim;
    if (scfg.profile != nullptr) scfg.profile = &profiles[i];
    walk(g, kind, scfg, opt.seq_baseline, /*alone=*/n == 1, sh[i]);
  });
  if (ssp.overflowed()) {
    error = kOverflowError;
    return false;
  }
  for (const ContentionProfile& p : profiles) opt.sim.profile->merge(p);
  return true;
}

JobResult start_result(uint64_t id, const JobSpec& spec) {
  JobResult jr;
  jr.job_id = id;
  jr.tenant = spec.tenant;
  jr.tag = spec.tag;
  jr.kind = spec.kind;
  return jr;
}

JobResult& fail(JobResult& jr, const std::string& why) {
  jr.status = JobStatus::kError;
  jr.error = why;
  return jr;
}

/// Spec-level validation that must not abort: submit is the wire-facing
/// entry point, so everything a remote caller can get wrong becomes a
/// kError result — a bad SPMS tuning or allocation alignment included,
/// which alg::spms / VSpace would otherwise RO_CHECK mid-record.
bool check_spec(const JobSpec& spec, JobResult& jr) {
  if (!spec.schema_version.empty()) {
    const std::string why = schema_version_error(spec.schema_version);
    if (!why.empty()) {
      fail(jr, why);
      return false;
    }
  }
  if (spec.opt.threads > rt::kMaxPoolThreads ||
      spec.opt.sim.replay_threads > rt::kMaxPoolThreads) {
    fail(jr, "threads and replay_threads must be at most " +
                 std::to_string(rt::kMaxPoolThreads));
    return false;
  }
  if (spec.shards > kMaxShards) {
    fail(jr, "shards must be at most 2^24");
    return false;
  }
  const SimConfig& sim = spec.opt.sim;
  if (sim.p < 1 || sim.p > 64) {
    fail(jr, "sim p must be in [1, 64]");
    return false;
  }
  if (sim.B == 0 || sim.M / sim.B < 1) {
    fail(jr, "sim cache must hold >= 1 block");
    return false;
  }
  if (sim.M / sim.B > kMaxCacheLines) {
    fail(jr, "sim M / B must be at most 2^20 lines");
    return false;
  }
  if (sim.M2 != 0) {
    const uint64_t l2_lines = sim.M2 / (uint64_t{sim.p} * sim.B);
    if (l2_lines < 1 || l2_lines > kMaxCacheLines) {
      fail(jr, "sim M2 / (p * B) must be in [1, 2^20] lines");
      return false;
    }
  }
  if (uint64_t{sim.p} * (sim.M / sim.B) + sim.M2 / sim.B > kMaxMachineLines) {
    fail(jr, "sim caches must total at most 2^22 lines: "
             "p * (M / B) + M2 / B");
    return false;
  }
  if (const char* bad = alignment_error(spec.opt.align_words)) {
    fail(jr, bad);
    return false;
  }
  // Replay memory grows with the alignment: above the stack-chunk size
  // every stack chunk pads to it as every allocation does, and the
  // coherence directory's page table is sized by the highest block id.
  if (spec.opt.align_words > kStackChunkWords) {
    fail(jr, "align_words must be at most 2^14 (one replay stack chunk)");
    return false;
  }
  if (spec.opt.spms.has_value()) {
    if (const char* bad = alg::spms_tuning_error(*spec.opt.spms)) {
      fail(jr, bad);
      return false;
    }
  }
  if (spec.kind == JobKind::kDiagnose && !backend_is_sim(spec.opt.backend)) {
    fail(jr, "diagnose jobs replay a trace; use sim-pws / sim-rws");
    return false;
  }
  if (spec.kind == JobKind::kBatch && backend_is_parallel(spec.opt.backend)) {
    fail(jr, "batch jobs replay traces; use a seq/sim backend");
    return false;
  }
  if (spec.opt.capacity_shared && spec.kind != JobKind::kBatch) {
    fail(jr, "capacity_shared is a batch-job mode");
    return false;
  }
  return true;
}

/// The pool configuration a parallel run asks for, from the options alone
/// (threads = 0 means hardware concurrency).
PoolKey pool_key_of(const RunOptions& opt) {
  PoolKey key;
  key.policy = Engine::steal_policy_of(opt.backend);
  key.threads = opt.threads != 0 ? opt.threads : hw_threads();
  return key;
}

/// A program carries its own SPMS tuning, so a programmatic job cannot
/// take one from its spec.
bool refuse_spms_override(const JobSpec& spec, JobResult& jr) {
  if (!spec.opt.spms.has_value()) return false;
  fail(jr,
       "spms tuning applies to named workloads only; pass it to alg::spms / "
       "alg::sort_by in the program instead");
  return true;
}

}  // namespace

void set_pool(RunReport& r, const rt::Pool& pool, const rt::PoolStats& d) {
  r.has_pool = true;
  r.threads = pool.threads();
  r.pool_steals = d.steals;
  r.pool_failed_steals = d.failed_steals;
  r.pool_groups = pool.groups();
  r.pool_local_steals = d.local_steals;
  r.pool_remote_steals = d.remote_steals;
  r.pool_group_local_steals = d.group_local;
  r.pool_group_remote_steals = d.group_remote;
}

TaskGraph detail::record_graph(const AnyProg& prog, const StreamOptions& stream,
                               bool padded, uint64_t align_words,
                               uint32_t shard, VSpace* vs) {
  TraceCtx::Options topt;
  topt.padded = padded;
  topt.align_words = align_words;
  topt.shard = shard;
  if (stream.segment_tasks > 0) {
    topt.store = std::make_shared<TraceStore>(stream.store_options());
  }
  std::optional<TraceCtx> cx;
  if (vs != nullptr) {
    cx.emplace(topt, *vs);
  } else {
    cx.emplace(topt);  // a private space: the context checks its overflow
  }
  detail::EngineCtx<TraceCtx> ec(*cx);
  prog(ec);
  return std::move(ec.graph());
}

RunReport Engine::run_one(const AnyProg& prog, const RunOptions& opt,
                          std::string& error) {
  RunReport r;
  r.label = opt.label;
  r.backend = opt.backend;
  const auto t0 = std::chrono::steady_clock::now();
  switch (opt.backend) {
    case Backend::kSeq: {
      SeqCtx cx;
      detail::EngineCtx<SeqCtx> ec(cx);
      prog(ec);
      break;
    }
    case Backend::kSimPws:
    case Backend::kSimRws: {
      std::vector<ShardResult> sh;
      if (!run_chains({&prog, 1}, opt, sh, error)) return r;
      r = shard_row(opt, opt.label, sh[0], Metrics{});
      break;
    }
    case Backend::kParRandom:
    case Backend::kParPriority: {
      // Exclusive lease: concurrent submits wanting the same configuration
      // get sibling pools instead of racing on one (Pool::run is not
      // reentrant).
      PoolCache::Lease lease = pool_cache_.acquire(pool_key_of(opt));
      rt::Pool& pool = lease.pool();
      const rt::PoolStats before = pool.stats();
      rt::ParCtx cx(pool, opt.serial_below);
      detail::EngineCtx<rt::ParCtx> ec(cx);
      prog(ec);
      set_pool(r, pool, pool.stats().since(before));
      break;
    }
  }
  r.wall_ms = ms_since(t0);
  return r;
}

BatchReport Engine::run_batch_any(const std::vector<AnyProg>& progs,
                                  const RunOptions& opt, std::string& error) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<ShardResult> sh;
  if (!opt.capacity_shared) {  // phase timings: cumulative busy times
    if (!run_chains(progs, opt, sh, error)) return {};
    double record_ms = 0, replay_ms = 0;
    for (const ShardResult& s : sh) {
      record_ms += s.record_ms;
      replay_ms += s.replay_ms;
    }
    return finish_batch(sh, opt, record_ms, replay_ms, t0);
  }
  // Capacity sharing replays every shard on ONE simulated machine — shared
  // cores, caches, coherence directory — with each miss/transfer charged
  // to the tenant whose task performed it (docs/serve.md).  That walk
  // co-schedules every shard's trace, so every shard records first.
  const uint32_t n = static_cast<uint32_t>(progs.size());
  ShardedVSpace ssp(n, opt.align_words);
  std::vector<TaskGraph> graphs(n);
  sh.resize(n);
  for_each_shard(n, opt.sim.replay_threads, [&](size_t i) {
    graphs[i] = record_shard(progs[i], opt.trace, opt,
                             ssp.shard(static_cast<uint32_t>(i)), sh[i]);
  });
  const double record_ms = ms_since(t0);
  if (ssp.overflowed()) {
    error = kOverflowError;
    return {};
  }
  const SchedKind kind = sched_kind_of(opt.backend);
  const auto tr0 = std::chrono::steady_clock::now();
  std::vector<TenantShare> shares;
  const Metrics main = simulate_shared(graphs, kind, opt.sim, &shares);
  std::vector<TenantShare> base_shares = shares;  // kSeq is its own baseline
  Metrics base = main;
  if (opt.seq_baseline && kind != SchedKind::kSeq) {
    base = simulate_shared(graphs, SchedKind::kSeq, opt.sim, &base_shares);
  }
  for (uint32_t i = 0; i < n; ++i) {
    sh[i].share = shares[i];
    sh[i].base_share = base_shares[i];
  }
  return finish_batch(sh, opt, record_ms, ms_since(tr0), t0, main, base);
}

JobResult Engine::submit(const JobSpec& spec) {
  JobResult jr = start_result(next_job_id_.fetch_add(1), spec);
  // Validate first: a batch builds one program per shard.
  if (!check_spec(spec, jr)) return jr;
  const alg::SpmsTuning spms = spec.opt.spms.value_or(alg::SpmsTuning{});
  if (spec.kind == JobKind::kBatch) {
    const uint32_t shards = spec.shards == 0 ? 1 : spec.shards;
    std::vector<AnyProg> progs;
    progs.reserve(shards);
    for (uint32_t i = 0; i < shards; ++i) {
      // Per-shard seed salt: tenants of a batch run distinct-but-
      // deterministic inputs of the same workload.
      progs.push_back(
          make_workload(spec.workload, spec.n, spec.seed + i, spms));
    }
    if (!progs[0]) {
      return fail(jr, "unknown workload \"" + spec.workload + "\"");
    }
    return execute(std::move(jr), spec, progs);
  }
  const AnyProg prog = make_workload(spec.workload, spec.n, spec.seed, spms);
  if (!prog) return fail(jr, "unknown workload \"" + spec.workload + "\"");
  return execute(std::move(jr), spec, prog);
}

JobResult Engine::submit(const JobSpec& spec, const AnyProg& prog) {
  JobResult jr = start_result(next_job_id_.fetch_add(1), spec);
  if (refuse_spms_override(spec, jr) || !check_spec(spec, jr)) return jr;
  return execute(std::move(jr), spec, prog);
}

JobResult Engine::submit(const JobSpec& spec,
                         const std::vector<AnyProg>& progs) {
  JobResult jr = start_result(next_job_id_.fetch_add(1), spec);
  if (refuse_spms_override(spec, jr) || !check_spec(spec, jr)) return jr;
  return execute(std::move(jr), spec, progs);
}

JobResult Engine::execute(JobResult jr, const JobSpec& spec,
                          const AnyProg& prog) {
  if (spec.kind == JobKind::kBatch) {
    fail(jr, "batch jobs take one program per shard");
    return jr;
  }
  if (!prog) {
    fail(jr, "empty program");
    return jr;
  }
  if (!prog.supports(spec.opt.backend)) {
    fail(jr, std::string("program does not support backend ") +
                 backend_name(spec.opt.backend));
    return jr;
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::string error;
  if (spec.kind == JobKind::kRun) {
    jr.report = run_one(prog, spec.opt, error);
  } else {  // kDiagnose: a chain's record step, then the doctor loop
    ShardedVSpace ssp(1, spec.opt.align_words);
    ShardResult s;
    const TaskGraph g =
        record_shard(prog, spec.opt.trace, spec.opt, ssp.shard(0), s);
    if (ssp.overflowed()) {
      error = kOverflowError;
    } else {
      jr.doctor = diagnose(g, spec.opt.backend, spec.opt.sim, spec.doc,
                           spec.opt.label, &s.stats);
      jr.has_doctor = true;
    }
  }
  if (!error.empty()) return fail(jr, error);
  jr.exec_ms = ms_since(t0);
  return jr;
}

JobResult Engine::execute(JobResult jr, const JobSpec& spec,
                          const std::vector<AnyProg>& progs) {
  if (spec.kind != JobKind::kBatch) {
    fail(jr, "a program vector makes a batch job; set kind to \"batch\"");
    return jr;
  }
  if (progs.empty()) {
    fail(jr, "batch jobs need at least one program");
    return jr;
  }
  for (const AnyProg& p : progs) {
    if (!p.supports(Backend::kSimPws)) {  // batches record through TraceCtx
      fail(jr, "batch program cannot record (empty or non-trace)");
      return jr;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::string error;
  jr.batch = run_batch_any(progs, spec.opt, error);
  if (!error.empty()) return fail(jr, error);
  jr.has_batch = true;
  jr.exec_ms = ms_since(t0);
  return jr;
}

RunReport Engine::replay(const TaskGraph& g, Backend backend,
                         const SimConfig& sim, bool seq_baseline,
                         const std::string& label, const GraphStats* stats) {
  RO_CHECK_MSG(!backend_is_parallel(backend),
               "parallel backends cannot replay a recorded trace");
  const SchedKind kind = sched_kind_of(backend);
  RunReport r;
  r.label = label;
  r.backend = backend;
  r.has_graph = true;
  r.graph = stats ? *stats : g.analyze();
  ShardResult s;
  walk(g, kind, sim, seq_baseline, /*alone=*/true, s);
  set_replay(r, kind, sim, s.main, seq_baseline ? &s.base : nullptr);
  r.wall_ms = s.replay_ms;
  return r;
}

}  // namespace ro
