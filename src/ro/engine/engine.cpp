#include "ro/engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "ro/engine/workloads.h"
#include "ro/sched/run.h"
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
                                      const std::string& label) {
  RO_CHECK_MSG(backend_is_sim(backend),
               "diagnose replays a recorded trace; use sim-pws / sim-rws");
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
  d.before = replay(g, backend, pcfg, /*seq_baseline=*/true, label);
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
                     label.empty() ? "repaired" : label + ":repaired");
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

void fill_replay(RunReport& r, const TaskGraph& g, Backend backend,
                 const SimConfig& sim, bool seq_baseline) {
  RO_CHECK_MSG(!backend_is_parallel(backend),
               "parallel backends cannot replay a recorded trace");
  const SchedKind kind = sched_kind_of(backend);
  if (seq_baseline && kind != SchedKind::kSeq) {
    // The main replay and its p=1 baseline are independent walks of the
    // same trace: with replay_threads > 1 the baseline runs on one extra
    // thread, metrics unchanged.  It must not record into the caller's
    // profile: it is a different machine (p=1 has no coherence traffic to
    // attribute), and the two walks may run concurrently.  The remap, if
    // any, stays — the baseline then measures the repaired layout's
    // Q(n,M,B).
    SimConfig bcfg = sim;
    bcfg.profile = nullptr;
    Metrics base;
    auto walk_base = [&] { base = simulate(g, SchedKind::kSeq, bcfg); };
    std::thread overlap;
    if (replay_host_threads(sim.replay_threads, 2) > 1) {
      overlap = std::thread(walk_base);
    }
    const Metrics main = simulate(g, kind, sim);
    if (overlap.joinable()) {
      overlap.join();
    } else {
      walk_base();
    }
    set_replay(r, kind, sim, main, &base);
    return;
  }
  // kSeq is its own baseline.
  const Metrics m = simulate(g, kind, sim);
  set_replay(r, kind, sim, m, seq_baseline ? &m : nullptr);
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

/// One shard's results, whichever batch path produced them.
struct ShardResult {
  GraphStats stats;
  std::shared_ptr<TraceStore> store;  // the shard's recording
  Metrics main;
  Metrics base;             // p=1 baseline (when the batch has one)
  TenantShare share;        // capacity-shared attribution ...
  TenantShare base_share;   // ... and its share of the p=1 baseline
  double record_ms = 0;     // chains: host time recording this shard
  double replay_ms = 0;     // chains: host time replaying it (+ baseline)
};

/// The one per-shard batch row.  On independent machines it carries the
/// shard's Metrics against its p=1 baseline, its store's statistics and
/// the host time spent replaying it.  Capacity-shared rows carry the
/// tenant's attribution on the shared machine instead: the p=1 baseline
/// (`machine_seq`) replays the same co-scheduled trace sequentially, so a
/// tenant's q_seq share is its contention-free miss count and
/// cache_excess the capacity/coherence cost of sharing.
RunReport shard_row(const RunOptions& opt, size_t i, const ShardResult& s,
                    const Metrics& machine_seq) {
  const SchedKind kind = sched_kind_of(opt.backend);
  const bool with_baseline = opt.seq_baseline && kind != SchedKind::kSeq;
  RunReport r;
  r.label = opt.label + "#" + std::to_string(i);
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
      const TenantShare& seq = with_baseline ? s.base_share : s.share;
      r.has_baseline = true;
      r.q_seq = seq.cache_misses;  // p=1: no coherence share
      r.seq_makespan = machine_seq.makespan;  // machine-wide (co-scheduled)
      r.cache_excess = excess(r.tenant_cache_misses, r.q_seq);
    }
    return r;
  }
  set_replay(r, kind, opt.sim, s.main,
             !opt.seq_baseline ? nullptr : with_baseline ? &s.base : &s.main);
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
  const SchedKind kind = sched_kind_of(opt.backend);
  const bool with_baseline = opt.seq_baseline && kind != SchedKind::kSeq;
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
  Metrics machine_seq = with_baseline ? shared_seq : shared;
  if (!opt.capacity_shared) {
    std::vector<Metrics> per, base;
    for (const ShardResult& s : sh) {
      per.push_back(s.main);
      if (with_baseline) base.push_back(s.base);
    }
    machine = merge_shard_metrics(per);
    machine_seq = with_baseline ? merge_shard_metrics(base) : machine;
  }

  br.runs.reserve(sh.size());
  for (size_t i = 0; i < sh.size(); ++i) {
    br.runs.push_back(shard_row(opt, i, sh[i], machine_seq));
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
  set_replay(agg, kind, opt.sim, machine,
             opt.seq_baseline ? &machine_seq : nullptr);
  br.wall_ms = ms_since(t0);
  agg.wall_ms = br.wall_ms;
  return br;
}

/// The batch path on independent machines: one record -> analyze ->
/// replay chain per shard on a host pool, no phase barriers — shard i
/// replays while shard j still records.  Shards share no addresses or
/// activations, so each shard's own walk is exact and the batch aggregate
/// is their merge_shard_metrics.  With opt.pipeline each store also
/// compresses and spills behind its recorder (async_spill).  The phase
/// timings are cumulative busy times.
BatchReport run_batch_chains(const std::vector<AnyProg>& progs,
                             const RunOptions& opt, std::string& error) {
  const auto t0 = std::chrono::steady_clock::now();
  const uint32_t n = static_cast<uint32_t>(progs.size());
  ShardedVSpace ssp(n, opt.align_words);
  const SchedKind kind = sched_kind_of(opt.backend);
  const bool with_baseline = opt.seq_baseline && kind != SchedKind::kSeq;
  StreamOptions stream = opt.trace;
  if (opt.pipeline) stream.async_spill = true;  // spill behind each recorder
  // A profile is written without a lock, so every chain records into its
  // own; they merge into the caller's in shard order after the barrier.
  std::vector<ContentionProfile> profiles(opt.sim.profile != nullptr ? n : 0);
  std::vector<ShardResult> sh(n);
  for_each_shard(n, opt.sim.replay_threads, [&](size_t i) {
    const auto c0 = std::chrono::steady_clock::now();
    VSpace& vs = ssp.shard(static_cast<uint32_t>(i));
    const TaskGraph g = detail::record_graph(progs[i], stream, opt.padded,
                                             opt.align_words, 0, &vs);
    sh[i].record_ms = ms_since(c0);
    if (vs.overflowed()) return;  // the batch fails below
    sh[i].stats = g.analyze();
    sh[i].store = g.store;
    const auto c2 = std::chrono::steady_clock::now();
    SimConfig scfg = opt.sim;
    if (scfg.profile != nullptr) scfg.profile = &profiles[i];
    sh[i].main = simulate(g, kind, scfg);
    if (with_baseline) {
      scfg.profile = nullptr;  // p=1: no coherence traffic to attribute
      sh[i].base = simulate(g, SchedKind::kSeq, scfg);
    }
    sh[i].replay_ms = ms_since(c2);
  });
  if (ssp.overflowed()) {
    error = kOverflowError;
    return {};
  }
  for (const ContentionProfile& p : profiles) opt.sim.profile->merge(p);
  double record_ms = 0, replay_ms = 0;
  for (const ShardResult& s : sh) {
    record_ms += s.record_ms;
    replay_ms += s.replay_ms;
  }
  return finish_batch(sh, opt, record_ms, replay_ms, t0);
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
    char* end = nullptr;
    const unsigned long major =
        std::strtoul(spec.schema_version.c_str(), &end, 10);
    if (end == spec.schema_version.c_str() || *end != '.') {
      fail(jr, "unparsable schema_version \"" + spec.schema_version + "\"");
      return false;
    }
    if (major > kJobSchemaMajor) {
      fail(jr, "schema_version " + spec.schema_version +
                   " is newer than supported " + job_schema_version());
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
  if (spec.opt.sim.p < 1 || spec.opt.sim.p > 64) {
    fail(jr, "sim p must be in [1, 64]");
    return false;
  }
  if (spec.opt.sim.B == 0 || spec.opt.sim.M / spec.opt.sim.B < 1) {
    fail(jr, "sim cache must hold >= 1 block");
    return false;
  }
  if (const char* bad = alignment_error(spec.opt.align_words)) {
    fail(jr, bad);
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
                               uint32_t shard, VSpace* vs, bool* overflowed) {
  TraceCtx::Options topt;
  topt.padded = padded;
  topt.align_words = align_words;
  topt.shard = shard;
  if (stream.segment_tasks > 0) {
    topt.store = std::make_shared<TraceStore>(stream.store_options());
  }
  std::optional<VSpace> own;
  if (vs == nullptr) {
    RO_CHECK_MSG(shard < kMaxShards, "shard id out of range");
    vs = &own.emplace(align_words, shard_base(shard));
  }
  TraceCtx cx(topt, *vs);
  detail::EngineCtx<TraceCtx> ec(cx);
  prog(ec);
  // An external space's owner checks it; a private one is checked here.
  if (own.has_value() && own->overflowed()) {
    RO_CHECK_MSG(overflowed != nullptr, kOverflowError);
    *overflowed = true;
  }
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
      StreamOptions st = opt.trace;
      if (opt.pipeline) st.async_spill = true;  // spill behind recording
      bool over = false;
      const TaskGraph g = detail::record_graph(
          prog, st, opt.padded, opt.align_words, opt.shard, nullptr, &over);
      if (over) {
        error = kOverflowError;
        return r;
      }
      GraphStats gs;
      if (opt.pipeline) {
        // The analysis pass is a full walk of the stream; overlap it
        // with the replay walks (all read-only on the sealed store):
        // wall = record + max(analyze, replay) instead of their sum.
        std::thread analyzer([&] { gs = g.analyze(); });
        fill_replay(r, g, opt.backend, opt.sim, opt.seq_baseline);
        analyzer.join();
      } else {
        gs = g.analyze();
        fill_replay(r, g, opt.backend, opt.sim, opt.seq_baseline);
      }
      r.has_graph = true;
      r.graph = gs;
      if (st.segment_tasks > 0) {  // post-replay: loads included
        add_stream_stats(r, *g.store);
      }
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
  if (!opt.capacity_shared) return run_batch_chains(progs, opt, error);
  // Capacity sharing replays every shard on ONE simulated machine — shared
  // cores, caches, coherence directory — with each miss/transfer charged
  // to the tenant whose task performed it (docs/serve.md).  That walk
  // co-schedules every shard's trace, so every shard records first.
  const auto t0 = std::chrono::steady_clock::now();
  const uint32_t n = static_cast<uint32_t>(progs.size());
  ShardedVSpace ssp(n, opt.align_words);
  std::vector<TaskGraph> graphs(n);
  for_each_shard(n, opt.sim.replay_threads, [&](size_t i) {
    graphs[i] =
        detail::record_graph(progs[i], opt.trace, opt.padded, opt.align_words,
                             0, &ssp.shard(static_cast<uint32_t>(i)));
  });
  const double record_ms = ms_since(t0);
  if (ssp.overflowed()) {
    error = kOverflowError;
    return {};
  }

  std::vector<ShardResult> sh(n);
  for (uint32_t i = 0; i < n; ++i) {
    sh[i].stats = graphs[i].analyze();
    sh[i].store = graphs[i].store;
  }
  const SchedKind kind = sched_kind_of(opt.backend);
  const bool with_baseline = opt.seq_baseline && kind != SchedKind::kSeq;
  const auto tr0 = std::chrono::steady_clock::now();
  std::vector<TenantShare> shares, base_shares;
  const Metrics main = simulate_shared(graphs, kind, opt.sim, &shares);
  Metrics base;
  if (with_baseline) {
    base = simulate_shared(graphs, SchedKind::kSeq, opt.sim, &base_shares);
  }
  for (uint32_t i = 0; i < n; ++i) {
    sh[i].share = shares[i];
    if (with_baseline) sh[i].base_share = base_shares[i];
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
  } else {  // kDiagnose: record here, then run the doctor loop
    bool over = false;
    const TaskGraph g = detail::record_graph(
        prog, spec.opt.trace, spec.opt.padded, spec.opt.align_words,
        spec.opt.shard, nullptr, &over);
    if (over) {
      error = kOverflowError;
    } else {
      jr.doctor = diagnose(g, spec.opt.backend, spec.opt.sim, spec.doc,
                           spec.opt.label);
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
  RunReport r;
  r.label = label;
  r.backend = backend;
  r.has_graph = true;
  r.graph = stats ? *stats : g.analyze();
  const auto t0 = std::chrono::steady_clock::now();
  fill_replay(r, g, backend, sim, seq_baseline);
  r.wall_ms = ms_since(t0);
  return r;
}

}  // namespace ro
