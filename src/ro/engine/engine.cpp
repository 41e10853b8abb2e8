#include "ro/engine/engine.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "ro/engine/workloads.h"
#include "ro/rt/numa.h"
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

unsigned hw_threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : hw;
}

/// Copies the graph's TraceStore statistics (segments, spilled bytes,
/// resident high-water) into the report; no-op for resident graphs.
void fill_stream_stats(RunReport& r, const TaskGraph& g) {
  if (!g.streaming()) return;
  r.has_stream = true;
  for (const StreamPart& part : g.streams) {
    const TraceStore::Stats st = part.store->stats();
    r.trace_segments += st.segments;
    r.trace_spilled_bytes += st.spilled_bytes;
    r.trace_compressed_bytes += st.compressed_bytes;
    // Parts replay concurrently, so their peaks sum: the batch's resident
    // bound is (window + open + pins) x live stores, and the report says
    // so instead of hiding it behind a max.
    r.trace_peak_resident_bytes += st.peak_resident_bytes;
  }
}

void fill_replay(RunReport& r, const TaskGraph& g, Backend backend,
                 const SimConfig& sim, bool seq_baseline) {
  RO_CHECK_MSG(!backend_is_parallel(backend),
               "parallel backends cannot replay a recorded trace");
  const SchedKind kind = sched_kind_of(backend);
  r.has_sim = true;
  r.p = kind == SchedKind::kSeq ? 1 : sim.p;
  r.M = sim.M;
  r.B = sim.B;
  if (seq_baseline && kind != SchedKind::kSeq) {
    // The main replay and its p=1 baseline are independent walks of the
    // same trace: with replay_threads > 1 they (and their shard units)
    // overlap on pool threads, metrics unchanged.
    std::vector<ReplayJob> jobs(2);
    jobs[0] = ReplayJob{&g, kind, sim};
    jobs[1] = ReplayJob{&g, SchedKind::kSeq, sim};
    // The baseline walk must not record into the caller's profile: it is
    // a different machine (p=1 has no coherence traffic to attribute),
    // and the two jobs run concurrently.  The remap, if any, stays — the
    // baseline then measures the repaired layout's Q(n,M,B).
    jobs[1].cfg.profile = nullptr;
    std::vector<Metrics> res = simulate_all(jobs, sim.replay_threads);
    r.sim = std::move(res[0]);
    r.has_baseline = true;
    r.q_seq = res[1].cache_misses();
    r.seq_makespan = res[1].makespan;
    r.cache_excess = excess(r.sim.cache_misses(), r.q_seq);
    return;
  }
  r.sim = simulate(g, kind, sim);
  if (seq_baseline) {  // kind == kSeq: the replay is its own baseline
    r.has_baseline = true;
    r.q_seq = r.sim.cache_misses();
    r.seq_makespan = r.sim.makespan;
    r.cache_excess = 0;
  }
}

BatchReport finish_batch(std::vector<TaskGraph> graphs, const RunOptions& opt,
                         double record_ms,
                         std::chrono::steady_clock::time_point t0) {
  BatchReport br;
  br.label = opt.label;
  br.backend = opt.backend;
  br.shards = static_cast<uint32_t>(graphs.size());
  br.replay_threads = opt.sim.replay_threads;
  br.record_ms = record_ms;

  std::vector<GraphStats> stats;
  stats.reserve(graphs.size());
  for (const TaskGraph& g : graphs) stats.push_back(g.analyze());
  const TaskGraph merged = merge_shards(std::move(graphs));

  const SchedKind kind = sched_kind_of(opt.backend);
  const auto tr0 = std::chrono::steady_clock::now();
  // One combined unit set so the main pass and the p=1 baselines overlap
  // on the pool (2 * shards units when the baseline is on).
  std::vector<ReplayJob> jobs;
  jobs.push_back(ReplayJob{&merged, kind, opt.sim});
  const bool with_baseline = opt.seq_baseline && kind != SchedKind::kSeq;
  if (with_baseline) {
    jobs.push_back(ReplayJob{&merged, SchedKind::kSeq, opt.sim});
  }
  std::vector<std::vector<double>> unit_wall;
  std::vector<std::vector<Metrics>> res =
      simulate_shards_all(jobs, opt.sim.replay_threads, &unit_wall);
  const std::vector<Metrics> per = std::move(res[0]);
  const std::vector<Metrics> base =
      with_baseline ? std::move(res[1]) : std::vector<Metrics>{};
  br.replay_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - tr0)
                     .count();

  br.runs.reserve(per.size());
  for (size_t i = 0; i < per.size(); ++i) {
    RunReport r;
    r.label = opt.label + "#" + std::to_string(i);
    r.backend = opt.backend;
    r.has_graph = true;
    r.graph = stats[i];
    r.has_sim = true;
    r.p = kind == SchedKind::kSeq ? 1 : opt.sim.p;
    r.M = opt.sim.M;
    r.B = opt.sim.B;
    r.sim = per[i];
    if (opt.seq_baseline) {
      const Metrics& seq = kind == SchedKind::kSeq ? per[i] : base[i];
      r.has_baseline = true;
      r.q_seq = seq.cache_misses();
      r.seq_makespan = seq.makespan;
      r.cache_excess = excess(r.sim.cache_misses(), r.q_seq);
    }
    if (merged.streaming()) {
      const TraceStore::Stats st = merged.streams[i].store->stats();
      r.has_stream = true;
      r.trace_segments = st.segments;
      r.trace_spilled_bytes = st.spilled_bytes;
      r.trace_compressed_bytes = st.compressed_bytes;
      r.trace_peak_resident_bytes = st.peak_resident_bytes;
    }
    // Host time spent replaying this shard (main walk + its baseline walk),
    // so per-shard rows feed wall-clock tooling like any other RunReport.
    r.wall_ms = unit_wall[0][i] + (with_baseline ? unit_wall[1][i] : 0.0);
    br.runs.push_back(std::move(r));
  }

  // Shard-order aggregate: summed recording stats + merged metrics.
  RunReport& agg = br.aggregate;
  agg.label = opt.label;
  agg.backend = opt.backend;
  agg.has_graph = true;
  for (const GraphStats& st : stats) {
    agg.graph.work += st.work;
    agg.graph.span = std::max(agg.graph.span, st.span);
    agg.graph.max_depth = std::max(agg.graph.max_depth, st.max_depth);
    agg.graph.activations += st.activations;
    agg.graph.accesses += st.accesses;
    agg.graph.leaves += st.leaves;
  }
  agg.has_sim = true;
  agg.p = kind == SchedKind::kSeq ? 1 : opt.sim.p;
  agg.M = opt.sim.M;
  agg.B = opt.sim.B;
  agg.sim = merge_shard_metrics(per);
  fill_stream_stats(agg, merged);
  if (opt.seq_baseline) {
    const Metrics seq =
        kind == SchedKind::kSeq ? agg.sim : merge_shard_metrics(base);
    agg.has_baseline = true;
    agg.q_seq = seq.cache_misses();
    agg.seq_makespan = seq.makespan;
    agg.cache_excess = excess(agg.sim.cache_misses(), agg.q_seq);
  }
  br.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  agg.wall_ms = br.wall_ms;
  return br;
}

/// Capacity-shared batch (docs/serve.md): every shard replays on ONE
/// simulated machine — shared cores, caches, coherence directory — via
/// simulate_shared, with each miss/transfer charged to the span (tenant)
/// whose task performed it.  Per-shard rows carry the attribution instead
/// of per-machine Metrics; the aggregate carries the machine.  The p=1
/// baseline replays the same co-scheduled trace sequentially, so a
/// tenant's q_seq share is its contention-free miss count and
/// cache_excess is the capacity/coherence cost of sharing.
BatchReport finish_batch_shared(std::vector<TaskGraph> graphs,
                                const RunOptions& opt, double record_ms,
                                std::chrono::steady_clock::time_point t0) {
  BatchReport br;
  br.label = opt.label;
  br.backend = opt.backend;
  br.shards = static_cast<uint32_t>(graphs.size());
  br.replay_threads = opt.sim.replay_threads;
  br.capacity_shared = true;
  br.record_ms = record_ms;

  std::vector<GraphStats> stats;
  stats.reserve(graphs.size());
  for (const TaskGraph& g : graphs) stats.push_back(g.analyze());
  const TaskGraph merged = merge_shards(std::move(graphs));

  const SchedKind kind = sched_kind_of(opt.backend);
  const auto tr0 = std::chrono::steady_clock::now();
  std::vector<TenantShare> shares;
  const Metrics main = simulate_shared(merged, kind, opt.sim, &shares);
  std::vector<TenantShare> base_shares;
  Metrics base;
  if (opt.seq_baseline) {
    if (kind == SchedKind::kSeq) {
      base = main;
      base_shares = shares;
    } else {
      base = simulate_shared(merged, SchedKind::kSeq, opt.sim, &base_shares);
    }
  }
  br.replay_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - tr0)
                     .count();

  br.runs.reserve(shares.size());
  for (size_t i = 0; i < shares.size(); ++i) {
    RunReport r;
    r.label = opt.label + "#" + std::to_string(i);
    r.backend = opt.backend;
    r.has_graph = true;
    r.graph = stats[i];
    r.has_tenant = true;
    r.tenant = r.label;
    r.tenant_compute = shares[i].compute;
    r.tenant_cache_misses = shares[i].cache_misses;
    r.tenant_block_misses = shares[i].block_misses;
    r.tenant_transfers = shares[i].transfers;
    if (opt.seq_baseline) {
      r.has_baseline = true;
      r.q_seq = base_shares[i].cache_misses;  // p=1: no coherence share
      r.seq_makespan = base.makespan;         // machine-wide (co-scheduled)
      r.cache_excess = excess(r.tenant_cache_misses, r.q_seq);
    }
    br.runs.push_back(std::move(r));
  }

  // The aggregate IS the machine: one shared simulator instance.
  RunReport& agg = br.aggregate;
  agg.label = opt.label;
  agg.backend = opt.backend;
  agg.has_graph = true;
  for (const GraphStats& st : stats) {
    agg.graph.work += st.work;
    agg.graph.span = std::max(agg.graph.span, st.span);
    agg.graph.max_depth = std::max(agg.graph.max_depth, st.max_depth);
    agg.graph.activations += st.activations;
    agg.graph.accesses += st.accesses;
    agg.graph.leaves += st.leaves;
  }
  agg.has_sim = true;
  agg.p = kind == SchedKind::kSeq ? 1 : opt.sim.p;
  agg.M = opt.sim.M;
  agg.B = opt.sim.B;
  agg.sim = main;
  fill_stream_stats(agg, merged);
  if (opt.seq_baseline) {
    agg.has_baseline = true;
    agg.q_seq = base.cache_misses();
    agg.seq_makespan = base.makespan;
    agg.cache_excess = excess(agg.sim.cache_misses(), agg.q_seq);
  }
  br.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  agg.wall_ms = br.wall_ms;
  return br;
}

/// One shard's results from a pipelined batch chain (record -> analyze ->
/// replay with no cross-shard barriers).
struct BatchShard {
  TaskGraph g;
  GraphStats stats;
  Metrics main;
  Metrics base;           // p=1 baseline (valid when the batch asks for it)
  double record_ms = 0;   // host time this chain spent recording
  double replay_ms = 0;   // host time replaying (main + baseline)
  double wall_ms = 0;     // the chain end to end (incl. analyze)
};

BatchReport finish_batch_pipelined(std::vector<BatchShard> sh,
                                   const RunOptions& opt,
                                   std::chrono::steady_clock::time_point t0) {
  BatchReport br;
  br.label = opt.label;
  br.backend = opt.backend;
  br.shards = static_cast<uint32_t>(sh.size());
  br.replay_threads = opt.sim.replay_threads;
  br.pipelined = true;
  const SchedKind kind = sched_kind_of(opt.backend);
  const bool with_baseline = opt.seq_baseline && kind != SchedKind::kSeq;

  std::vector<Metrics> per, base;
  per.reserve(sh.size());
  base.reserve(sh.size());
  br.runs.reserve(sh.size());
  for (size_t i = 0; i < sh.size(); ++i) {
    BatchShard& s = sh[i];
    br.record_ms += s.record_ms;  // cumulative busy times: see report.h
    br.replay_ms += s.replay_ms;
    RunReport r;
    r.label = opt.label + "#" + std::to_string(i);
    r.backend = opt.backend;
    r.has_graph = true;
    r.graph = s.stats;
    r.has_sim = true;
    r.p = kind == SchedKind::kSeq ? 1 : opt.sim.p;
    r.M = opt.sim.M;
    r.B = opt.sim.B;
    r.sim = s.main;
    if (opt.seq_baseline) {
      const Metrics& seq = with_baseline ? s.base : s.main;
      r.has_baseline = true;
      r.q_seq = seq.cache_misses();
      r.seq_makespan = seq.makespan;
      r.cache_excess = excess(r.sim.cache_misses(), r.q_seq);
    }
    fill_stream_stats(r, s.g);
    r.wall_ms = s.replay_ms;  // host time replaying this shard, as serial
    per.push_back(s.main);
    if (with_baseline) base.push_back(s.base);
    br.runs.push_back(std::move(r));
  }

  // Shard-order aggregate — field for field what finish_batch emits, so
  // serial and pipelined batches are comparable row by row.
  RunReport& agg = br.aggregate;
  agg.label = opt.label;
  agg.backend = opt.backend;
  agg.has_graph = true;
  for (const BatchShard& s : sh) {
    agg.graph.work += s.stats.work;
    agg.graph.span = std::max(agg.graph.span, s.stats.span);
    agg.graph.max_depth = std::max(agg.graph.max_depth, s.stats.max_depth);
    agg.graph.activations += s.stats.activations;
    agg.graph.accesses += s.stats.accesses;
    agg.graph.leaves += s.stats.leaves;
  }
  agg.has_sim = true;
  agg.p = kind == SchedKind::kSeq ? 1 : opt.sim.p;
  agg.M = opt.sim.M;
  agg.B = opt.sim.B;
  agg.sim = merge_shard_metrics(per);
  for (const BatchShard& s : sh) fill_stream_stats(agg, s.g);
  if (opt.seq_baseline) {
    const Metrics seq = with_baseline ? merge_shard_metrics(base) : agg.sim;
    agg.has_baseline = true;
    agg.q_seq = seq.cache_misses();
    agg.seq_makespan = seq.makespan;
    agg.cache_excess = excess(agg.sim.cache_misses(), agg.q_seq);
  }
  br.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  agg.wall_ms = br.wall_ms;
  return br;
}

/// Pipelined batch: one independent record -> analyze -> replay chain per
/// shard on a host pool, no phase barriers — shard i replays while shard j
/// still records, and each shard's store compresses and spills behind its
/// recorder (async_spill).  Replaying each shard's own single-shard graph
/// is bit-identical to replaying its span of the merged graph (the PR3
/// per-shard determinism guarantee), which is what makes skipping
/// merge_shards sound.
BatchReport run_batch_pipelined(const std::vector<AnyProg>& progs,
                                const RunOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const uint32_t n = static_cast<uint32_t>(progs.size());
  ShardedVSpace ssp(n, opt.align_words);
  const SchedKind kind = sched_kind_of(opt.backend);
  const bool with_baseline = opt.seq_baseline && kind != SchedKind::kSeq;
  std::vector<BatchShard> sh(n);
  auto chain = [&](size_t i) {
    const auto c0 = std::chrono::steady_clock::now();
    TraceCtx::Options topt;
    topt.padded = opt.padded;
    if (opt.trace.segment_tasks > 0) {
      TraceStore::Options so = opt.trace.store_options();
      so.async_spill = true;  // spill/compress behind this recorder
      topt.store = std::make_shared<TraceStore>(so);
    }
    ShardCtx cx(ssp, static_cast<uint32_t>(i), topt);
    detail::EngineCtx<TraceCtx> ec(cx);
    progs[i](ec);
    sh[i].g = std::move(ec.graph());
    const auto c1 = std::chrono::steady_clock::now();
    sh[i].stats = sh[i].g.analyze();
    const auto c2 = std::chrono::steady_clock::now();
    SimConfig scfg = opt.sim;
    scfg.replay_threads = 1;  // the chain is the unit of parallelism
    sh[i].main = simulate(sh[i].g, kind, scfg);
    if (with_baseline) {
      sh[i].base = simulate(sh[i].g, SchedKind::kSeq, scfg);
    }
    const auto c3 = std::chrono::steady_clock::now();
    sh[i].record_ms =
        std::chrono::duration<double, std::milli>(c1 - c0).count();
    sh[i].replay_ms =
        std::chrono::duration<double, std::milli>(c3 - c2).count();
    sh[i].wall_ms = std::chrono::duration<double, std::milli>(c3 - c0).count();
  };
  const uint32_t threads = replay_host_threads(opt.sim.replay_threads, n);
  if (threads <= 1) {
    for (uint32_t i = 0; i < n; ++i) chain(i);
  } else {
    rt::Pool pool(threads, rt::StealPolicy::kRandom);
    rt::parallel_index(pool, n, chain);
  }
  return finish_batch_pipelined(std::move(sh), opt, t0);
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
/// kError result — a bad SPMS tuning included, which alg::spms would
/// otherwise RO_CHECK mid-record.
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
  if (spec.opt.sim.p < 1 || spec.opt.sim.p > 64) {
    fail(jr, "sim p must be in [1, 64]");
    return false;
  }
  if (spec.opt.sim.B == 0 || spec.opt.sim.M / spec.opt.sim.B < 1) {
    fail(jr, "sim cache must hold >= 1 block");
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

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The pool configuration a parallel run asks for, from the options alone
/// (threads = 0 means hardware concurrency).
PoolKey pool_key_of(const RunOptions& opt) {
  PoolKey key;
  key.policy = Engine::steal_policy_of(opt.backend);
  key.threads = opt.threads != 0 ? opt.threads : hw_threads();
  if (backend_is_numa(opt.backend)) {
    key.numa = true;
    // Canonical group count: 0 resolves to one group per detected node, so
    // "auto" and the explicit detected count share one cache entry (the
    // layouts are identical — rt::numa_group_layout).
    key.groups = rt::numa_group_layout(key.threads, opt.numa_groups).groups();
    key.escape = opt.numa_escape;
    key.pin = opt.numa_pin;
  }
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

TaskGraph Engine::record_graph(const AnyProg& prog,
                               const StreamOptions* stream, bool padded,
                               uint64_t align_words, uint32_t shard) {
  TraceCtx::Options topt;
  topt.padded = padded;
  topt.align_words = align_words;
  topt.shard = shard;
  if (stream != nullptr) {
    topt.store = std::make_shared<TraceStore>(stream->store_options());
  }
  TraceCtx cx(topt);
  detail::EngineCtx<TraceCtx> ec(cx);
  prog(ec);
  return std::move(ec.graph());
}

RunReport Engine::run_one(const AnyProg& prog, const RunOptions& opt) {
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
      const TaskGraph g =
          record_graph(prog, st.segment_tasks > 0 ? &st : nullptr, opt.padded,
                       opt.align_words, opt.shard);
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
      fill_stream_stats(r, g);  // post-replay: loads included
      break;
    }
    case Backend::kParRandom:
    case Backend::kParPriority:
    case Backend::kParNumaRandom:
    case Backend::kParNumaPriority: {
      // Exclusive lease: concurrent submits wanting the same configuration
      // get sibling pools instead of racing on one (Pool::run is not
      // reentrant).
      PoolCache::Lease lease = pool_cache_.acquire(pool_key_of(opt));
      rt::Pool& pool = lease.pool();
      const rt::PoolStats before = pool.stats();
      rt::ParCtx cx(pool, opt.serial_below);
      detail::EngineCtx<rt::ParCtx> ec(cx);
      prog(ec);
      const rt::PoolStats after = pool.stats();
      r.has_pool = true;
      r.threads = pool.threads();
      r.pool_steals = after.steals - before.steals;
      r.pool_failed_steals = after.failed_steals - before.failed_steals;
      r.pool_groups = pool.groups();
      r.pool_local_steals = after.local_steals - before.local_steals;
      r.pool_remote_steals = after.remote_steals - before.remote_steals;
      r.pool_group_local_steals.resize(after.group_local.size());
      r.pool_group_remote_steals.resize(after.group_remote.size());
      for (size_t g = 0; g < after.group_local.size(); ++g) {
        r.pool_group_local_steals[g] =
            after.group_local[g] - before.group_local[g];
        r.pool_group_remote_steals[g] =
            after.group_remote[g] - before.group_remote[g];
      }
      break;
    }
  }
  r.wall_ms = ms_since(t0);
  return r;
}

BatchReport Engine::run_batch_any(const std::vector<AnyProg>& progs,
                                  const RunOptions& opt) {
  // Capacity sharing needs the merged co-scheduled trace, so it takes the
  // serial record path even when pipelining is requested.
  if (opt.pipeline && !opt.capacity_shared) {
    return run_batch_pipelined(progs, opt);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const uint32_t n = static_cast<uint32_t>(progs.size());
  ShardedVSpace ssp(n, opt.align_words);
  std::vector<TaskGraph> graphs(n);
  auto record_one = [&](size_t i) {
    TraceCtx::Options topt;
    topt.padded = opt.padded;
    if (opt.trace.segment_tasks > 0) {
      // One chunked store per shard: shards spill and stream
      // independently, so the batch's resident bound scales with the
      // window x live recorders, not with the trace.
      topt.store = std::make_shared<TraceStore>(opt.trace.store_options());
    }
    ShardCtx cx(ssp, static_cast<uint32_t>(i), topt);
    detail::EngineCtx<TraceCtx> ec(cx);
    progs[i](ec);
    graphs[i] = std::move(ec.graph());
  };
  const uint32_t rec_threads = replay_host_threads(opt.sim.replay_threads, n);
  if (rec_threads <= 1) {
    for (uint32_t i = 0; i < n; ++i) record_one(i);
  } else {
    rt::Pool pool(rec_threads, rt::StealPolicy::kRandom);
    rt::parallel_index(pool, n, record_one);
  }
  const double record_ms = ms_since(t0);
  if (opt.capacity_shared) {
    return finish_batch_shared(std::move(graphs), opt, record_ms, t0);
  }
  return finish_batch(std::move(graphs), opt, record_ms, t0);
}

JobResult Engine::submit(const JobSpec& spec) {
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
      JobResult jr = start_result(next_job_id_.fetch_add(1), spec);
      fail(jr, "unknown workload \"" + spec.workload + "\"");
      return jr;
    }
    return execute(start_result(next_job_id_.fetch_add(1), spec), spec,
                   progs);
  }
  const AnyProg prog = make_workload(spec.workload, spec.n, spec.seed, spms);
  if (!prog) {
    JobResult jr = start_result(next_job_id_.fetch_add(1), spec);
    fail(jr, "unknown workload \"" + spec.workload + "\"");
    return jr;
  }
  return execute(start_result(next_job_id_.fetch_add(1), spec), spec, prog);
}

JobResult Engine::submit(const JobSpec& spec, const AnyProg& prog) {
  JobResult jr = start_result(next_job_id_.fetch_add(1), spec);
  if (refuse_spms_override(spec, jr)) return jr;
  return execute(std::move(jr), spec, prog);
}

JobResult Engine::submit(const JobSpec& spec,
                         const std::vector<AnyProg>& progs) {
  JobResult jr = start_result(next_job_id_.fetch_add(1), spec);
  if (refuse_spms_override(spec, jr)) return jr;
  return execute(std::move(jr), spec, progs);
}

JobResult Engine::execute(JobResult jr, const JobSpec& spec,
                          const AnyProg& prog) {
  if (!check_spec(spec, jr)) return jr;
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
  if (spec.kind == JobKind::kRun) {
    jr.report = run_one(prog, spec.opt);
  } else {  // kDiagnose: record here, then run the doctor loop
    StreamOptions st = spec.opt.trace;
    const TaskGraph g =
        record_graph(prog, st.segment_tasks > 0 ? &st : nullptr,
                     spec.opt.padded, spec.opt.align_words, spec.opt.shard);
    jr.doctor = diagnose(g, spec.opt.backend, spec.opt.sim, spec.doc,
                         spec.opt.label);
    jr.has_doctor = true;
  }
  jr.exec_ms = ms_since(t0);
  return jr;
}

JobResult Engine::execute(JobResult jr, const JobSpec& spec,
                          const std::vector<AnyProg>& progs) {
  if (!check_spec(spec, jr)) return jr;
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
  jr.batch = run_batch_any(progs, spec.opt);
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
