// RunReport — the unified result record of one Engine execution.
//
// One struct covers every backend: the recording stats of the trace (sim
// backends), the full simulator Metrics, the p=1 sequential baseline that
// turns raw miss counts into the paper's excess, and the real-thread
// rt::PoolStats.  The scalar view serializes to JSON so bench trajectories
// can be accumulated across commits; the embedded `sim` Metrics keeps the
// long tail of observables (per-core counters, steal histograms, block
// transfer stats) available to specialized benches without widening the
// JSON schema.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ro/core/graph.h"
#include "ro/sim/metrics.h"
#include "ro/util/flatjson.h"

namespace ro {

enum class Backend : uint8_t {
  kSeq = 0,         // direct execution through SeqCtx (golden outputs)
  kSimPws = 1,      // record once, replay under Priority Work Stealing
  kSimRws = 2,      // record once, replay under Randomized Work Stealing
  kParRandom = 3,   // real threads, random-victim stealing
  kParPriority = 4, // real threads, priority (smallest fork depth) stealing
};

inline constexpr Backend kAllBackends[] = {Backend::kSeq, Backend::kSimPws,
                                           Backend::kSimRws,
                                           Backend::kParRandom,
                                           Backend::kParPriority};

/// The Backend wire names: "seq" / "sim-pws" / "sim-rws" / "par-random" /
/// "par-priority", and the aliases readers accept: "pws", "rws", "random",
/// "priority", and the retired "par-numa-random" / "par-numa-priority"
/// (and "numa-random" / "numa-priority"), which parse as par-random /
/// par-priority: every pool now groups its workers by the host topology,
/// so old specs keep running.
json::EnumNames<Backend> wire_names(Backend);

inline const char* backend_name(Backend b) { return json::enum_name(b); }
bool backend_is_sim(Backend b);       // replays a recorded trace
bool backend_is_parallel(Backend b);  // runs on real threads
/// Parses a canonical name or an alias (wire_names above).  Returns false
/// and leaves `out` untouched on unknown names.
inline bool parse_backend(const std::string& name, Backend& out) {
  return json::parse_enum(name, out);
}

struct RunReport {
  std::string label;                  // caller-chosen workload name
  Backend backend = Backend::kSeq;
  // Host wall-clock of the whole run.  A per-shard row of a BatchReport
  // instead carries the host ms spent replaying that shard (its main walk
  // plus its p=1 baseline walk); 0 under capacity sharing, where all
  // shards replay as one unit.
  double wall_ms = 0;

  // ---- recording stats (backends that trace the computation) ----
  bool has_graph = false;
  GraphStats graph;

  // ---- simulated machine & metrics (sim backends) ----
  bool has_sim = false;
  uint32_t p = 0;
  uint64_t M = 0;
  uint32_t B = 0;
  Metrics sim;                        // full simulator observables

  // ---- p=1 replay baseline (sim backends, when requested) ----
  bool has_baseline = false;
  uint64_t q_seq = 0;                 // sequential cache complexity Q(n,M,B)
  uint64_t seq_makespan = 0;
  uint64_t cache_excess = 0;          // max(0, cache_misses - q_seq)

  // ---- real-thread pool (parallel backends) ----
  bool has_pool = false;
  uint32_t threads = 0;
  uint64_t pool_steals = 0;
  uint64_t pool_failed_steals = 0;
  uint32_t pool_groups = 0;           // worker groups (1 = flat pool)
  uint64_t pool_local_steals = 0;     // victim in the thief's group
  uint64_t pool_remote_steals = 0;    // victim in another group
  // Per-group steal histogram (thief's group; size = pool_groups).  The
  // element sums equal pool_local_steals / pool_remote_steals.
  std::vector<uint64_t> pool_group_local_steals;
  std::vector<uint64_t> pool_group_remote_steals;

  // ---- contention profile summary (profiled replays: Engine::diagnose
  // and SimConfig::profile) — the scalar shadow of the full per-line
  // ContentionProfile, for bench trajectories and gates.  Readers of older
  // reports default all three to zero (report_from_json never fails on a
  // missing or unknown field). ----
  bool has_contention = false;
  uint64_t fs_false_events = 0;  // invalidations at distinct words of a line
  uint64_t fs_true_events = 0;   // invalidations at the same word
  uint64_t fs_hot_lines = 0;     // lines with >= 1 false-sharing event

  // ---- per-tenant attribution (capacity-shared batch replay: all shards
  // on ONE simulated machine, each counter charged to the tenant whose
  // task performed the event; docs/serve.md).  Sums over a batch's runs
  // equal the aggregate's machine-wide totals. ----
  bool has_tenant = false;
  std::string tenant;                 // tenant id (serve jobs; may be empty)
  uint64_t tenant_compute = 0;        // words touched by this tenant
  uint64_t tenant_cache_misses = 0;   // cold + capacity misses
  uint64_t tenant_block_misses = 0;   // coherence misses
  uint64_t tenant_transfers = 0;      // cache-to-cache transfers caused

  // ---- streaming trace store (RunOptions::trace, sim backends) ----
  bool has_stream = false;
  uint64_t trace_segments = 0;             // trace segments recorded
  uint64_t trace_spilled_bytes = 0;        // record bytes spilled (raw size)
  uint64_t trace_compressed_bytes = 0;     // physical spill-file bytes
  uint64_t trace_peak_resident_bytes = 0;  // resident-window high-water

  /// Simulated speedup over the p=1 baseline (0 when not applicable).
  double sim_speedup() const;

  /// Spill compression ratio raw/physical (0 when nothing spilled).
  /// Derived like sim_speedup: emitted to JSON, recomputed on parse.
  double trace_compression_ratio() const;

  /// Flat JSON object with every populated scalar field.
  std::string to_json() const;
};

/// JSON array of reports — the BENCH_*.json format.
std::string reports_to_json(const std::vector<RunReport>& reports);

/// Parses a flat RunReport JSON object (the to_json format) back into a
/// report.  Aggregated simulator counters are reconstructed into a single
/// synthetic core, so every derived observable that to_json emits
/// (cache_misses, stack_misses, sim_speedup, ...) round-trips exactly:
/// report_from_json(r.to_json()).to_json() == r.to_json().  Returns false
/// on malformed JSON or inconsistent counters; `out` is then unspecified.
/// This is the seam the bench-history tooling and BatchReport aggregation
/// rest on.  Both directions walk one field list (report.cpp).
bool report_from_json(const std::string& json, RunReport& out);

/// The result of one Engine::run_batch: per-shard RunReports (shard order)
/// plus the shard-order aggregate, with the batch phase timings.
struct BatchReport {
  std::string label;
  Backend backend = Backend::kSimPws;
  uint32_t shards = 0;
  uint32_t replay_threads = 1;  // requested host parallelism (0 = auto)
  bool pipelined = false;       // RunOptions::pipeline was on
  bool capacity_shared = false; // one shared simulated machine for all
                                // shards (RunOptions::capacity_shared)
  double wall_ms = 0;           // record + replay, end to end
  // Phase timings.  The per-shard chains have no phase barriers, so these
  // are cumulative per-shard busy times (their sum can exceed wall_ms —
  // that overlap is the point).  Capacity-shared batches record every
  // shard before the one shared replay: there they are the wall clock of
  // the two phases.
  double record_ms = 0;
  double replay_ms = 0;

  std::vector<RunReport> runs;  // one per shard, in shard order (wall_ms:
                                // that shard's replay time, see RunReport)
  RunReport aggregate;          // shard-order merge (deterministic)

  /// Nested JSON: batch scalars + "aggregate" object + "runs" array.
  std::string to_json() const;
};

/// Parses a BatchReport JSON object (the to_json format): batch scalars,
/// the "aggregate" object and every "runs" element go through
/// report_from_json, so the same round-trip guarantee holds.  Unknown keys
/// are skipped; returns false on malformed JSON.
bool batch_from_json(const std::string& json, BatchReport& out);

}  // namespace ro
