// Run configuration shared by every Engine entry point.  Split out of
// engine.h so the JobSpec wire contract (job.h) can carry a RunOptions
// without pulling in the Engine itself.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ro/alg/spms.h"
#include "ro/core/graph.h"
#include "ro/core/trace_store.h"
#include "ro/engine/report.h"
#include "ro/sched/replay.h"

namespace ro {

/// Trace chunking knobs (RunOptions::trace).  Every sim-backend recording
/// goes through a ro::TraceStore; when segment_tasks is nonzero it is one
/// with these options (fixed-capacity trace segments, bounded resident
/// window, sealed segments spilled to disk) and the reports carry its
/// statistics.  Replay streams the records back through cursors with
/// bit-identical Metrics either way (docs/streaming.md).
struct StreamOptions {
  uint64_t segment_tasks = 0;          // records per trace segment; 0 = a
                                       // default store: no window, never
                                       // spills, no trace_* report fields
  uint32_t max_resident_segments = 4;  // resident window (0 = unbounded)
  std::string spill_dir;               // "" = the system temp directory
  bool compress = true;                // delta/varint-encode spilled
                                       // segments (trace_codec.h)
  bool async_spill = false;            // background seal->compress->spill
                                       // worker (RunOptions::pipeline
                                       // turns this on automatically)

  TraceStore::Options store_options() const {
    TraceStore::Options o;
    o.segment_tasks = segment_tasks;
    o.max_resident_segments = max_resident_segments;
    o.spill_dir = spill_dir;
    o.compress = compress;
    o.async_spill = async_spill;
    return o;
  }
};

struct RunOptions {
  Backend backend = Backend::kSeq;
  std::string label;            // carried verbatim into the report

  // ---- sim backends ----
  SimConfig sim;                // simulated machine (p, M, B, latencies, ...)
                                // incl. replay_threads, the host-parallel
                                // record/replay knob (1 = sequential)
  bool padded = false;          // padded BP/HBP frames (Def 3.3)
  uint64_t align_words = 4096;  // VSpace allocation alignment (jobs: at
                                // most 2^14, the replay stack-chunk size)
  bool seq_baseline = true;     // also replay at p=1 for Q(n,M,B) + excess
  StreamOptions trace;          // streaming trace pipeline (off by default)
  // Write-behind spilling: every record -> analyze -> replay chain (a
  // run is the one-shard chain) compresses and spills sealed segments
  // behind its recorder (TraceStore async_spill).  Metrics stay
  // bit-identical either way (asserted in tests/test_stream.cpp); the
  // spill byte counts then cover every sealed segment, and
  // trace_peak_resident_bytes becomes timing-dependent, since spilling
  // and replay reloads now overlap.
  bool pipeline = false;

  // ---- batch submissions only ----
  // Capacity-shared multi-tenant replay (docs/serve.md): instead of one
  // simulated machine per shard, ALL shards of the batch replay on ONE
  // machine — shared cores, caches and coherence directory — with
  // per-tenant miss/transfer attribution in the per-shard reports.  The
  // interesting service scenario: co-admitted tenants contending for one
  // cache.  Records every shard before the one shared replay, so
  // `pipeline` does not apply.
  bool capacity_shared = false;

  // ---- parallel backends ----
  // Pool size.  0 = hardware concurrency.
  unsigned threads = 0;
  uint64_t serial_below = 1 << 12;  // ParCtx serial cutoff, words

  // ---- algorithm tuning ----
  // SPMS tuning (alg/spms.h SpmsTuning) for named workloads: submit builds
  // the sort-spms program under it, so jobs with different tunings run
  // concurrently.  Unset = the defaults.  A program handed to submit / run
  // carries its own tuning (the alg::spms / sort_by argument); setting
  // this for one is a kError.
  std::optional<alg::SpmsTuning> spms;
};

/// A recorded computation plus its derived stats (Engine::record).
struct Recording {
  TaskGraph graph;
  GraphStats stats;
};

/// The replay scheduler a (non-parallel) backend selects.
inline SchedKind sched_kind_of(Backend b) {
  return b == Backend::kSeq      ? SchedKind::kSeq
         : b == Backend::kSimPws ? SchedKind::kPws
                                 : SchedKind::kRws;
}

}  // namespace ro
