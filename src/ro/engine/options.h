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

/// Streaming trace pipeline knobs (RunOptions::trace): when segment_tasks
/// is nonzero, sim-backend recordings go through a chunked ro::TraceStore
/// (fixed-capacity trace segments, bounded resident window, sealed
/// segments spilled to disk) instead of the monolithic in-memory access
/// vector, and replay streams them back through cursors — bit-identical
/// Metrics, bounded memory (docs/streaming.md).
struct StreamOptions {
  uint64_t segment_tasks = 0;          // records per trace segment;
                                       // 0 = classic in-memory recording
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
  uint64_t align_words = 4096;  // VSpace allocation alignment
  uint32_t shard = 0;           // address shard to record into (vspace.h)
  bool seq_baseline = true;     // also replay at p=1 for Q(n,M,B) + excess
  StreamOptions trace;          // streaming trace pipeline (off by default)
  // Record-while-replay pipelining.  Engine::run overlaps the stream
  // analysis pass with the replay walks and spills/compresses trace
  // segments behind the recorder (TraceStore async_spill), so the wall
  // clock approaches record + max(analyze, replay) instead of their sum.
  // Batch submissions turn each shard into an independent
  // record -> analyze -> replay chain with no phase barriers: shard 0
  // replays while shard 1 is still recording.  Metrics stay bit-identical
  // to the serial pipeline (asserted in tests/test_stream.cpp); only
  // trace_peak_resident_bytes becomes timing-dependent, since spilling
  // and replay reloads now overlap.
  bool pipeline = false;

  // ---- batch submissions only ----
  // Capacity-shared multi-tenant replay (docs/serve.md): instead of one
  // simulated machine per shard, ALL shards of the batch replay on ONE
  // machine — shared cores, caches and coherence directory — with
  // per-tenant miss/transfer attribution in the per-shard reports.  The
  // interesting service scenario: co-admitted tenants contending for one
  // cache.  Implies the serial (non-pipelined) batch path.
  bool capacity_shared = false;

  // ---- parallel backends ----
  // Pool size.  0 = hardware concurrency.
  unsigned threads = 0;
  uint64_t serial_below = 1 << 12;  // ParCtx serial cutoff, words

  // ---- NUMA backends (par-numa-random / par-numa-priority) ----
  uint32_t numa_groups = 0;       // worker groups; 0 = one per detected node
  double numa_escape = 1.0 / 16;  // random flavor cross-group steal prob
  bool numa_pin = false;          // pin workers to their node's cpus (Linux)

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
