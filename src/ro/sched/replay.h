// Scheduler replay engine.
//
// Replays a recorded TaskGraph on a simulated machine with p cores, private
// LRU caches of M words, blocks of B words, write-invalidate coherence and a
// configurable miss latency b — the machine of §1/§2.  Three schedulers:
//
//   kSeq — one core, depth-first.  Its cold+capacity misses are the
//          sequential cache complexity Q(n, M, B).
//   kPws — Priority Work Stealing (§4): an idle core steals the stealable
//          task of globally highest priority (smallest fork depth; ties by
//          victim id).  This is the executable rendering of the paper's
//          priority rounds; the distributed O(log p)-per-round machinery of
//          §4.7 is charged through `steal_latency`.
//   kRws — randomized work stealing baseline: uniformly random victim,
//          steal the top of its deque (the setting of [18, 6] and the
//          companion paper [13]).
//
// Work-stealing semantics follow §2 exactly: forked right children go to the
// bottom of the owner's deque, owners resume their own bottom entry first,
// thieves take from the top, and the last child to finish a join continues
// the parent (usurpation, Def 4.1).  Fork/join bookkeeping traffic (two
// frame-slot writes at a fork, a result write into the parent frame at child
// completion, two reads at the join) is injected here because its addresses
// depend on which arena the activation's frame landed on.
//
// ## Parallel replay (sharded)
//
// The *unit* of host parallelism is one shard's full priority-round
// sequence on its own simulated machine (own cores, caches, Directory,
// arenas).  Within a unit the walk is inherently sequential: every access
// consults the coherence directory, and any finer-grained interleaving
// would change miss classification and transfer counts — exactly the
// false-sharing effects the simulator exists to count.  Shards, however,
// share no addresses (vspace.h bit split) and no activations, so their
// round sequences commute: with `SimConfig::replay_threads > 1` the shard
// units of a merged batch graph — and independent jobs such as the main
// replay and its p = 1 baseline — run on real rt::Pool threads, and the
// per-core Cache/Directory observables of each unit are merged into one
// Metrics at the final round barrier *in shard order*.  That canonical
// merge order is the determinism guarantee: any replay_threads value
// (including 1, the plain sequential walk) yields bit-identical Metrics.
//
// ## Record-while-replay pipelining
//
// The replayer never needs the whole trace up front: its stream cursors
// fault one sealed TraceStore segment at a time, and TraceStore lets a
// fault *block on the seal watermark* until the recorder seals that
// segment (trace_store.h).  Within one shard the walk still has to wait
// for recording to finish — start_act charges the activation's
// frame_words, which the recorder only knows at the activation's end —
// so Engine-level pipelining (RunOptions::pipeline) overlaps at coarser
// grain instead: per-shard record -> analyze -> replay chains in
// run_batch (shard i replays while shard j records) and an
// analyze-vs-replay overlap plus write-behind segment spilling in run.
// Metrics are unaffected: every walk consumes the same sealed records.
#pragma once

#include <cstdint>
#include <vector>

#include "ro/core/graph.h"
#include "ro/rt/numa.h"
#include "ro/sim/metrics.h"

namespace ro {

class AddressRemap;       // core/remap.h
class ContentionProfile;  // sim/contention.h

enum class SchedKind : uint8_t { kSeq, kPws, kRws };

struct SimConfig {
  uint32_t p = 4;              // cores, <= 64
  uint64_t M = 1 << 14;        // private cache size, words
  uint32_t B = 64;             // block size, words
  uint32_t miss_latency = 32;  // b, cycles per L2/memory miss
  // s_P / s_C: cycles per steal (attempt).  0 = auto: b * (1 + ceil(log2 p)),
  // the padded-HBP distributed-PWS cost of §4.7.
  uint32_t steal_latency = 0;
  bool inject_frame_traffic = true;  // fork/join stack bookkeeping
  uint64_t seed = 0x5EED;            // RWS victim RNG
  uint64_t chunk_words = 1 << 14;    // arena chunk granularity

  // §5.2 cache hierarchy: when M2 > 0, each core also owns a 1/p partition
  // of a shared level-2 cache of M2 words (the paper's "simple but
  // non-optimal" partitioned use of a shared cache).  An L1 miss that hits
  // the L2 partition costs l2_latency instead of miss_latency.
  uint64_t M2 = 0;
  uint32_t l2_latency = 8;

  // §5.1 2-core block sharing mitigation: after a write, the writer holds
  // the block for `write_hold` cycles; another core fetching it waits until
  // the hold expires, letting the writer finish its run of writes instead
  // of ping-ponging per word.  0 = plain invalidation protocol.
  uint32_t write_hold = 0;

  // Host threads replaying shard units (see header comment).  1 = the
  // sequential walk (default), 0 = hardware concurrency.  A host knob, not
  // a machine parameter: it never appears in Metrics, and every value
  // produces bit-identical results.
  uint32_t replay_threads = 1;

  // NUMA-aware host replay pool: when the layout is non-empty, the
  // replay_threads workers are partitioned into its groups exactly like
  // the par-numa backends (rt::numa_group_layout derives one from the
  // host topology, GroupLayout::contiguous forces a count).  A layout
  // sized for a different worker count than the effective (unit-clamped)
  // one falls back to a contiguous split with the same group count.
  // `replay_pin` additionally pins replay workers to their group's node
  // cpus.  Host knobs like replay_threads: never visible in Metrics.
  rt::GroupLayout replay_layout;
  bool replay_pin = false;

  // Optional per-line coherence attribution (sim/contention.h): when
  // non-null, replay additionally records every invalidation, coherence
  // miss and block transfer on *data* addresses per (line, word, task)
  // into this profile (accumulated, never cleared).  Parallel shard units
  // record into per-unit locals merged back in shard order, so the
  // profile — like Metrics — is bit-identical for every replay_threads
  // value.  A host-side observer: it never changes Metrics.
  ContentionProfile* profile = nullptr;

  // Optional trace transformation (core/remap.h): when non-null, every
  // recorded data address is remapped at cursor read time, before the
  // shard rebase — a repaired layout replays straight off the original
  // stored segments.  Frame/stack addresses are unaffected.  Deliberately
  // *does* change Metrics (that is the point of a repair), but
  // deterministically: same remap, same Metrics, any replay_threads.
  const AddressRemap* remap = nullptr;

  uint32_t effective_steal_latency() const;
};

/// Replays `g` under the given scheduler; deterministic for kSeq/kPws and
/// for kRws at fixed seed, for every replay_threads value.  A merged batch
/// graph replays its shards in parallel and returns the shard-order merge
/// (merge_shard_metrics).
Metrics simulate(const TaskGraph& g, SchedKind kind, const SimConfig& cfg);

/// Per-tenant share of a capacity-shared replay (simulate_shared): every
/// counter is attributed to the shard span whose task performed the event,
/// so sums over tenants equal the machine-wide Metrics totals.
struct TenantShare {
  uint64_t compute = 0;       // words touched by this tenant's tasks
  uint64_t cache_misses = 0;  // cold + capacity misses (data + stack)
  uint64_t block_misses = 0;  // coherence misses
  uint64_t transfers = 0;     // cache-to-cache transfers this tenant caused
  friend bool operator==(const TenantShare&, const TenantShare&) = default;
};

/// Capacity-shared replay: all shard components of `g` run on ONE simulated
/// machine — shared cores, one set of private caches, one coherence
/// directory — instead of a machine per shard.  Tenants (= shard spans)
/// contend for cache capacity and steal across each other's task trees;
/// per-span offsets keep their address ranges disjoint, so all contention
/// is capacity and scheduling, never aliasing.  Span 0's root starts on
/// core 0; the other roots are seeded round-robin onto core deques before
/// the walk, stealable like any fork.  Deterministic for every SchedKind at
/// fixed seed (the walk is one sequential unit; replay_threads does not
/// apply).  When `shares` is non-null it is resized to the span count and
/// filled with per-tenant attribution.  A single-span graph degenerates to
/// exactly simulate()'s machine and Metrics.
Metrics simulate_shared(const TaskGraph& g, SchedKind kind,
                        const SimConfig& cfg,
                        std::vector<TenantShare>* shares = nullptr);

/// Per-shard metrics of `g`'s components, in shard order (one entry for a
/// classic single-shard graph).  `merge_shard_metrics` of the result equals
/// simulate()'s return.
std::vector<Metrics> simulate_shards(const TaskGraph& g, SchedKind kind,
                                     const SimConfig& cfg);

/// One independent replay request (used to overlap e.g. a PWS replay with
/// its p = 1 baseline walk on the same trace).
struct ReplayJob {
  const TaskGraph* g = nullptr;
  SchedKind kind = SchedKind::kSeq;
  SimConfig cfg;
};

/// Replays all jobs — each expanded into its shard units — on up to
/// `threads` pool workers; results in job order, each bit-identical to a
/// sequential simulate() of that job.  threads semantics match
/// SimConfig::replay_threads.
std::vector<Metrics> simulate_all(const std::vector<ReplayJob>& jobs,
                                  uint32_t threads);

/// Like simulate_all but without the per-job merge: result[j][s] is the
/// Metrics of job j's s-th shard span.  All units of all jobs share one
/// pool (configured from the first job's replay_layout/replay_pin), so
/// e.g. a batch's main replay and its p=1 baselines overlap.
/// When `wall_ms` is non-null it receives the host time each unit spent
/// replaying (same indexing), for per-shard reporting.
std::vector<std::vector<Metrics>> simulate_shards_all(
    const std::vector<ReplayJob>& jobs, uint32_t threads,
    std::vector<std::vector<double>>* wall_ms = nullptr);

/// Resolves a replay_threads request against a unit count: 0 = hardware
/// concurrency, then clamped to `units` (shared by the parallel record and
/// replay phases so both scale the same way).
uint32_t replay_host_threads(uint32_t requested, size_t units);

const char* sched_name(SchedKind k);

}  // namespace ro
