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
// Two machines replay these.  Every one-core replay — kSeq, and kPws / kRws
// at p = 1, which can never steal and so walk identically — is a
// depth-first loop: left child before right, an explicit stack, one cache,
// one "ever loaded" bit per block, and no deque, directory or steal
// machinery.  The multi-core scheduler (p >= 2) runs kPws and kRws with
// work-stealing semantics that follow §2 exactly: forked right children go
// to the bottom of the owner's deque, owners resume their own bottom entry
// first, thieves take from the top, and the last child to finish a join
// continues the parent (usurpation, Def 4.1).  Both inject the fork/join
// bookkeeping traffic (two frame-slot writes at a fork, a result write
// into the parent frame at child completion, two reads at the join)
// because its addresses depend on which arena the activation's frame
// landed on, and both charge it in the same order, so a one-core walk's
// Metrics are exactly what the work-stealing rules give on one core (the
// one-core goldens in tests/test_sched.cpp pin this).
//
// ## Host parallelism
//
// One walk is one recording's full priority-round sequence on its own
// simulated machine (own cores, caches, Directory, arenas), and it is
// inherently sequential: every access consults the coherence directory,
// and any finer-grained interleaving would change miss classification and
// transfer counts — exactly the false-sharing effects the simulator exists
// to count.  simulate() is therefore one sequential walk of one graph.
// Host parallelism sits one level up, across independent walks, and
// `SimConfig::replay_threads` sizes it: shards share no addresses
// (vspace.h bit split) and no activations, so Engine::run_batch runs one
// record -> analyze -> replay chain per shard on that many host threads
// and merges their Metrics in shard order (merge_shard_metrics); a
// one-chain job (a run, Engine::replay) overlaps its walk with its p = 1
// baseline instead.  No walk's
// Metrics depend on the thread that ran it, so every replay_threads value
// (including 1, all walks on the caller) yields bit-identical Metrics.
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
// grain instead: write-behind segment spilling in every record -> analyze
// -> replay chain (a batch's shards already replay while others record;
// a run is the one-shard chain).  Metrics are unaffected: every walk
// consumes the same sealed records.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ro/core/graph.h"
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

  // Host threads for independent walks: a batch's shard chains, or a
  // one-chain job's main replay and its p = 1 baseline (see header
  // comment).  1 = all walks on the caller (default), 0 = hardware
  // concurrency.  A host knob, not a machine parameter: it never appears
  // in Metrics, and every value produces bit-identical results.
  uint32_t replay_threads = 1;

  // Optional per-line coherence attribution (sim/contention.h): when
  // non-null, replay additionally records every invalidation, coherence
  // miss and block transfer on *data* addresses per (line, word, task)
  // into this profile (accumulated, never cleared).  A walk writes it
  // without a lock, so concurrent walks each need their own; Engine's
  // batch chains record into per-shard locals merged back in shard order
  // (task ids are then shard-local; lines stay apart by their
  // shard-tagged addresses), and the p = 1 baseline never records.  The profile — like Metrics —
  // is bit-identical for every replay_threads value.  A host-side
  // observer: it never changes Metrics.
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
/// for kRws at fixed seed.  One sequential walk on the calling thread.
Metrics simulate(const TaskGraph& g, SchedKind kind, const SimConfig& cfg);

/// Per-tenant share of a capacity-shared replay (simulate_shared): every
/// counter is attributed to the tenant whose task performed the event, so
/// sums over tenants equal the machine-wide Metrics totals.
struct TenantShare {
  uint64_t compute = 0;       // words touched by this tenant's tasks
  uint64_t cache_misses = 0;  // cold + capacity misses (data + stack)
  uint64_t block_misses = 0;  // coherence misses
  uint64_t transfers = 0;     // cache-to-cache transfers this tenant caused
  friend bool operator==(const TenantShare&, const TenantShare&) = default;
};

/// Capacity-shared replay: the tenants' recordings run on ONE simulated
/// machine — shared cores, one set of private caches, one coherence
/// directory — instead of a machine each.  Tenants contend for cache
/// capacity and steal across each other's task trees; per-tenant offsets
/// keep their address ranges disjoint, so all contention is capacity and
/// scheduling, never aliasing.  Tenant 0's root starts on core 0; the
/// other roots are seeded round-robin onto core deques before the walk,
/// stealable like any fork (one core runs them in tenant order).  The
/// tenants must occupy distinct shards and share one allocation
/// alignment; anything else aborts.  Deterministic for every SchedKind at
/// fixed seed (the walk is one sequential unit; replay_threads does not
/// apply).  When `shares` is non-null it is resized to the tenant count
/// and filled with per-tenant attribution; a ContentionProfile keys tasks
/// by their tenant's own activation ids.  One tenant degenerates to
/// exactly simulate()'s machine and Metrics.
Metrics simulate_shared(std::span<const TaskGraph> tenants, SchedKind kind,
                        const SimConfig& cfg,
                        std::vector<TenantShare>* shares = nullptr);

/// Resolves a replay_threads request against a number of independent
/// walks: 0 = hardware concurrency, then clamped to `units`.
uint32_t replay_host_threads(uint32_t requested, size_t units);

const char* sched_name(SchedKind k);

}  // namespace ro
