// The recorded computation: a fork-join activation graph with per-segment
// memory-access traces.
//
// An *activation* is one task τ of the multithreaded computation (Def 3.2 /
// 3.4).  Its execution is split into *segments* at fork points:
//
//   seg0 | fork(c0,c1) | seg1 | fork(c2,c3) | ... | segK (terminal)
//
// Work stealing operates on this structure exactly as in the paper: at a
// fork, the right child is pushed on the executing core's task queue (bottom)
// and the core descends into the left child; the last child to finish
// continues the next segment (the up-pass / usurpation rule, Def 4.1).
//
// Priorities: `depth` counts fork edges from the root.  In a balanced HBP
// computation all tasks at one depth have the same size up to constants
// (§4.1), so depth is a valid PWS priority (smaller depth = higher priority).
//
// The access records themselves live in chunked TraceStores
// (trace_store.h), one per shard component: the one representation of the
// access stream, whether the store keeps every segment resident (a default
// recording) or spills sealed segments to disk.  Readers go through
// AccessReader or the replayer's per-core cursors.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ro/core/access.h"
#include "ro/core/trace_store.h"
#include "ro/mem/varray.h"
#include "ro/mem/vspace.h"

namespace ro {

/// A run of accesses optionally terminated by a binary fork.
struct Segment {
  uint64_t acc_begin = 0;  // [acc_begin, acc_end) of the access stream
  uint64_t acc_end = 0;
  int32_t left = -1;   // forked children (activation ids); -1 = terminal
  int32_t right = -1;
  bool has_fork() const { return left >= 0; }
  friend bool operator==(const Segment&, const Segment&) = default;
};

/// One task.  Segments are contiguous in TaskGraph::segments
/// [first_seg, first_seg + num_segs).
struct Activation {
  uint32_t parent = kNoAct;
  uint32_t parent_seg = 0;   // local segment index in parent that forked us
  uint8_t child_slot = 0;    // 0 = left, 1 = right child of that fork
  uint16_t depth = 0;        // fork distance from root == PWS priority level
  uint64_t size = 0;         // declared task size |τ| in words (Def: data accessed)
  uint32_t first_seg = 0;
  uint32_t num_segs = 0;
  uint32_t frame_words = 0;     // locals (+padding) + fork slots
  uint32_t fork_slot_base = 0;  // offset of fork bookkeeping slots in frame
  friend bool operator==(const Activation&, const Activation&) = default;
};

/// One shard's slice of a (possibly merged) recording: an independent
/// fork-join component rooted at `root` whose global addresses live in
/// [base, base + 2^40).  Components share no addresses and no activations,
/// so each replays on its own simulated machine with exact per-shard block
/// accounting — the unit of parallel replay (sched/replay.h).
struct ShardSpan {
  uint32_t shard = 0;     // shard id (== shard_of(base))
  uint32_t root = 0;      // root activation of this component
  vaddr_t base = 0;       // first address of the shard's range
  vaddr_t data_top = 0;   // first address beyond the shard's recorded data
  // Dense index ranges of the component in the merged tables (merge_shards
  // keeps each input contiguous), so a shard replayer sizes its state by
  // its own component, not the whole batch.
  uint32_t first_act = 0;
  uint32_t num_acts = 0;
  uint32_t first_seg = 0;
  uint32_t num_segs = 0;
  friend bool operator==(const ShardSpan&, const ShardSpan&) = default;
};

/// Summary statistics derived from a graph (see analyze()).
struct GraphStats {
  uint64_t work = 0;          // total access words + O(1) per fork/join
  uint64_t span = 0;          // critical path with the same costs
  uint32_t max_depth = 0;     // deepest activation
  uint64_t activations = 0;
  uint64_t accesses = 0;
  uint64_t leaves = 0;
};

/// One shard's slice of the access stream: the chunked TraceStore holding
/// the shard's records, placed at [acc_base, acc_base + acc_count) of the
/// graph's global access index space.  Record `i - acc_base` of the store
/// is global access `i`; activation ids inside the records stay part-local
/// (the store is immutable and shared), so readers add the owning span's
/// `first_act` when translating them (AccessReader, and the replayer on
/// its frame-access path).  Whether the store spills, and whether it
/// compresses what it spills (trace_codec.h), is invisible here: cursors
/// always yield the decoded 16-byte records, so every reader — including
/// the replay walk — is representation-oblivious.
struct StreamPart {
  std::shared_ptr<TraceStore> store;
  uint64_t acc_base = 0;
  uint64_t acc_count = 0;
};

class AccessReader;  // declared below (needs TaskGraph)

/// The full recorded computation.
class TaskGraph {
 public:
  TaskGraph() = default;
  /// Gives `acts` and `segments` back to their VecPool (util/vec_pool.h),
  /// so the next recording starts from already-mapped capacity.
  ~TaskGraph();
  TaskGraph(const TaskGraph&) = default;
  TaskGraph(TaskGraph&&) = default;
  TaskGraph& operator=(const TaskGraph&) = default;
  TaskGraph& operator=(TaskGraph&&) = default;

  std::vector<Activation> acts;
  std::vector<Segment> segments;
  // The access stream: one part per shard component, in the same order as
  // `shards` (one part for a classic single-shard recording).
  std::vector<StreamPart> streams;
  uint32_t root = 0;
  vaddr_t data_base = 0;     // first vaddr of recorded global data (shard base)
  vaddr_t data_top = 0;      // first vaddr beyond recorded global data
  uint64_t align_words = 0;  // allocation alignment used while recording
  // Shard components of a merged batch recording (merge_shards); empty for
  // a classic single-shard graph, whose one implicit span is
  // {shard_of(data_base), root, data_base, data_top}.
  std::vector<ShardSpan> shards;

  /// Per-access/fork/join cost constants used for work & span accounting.
  static constexpr uint64_t kForkCost = 2;  // two frame-slot writes
  static constexpr uint64_t kJoinCost = 3;  // child result write + 2 reads

  GraphStats analyze() const;

  /// Total access records over every part.
  uint64_t acc_count() const {
    return streams.empty() ? 0
                           : streams.back().acc_base + streams.back().acc_count;
  }

  /// The shard components of this graph, in shard order (always >= 1).
  std::vector<ShardSpan> shard_spans() const;

  /// Global segment index of activation a's s-th local segment.
  uint32_t seg_index(uint32_t a, uint32_t local) const {
    return acts[a].first_seg + local;
  }

  /// Sum of access words in segment (compute cost of the segment body).
  /// The one-argument form spins up a throwaway reader; per-segment
  /// callers should hoist one AccessReader and use the two-argument
  /// overload so they pay one store fault per trace segment, not one per
  /// task segment.
  uint64_t seg_cost(const Segment& s) const;
  uint64_t seg_cost(const Segment& s, AccessReader& rd) const;
};

/// Reader over a graph's access stream with one pinned trace segment of
/// cache.  Returns records by value, with part-local activation ids
/// translated into the graph's global id space.  Not thread-safe; create
/// one per thread.
class AccessReader {
 public:
  explicit AccessReader(const TaskGraph& g) : g_(&g) {}

  Access at(uint64_t i) {
    if (i - base_ >= count_) seek(i);  // wraps when i < base_ -> seek
    Access a = cur_.at(i);
    // Branch-free: the data-vs-frame mix makes a kNoAct test unpredictable.
    a.act += act_off_ & (0u - static_cast<uint32_t>(a.act != kNoAct));
    return a;
  }

 private:
  void seek(uint64_t i);

  const TaskGraph* g_;
  uint64_t base_ = 0;
  uint64_t count_ = 0;
  uint32_t act_off_ = 0;
  TraceStore::Cursor cur_;
};

/// Fuses independent single-shard recordings into one batch TaskGraph.
/// Activation / segment / access indices are remapped into the shared
/// tables.  The parts' stores are shared, not copied: their records keep
/// part-local activation ids and untouched addresses (already disjoint by
/// the shard-id bit split).  Each input must occupy a distinct shard; the
/// result's `shards` vector lists the components in input order and its
/// `root` is the first component's root.  The merged graph replays through
/// ro::simulate exactly as the parts do individually (see
/// sched/replay.h's determinism guarantee).
TaskGraph merge_shards(std::vector<TaskGraph> parts);

}  // namespace ro
