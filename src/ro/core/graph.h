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
// A graph is exactly one recording.  Its access records live in one
// chunked TraceStore (trace_store.h): the one representation of the access
// stream, whether the store keeps every segment resident (a default
// recording) or spills sealed segments to disk.  Readers go through
// TraceStore cursors on `store`.  Several recordings that share one
// simulated machine (capacity-shared replay) stay separate graphs, passed
// to the replayer as a list (sched/replay.h).
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

/// Summary statistics derived from a graph (see analyze()).
struct GraphStats {
  uint64_t work = 0;          // total access words + O(1) per fork/join
  uint64_t span = 0;          // critical path with the same costs
  uint32_t max_depth = 0;     // deepest activation
  uint64_t activations = 0;
  uint64_t accesses = 0;
  uint64_t leaves = 0;
};

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
  // The access stream: record i is access i of the segments' ranges.
  // Whether the store spills, and whether it compresses what it spills
  // (trace_codec.h), is invisible here: cursors always yield the decoded
  // 16-byte records, so every reader — the replay walk included — is
  // representation-oblivious.
  std::shared_ptr<TraceStore> store;
  uint32_t root = 0;
  vaddr_t data_base = 0;     // first vaddr of recorded global data (shard base)
  vaddr_t data_top = 0;      // first vaddr beyond recorded global data
  uint64_t align_words = 0;  // allocation alignment used while recording

  /// Per-access/fork/join cost constants used for work & span accounting.
  static constexpr uint64_t kForkCost = 2;  // two frame-slot writes
  static constexpr uint64_t kJoinCost = 3;  // child result write + 2 reads

  GraphStats analyze() const;

  /// Access records in the stream.
  uint64_t acc_count() const { return store ? store->size() : 0; }

  /// Sum of access words in segment (compute cost of the segment body).
  /// Per-segment callers hoist one cursor, so they pay one store fault per
  /// trace segment, not one per task segment.
  uint64_t seg_cost(const Segment& s, TraceStore::Cursor& rd) const;
};

}  // namespace ro
