// Chunked segment store for the recorded access stream.
//
// The paper's PWS/RWS analyses are defined over *access streams*, not
// resident graphs, and a production-scale trace does not fit in memory.
// TraceStore is the one representation of a recording's access records
// (one store per shard): a chain of fixed-capacity *trace segments*.  The
// recorder appends records to the open segment, a full segment is sealed,
// and sealed segments beyond a bounded resident window are spilled to an
// anonymous file in `spill_dir`.  A default-constructed store has no
// window (max_resident_segments = 0) and never spills: that is what every
// recording without chunking options uses.  Replay reads the stream back
// through Cursor objects that pin one segment at a time, reloading
// spilled segments on demand (LRU window, same bound).
//
// Segment k covers record indices [k*C, (k+1)*C) for capacity C
// (`Options::segment_tasks`, counted in task access records), so index
// lookup is O(1).  Spilled segments are delta/varint compressed
// (trace_codec.h) unless `Options::compress` is off, so their on-disk
// extent is variable: each sealed segment carries its own file offset
// and byte length, allocated append-only.  A task segment whose access
// run straddles a seal simply spans two trace segments — cursors cross
// the boundary transparently, which is what keeps a spilling replay
// bit-identical to an unwindowed one (docs/streaming.md).
//
// Lifecycle and the pipelining seam: a single recorder thread append()s
// and seal()s.  *Sealed* segments are immutable the moment the seal
// happens, so readers do not have to wait for seal(): segment() blocks
// on a condition variable until the requested segment seals (or the
// store seals, whichever is first) — the sealed-segment watermark is the
// producer/consumer handoff that record-while-replay pipelining
// (RunOptions::pipeline) builds on.  After seal() the store is immutable
// and any number of replay threads may read it concurrently (one mutex
// serializes window bookkeeping and segment IO; cursors touch it only
// when crossing a segment boundary).
//
// With `Options::async_spill`, a background worker consumes the same
// watermark: it compresses and writes *every* sealed segment behind the
// recorder (write-behind, so spilled/compressed byte counts are
// deterministic) and performs window eviction, overlapping spill IO and
// compression with recording.  The worker drains and joins at seal().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ro/core/access.h"
#include "ro/util/check.h"

namespace ro {

class TraceStore {
 public:
  struct Options {
    /// Capacity of one trace segment, in task access records.
    uint64_t segment_tasks = 1u << 15;
    /// Sealed segments the store keeps resident (the bounded window).
    /// 0 = unbounded: the chunked structure without any spilling.  The
    /// open segment (while recording) and at most one pinned segment per
    /// live Cursor ride on top of the window; peak_resident_bytes counts
    /// them all.
    uint32_t max_resident_segments = 0;
    /// Directory for the spill file ("" = the system temp directory).
    /// The file is unlinked immediately after creation, so spilled bytes
    /// vanish with the store (or the process) and never leak on disk.
    std::string spill_dir;
    /// Delta/varint-compress segments on spill (trace_codec.h).  Raw
    /// records are kept only while resident; reload decompresses into a
    /// slab from the shared VecPool.  Off = the raw 16-byte on-disk layout.
    bool compress = true;
    /// Background spill: a worker thread compresses and writes every
    /// sealed segment behind the recorder (write-behind) and evicts the
    /// window, overlapping spill IO with recording.  Implies that *all*
    /// sealed segments reach disk even with an unbounded window, so
    /// spilled/compressed byte counts stay deterministic under
    /// pipelining.  The worker joins at seal().
    bool async_spill = false;
  };

  struct Stats {
    uint64_t segments = 0;           // sealed + open
    uint64_t sealed_segments = 0;    // the reader-visible watermark
    uint64_t records = 0;            // accesses appended
    uint64_t spilled_bytes = 0;      // record bytes ever spilled (raw size)
    uint64_t compressed_bytes = 0;   // physical bytes written to the file
    uint64_t segment_loads = 0;      // spilled-segment reloads at replay
    uint64_t resident_bytes = 0;     // live segment bytes right now
    uint64_t peak_resident_bytes = 0;  // high-water of resident_bytes
  };

  TraceStore() : TraceStore(Options()) {}
  explicit TraceStore(Options opt);
  ~TraceStore();
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  // ---- record side (one writer) ----

  /// Appends one record.  The fast path is inline: a push into the open
  /// segment and a release store of the single-writer counter.  Sealing a
  /// full segment, reserving the next one and the append-after-seal check
  /// run out of line.
  void append(const Access& a) {
    if (open_.size() + 1 < open_limit_) [[likely]] {
      open_.push_back(a);
      records_.store(records_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
      return;
    }
    append_slow(a);
  }

  /// Seals the open segment and freezes the store; idempotent.  Joins the
  /// async spill worker (which drains every remaining sealed segment).
  void seal();

  // ---- read side (any thread; sealed segments readable mid-record) ----

  /// Records appended so far (the recorder's running access count).
  uint64_t size() const { return records_.load(std::memory_order_acquire); }

  bool sealed() const { return sealed_.load(std::memory_order_acquire); }
  const Options& options() const { return opt_; }
  uint64_t segment_count() const;
  /// Sealed segments so far — the watermark concurrent readers can
  /// consume while recording continues.
  uint64_t sealed_segment_count() const;
  Stats stats() const;

  /// Streaming reader with one pinned segment of cache: `at(i)` is a raw
  /// array read while `i` stays inside the pinned segment and a store
  /// fault (possibly a disk reload) when it crosses a boundary.  Each
  /// simulated core of a replayer owns one Cursor, so concurrent cursors
  /// never invalidate each other — eviction only drops the *store's*
  /// reference, the pin keeps the segment alive until the cursor moves.
  /// A fault into a not-yet-sealed segment blocks until the recorder
  /// seals it (the pipelining handoff); reading past the end of a sealed
  /// store fails.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(TraceStore& s) : store_(&s) {}

    const Access& at(uint64_t i) {
      const uint64_t off = i - first_;  // wraps when i < first_ -> fault
      if (off < count_) return recs_[off];
      return fault(i);
    }

   private:
    const Access& fault(uint64_t i);

    TraceStore* store_ = nullptr;
    std::shared_ptr<const std::vector<Access>> pin_;
    const Access* recs_ = nullptr;
    uint64_t first_ = 0;  // index of recs_[0]
    uint64_t count_ = 0;
  };

 private:
  /// Resident accounting shared by the store and every live segment
  /// buffer: buffers released by cursors after eviction still decrement
  /// the count (their deleter holds a reference).  Released buffers go
  /// back to VecPool<Access> (util/vec_pool.h), which the open segment and
  /// reloads take from.
  struct Shared {
    std::atomic<uint64_t> resident_bytes{0};
    std::atomic<uint64_t> peak_resident_bytes{0};
  };

  using SlabPtr = std::shared_ptr<const std::vector<Access>>;

  struct Entry {
    SlabPtr resident;                          // strong ref while in window
    std::weak_ptr<const std::vector<Access>> pinned;  // may outlive eviction
    uint64_t count = 0;       // records in this segment
    uint64_t file_off = 0;    // spill-file extent (valid when spilled)
    uint64_t file_bytes = 0;  // physical bytes on disk
    bool spilled = false;     // contents are on disk
  };

  void append_slow(const Access& a);
  SlabPtr make_slab(std::vector<Access> recs) const;
  void seal_open_locked();
  void evict_excess_locked();
  // The one segment writer (eviction spill and write-behind worker):
  // encode, take the next file extent, write, book the spill statistics.
  // Holds mu_ throughout, or releases `io_lk` around the codec and write.
  void write_segment_locked(uint64_t seg, const std::vector<Access>& recs,
                            std::unique_lock<std::mutex>* io_lk);
  void insert_resident_locked(uint64_t seg, SlabPtr slab);
  SlabPtr segment(uint64_t seg);  // pin segment `seg`, loading if spilled
  SlabPtr load_segment_locked(uint64_t seg);
  void ensure_file_locked();
  void spill_worker_main();

  Options opt_;
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();

  mutable std::mutex mu_;
  std::condition_variable cv_;      // sealed-segment watermark + seal()
  std::vector<Entry> entries_;      // sealed segments
  std::vector<uint64_t> window_;    // resident sealed segments, LRU order
  std::vector<Access> open_;        // the segment being recorded
  // append()'s fast path runs while open_.size() + 1 < open_limit_: the
  // segment capacity, or 0 once a seal (of a segment or of the store)
  // routes the next append through append_slow.  The first segment grows
  // like a vector; later ones are reserved whole, because the recorder has
  // then proven a full segment's worth of records.
  uint64_t open_limit_;
  std::atomic<uint64_t> records_{0};
  std::atomic<bool> sealed_{false};
  uint64_t spilled_bytes_ = 0;      // raw record bytes spilled
  uint64_t compressed_bytes_ = 0;   // physical bytes written
  uint64_t segment_loads_ = 0;
  uint64_t file_end_ = 0;           // append-only spill-file allocator
  int fd_ = -1;                     // anonymous spill file (lazy)
  std::thread spill_worker_;        // async_spill consumer (lazy)
  bool worker_done_ = false;        // worker drained and exited

  friend class Cursor;
};

}  // namespace ro
