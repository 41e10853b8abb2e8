// Fully-associative LRU cache over block ids — the per-core cache of the
// paper's machine model.
//
// The paper assumes an optimal replacement policy and notes LRU suffices
// for its algorithms (§1); we implement LRU exactly.  Capacity is M/B
// lines.  Coherence invalidations remove lines out from under the owner —
// see sched/replay.cpp for the protocol.
//
// FlatLru is the replay data plane: a slot array sized once at
// construction (the capacity is known up front), intrusive prev/next slot
// indices for the recency chain, and an open-addressed power-of-two hash
// index with linear probing and backward-shift deletion.  Zero
// allocations after construction; every operation is a single probe of
// one flat table (the evict path re-probes once for the insert position
// after the victim's backward-shift).  The combined access() resolves
// hit-touch / miss-insert / evict in one call, which is what
// sched/replay.cpp's hot loop uses.  tests/lru_cache.h keeps the
// node-based reference LRU it is checked against.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ro/util/check.h"

namespace ro {

/// Outcome of one combined cache access: a hit was marked MRU; a miss was
/// inserted, evicting `victim` when the cache was full.
struct CacheAccess {
  bool hit = false;
  bool evicted = false;
  uint64_t victim = 0;  // meaningful only when evicted
};

/// Fibonacci mix for flat block-id indexes: block ids are dense and
/// low-entropy after the shard rebase, so the multiply spreads consecutive
/// ids across the table before the power-of-two mask.
constexpr uint32_t flat_block_hash(uint64_t block) {
  return static_cast<uint32_t>((block * 0x9E3779B97F4A7C15ull) >> 32);
}

/// Allocation-free exact-LRU cache: flat slots + open-addressed index.
class FlatLru {
 public:
  explicit FlatLru(uint32_t lines = 1) : capacity_(lines) {
    RO_CHECK_MSG(lines >= 1, "cache must hold at least one block");
    slots_.resize(lines);
    // Table at most half full (load factor <= 0.5): probe runs stay short
    // and an empty position always terminates find_pos.
    uint64_t table = 4;
    while (table < uint64_t{lines} * 2) table <<= 1;
    idx_.assign(table, kNil);
    mask_ = static_cast<uint32_t>(table - 1);
  }

  bool contains(uint64_t block) const {
    return idx_[find_pos(block)] != kNil;
  }

  /// The combined hot-loop op: hit -> mark MRU; miss -> insert as MRU,
  /// evicting the LRU line when full.  One index probe on the hit and
  /// plain-miss paths; the evict path additionally re-probes the insert
  /// position after the victim's backward-shift removal.
  CacheAccess access(uint64_t block) {
    uint32_t pos = find_pos(block);
    uint32_t s = idx_[pos];
    if (s != kNil) {
      move_front(s);
      return CacheAccess{true, false, 0};
    }
    CacheAccess r;
    if (size_ == capacity_) {
      s = tail_;  // reuse the LRU victim's slot
      r.evicted = true;
      r.victim = slots_[s].block;
      unlink(s);
      erase_index(find_pos(r.victim));
      pos = find_pos(block);  // the shift may have moved block's home
    } else {
      s = alloc_slot();
      ++size_;
    }
    slots_[s].block = block;
    idx_[pos] = s;
    push_front(s);
    return r;
  }

  /// Marks `block` most-recently-used; no-op if absent.
  void touch(uint64_t block) {
    const uint32_t s = idx_[find_pos(block)];
    if (s != kNil) move_front(s);
  }

  /// Inserts `block` (must be absent); returns the evicted block, if any.
  std::optional<uint64_t> insert(uint64_t block) {
    RO_DCHECK(!contains(block));
    const CacheAccess r = access(block);
    if (r.evicted) return r.victim;
    return std::nullopt;
  }

  /// Removes `block` if present (coherence invalidation); returns whether
  /// it was present.
  bool invalidate(uint64_t block) {
    const uint32_t pos = find_pos(block);
    const uint32_t s = idx_[pos];
    if (s == kNil) return false;
    unlink(s);
    erase_index(pos);
    slots_[s].next = free_;  // slot onto the free list
    free_ = s;
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  uint32_t capacity() const { return capacity_; }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    uint64_t block = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  /// Table position holding `block`, or the first empty position of its
  /// probe run when absent.
  uint32_t find_pos(uint64_t block) const {
    uint32_t i = flat_block_hash(block) & mask_;
    while (idx_[i] != kNil && slots_[idx_[i]].block != block) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  /// Backward-shift deletion: close the hole by sliding back every entry
  /// of the probe run that would become unreachable, leaving no tombstone.
  void erase_index(uint32_t hole) {
    RO_DCHECK(idx_[hole] != kNil);
    uint32_t i = hole;
    for (;;) {
      i = (i + 1) & mask_;
      if (idx_[i] == kNil) break;
      const uint32_t home = flat_block_hash(slots_[idx_[i]].block) & mask_;
      // Shift back unless the entry's home lies strictly inside (hole, i].
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        idx_[hole] = idx_[i];
        hole = i;
      }
    }
    idx_[hole] = kNil;
  }

  uint32_t alloc_slot() {
    if (free_ != kNil) {
      const uint32_t s = free_;
      free_ = slots_[s].next;
      return s;
    }
    return fresh_++;
  }

  void push_front(uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    if (head_ != kNil) {
      slots_[head_].prev = s;
    } else {
      tail_ = s;
    }
    head_ = s;
  }

  void unlink(uint32_t s) {
    const uint32_t p = slots_[s].prev;
    const uint32_t n = slots_[s].next;
    if (p != kNil) slots_[p].next = n; else head_ = n;
    if (n != kNil) slots_[n].prev = p; else tail_ = p;
  }

  void move_front(uint32_t s) {
    if (head_ == s) return;
    unlink(s);
    push_front(s);
  }

  uint32_t capacity_;
  uint32_t size_ = 0;
  uint32_t head_ = kNil;   // MRU slot
  uint32_t tail_ = kNil;   // LRU slot
  uint32_t free_ = kNil;   // invalidated slots, chained through .next
  uint32_t fresh_ = 0;     // never-used slots: [fresh_, capacity_)
  uint32_t mask_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> idx_;  // table position -> slot index or kNil
};

}  // namespace ro
