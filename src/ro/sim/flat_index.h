// Flat open-addressed block-id map for the replay data plane.
//
// The replay inner loop (sched/replay.cpp) keeps one per-core side table
// keyed by block id: the profiling last-touch attribution map, updated on
// every profiled access.  A node-based std map pays 2–3 hash probes plus
// an allocation per insert there; this is a single-probe linear-probing
// table over one contiguous array — the same layout discipline as
// sim/cache.h's FlatLru.
//
// It grows geometrically and keeps load factor <= 0.5.  Block ids are
// rebased dense addresses (never ~0), so ~0 serves as the empty marker.
#pragma once

#include <cstdint>
#include <vector>

#include "ro/sim/cache.h"  // flat_block_hash
#include "ro/util/check.h"

namespace ro {

/// Open-addressed block-id -> V map without erase (the last-touch table
/// only ever overwrites), values inline next to their keys.
template <class V>
class FlatBlockMap {
 public:
  FlatBlockMap() : slots_(kMinTable), mask_(kMinTable - 1) {}

  /// Inserts or overwrites.
  void put(uint64_t block, const V& v) {
    RO_DCHECK(block != kEmpty);
    const uint32_t i = find_pos(block);
    if (slots_[i].key == kEmpty) {
      slots_[i].key = block;
      slots_[i].value = v;
      if (++size_ * 2 > slots_.size()) grow();
    } else {
      slots_[i].value = v;
    }
  }

  /// Pointer to the value, or nullptr when absent.
  const V* find(uint64_t block) const {
    const uint32_t i = find_pos(block);
    return slots_[i].key == kEmpty ? nullptr : &slots_[i].value;
  }

  size_t size() const { return size_; }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr size_t kMinTable = 16;

  struct Slot {
    uint64_t key = kEmpty;
    V value{};
  };

  uint32_t find_pos(uint64_t block) const {
    uint32_t i = flat_block_hash(block) & mask_;
    while (slots_[i].key != kEmpty && slots_[i].key != block) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = static_cast<uint32_t>(slots_.size() - 1);
    for (const Slot& s : old) {
      if (s.key != kEmpty) slots_[find_pos(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  uint32_t mask_;
  size_t size_ = 0;
};

}  // namespace ro
