// The node-based reference LRU (std::list + std::unordered_map): the
// oracle FlatLru (ro/sim/cache.h) is checked against, op for op.  Exact
// LRU with the same interface as FlatLru, and none of its flat-table
// machinery to get wrong.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "ro/sim/cache.h"
#include "ro/util/check.h"

namespace ro {

class LruCache {
 public:
  explicit LruCache(uint32_t lines = 1) : capacity_(lines) {
    RO_CHECK_MSG(lines >= 1, "cache must hold at least one block");
  }

  bool contains(uint64_t block) const { return map_.count(block) > 0; }

  /// Combined op with semantics identical to FlatLru::access.
  CacheAccess access(uint64_t block) {
    if (contains(block)) {
      touch(block);
      return CacheAccess{true, false, 0};
    }
    const std::optional<uint64_t> victim = insert(block);
    return CacheAccess{false, victim.has_value(), victim.value_or(0)};
  }

  /// Marks `block` most-recently-used; no-op if absent.
  void touch(uint64_t block) {
    auto it = map_.find(block);
    if (it == map_.end()) return;
    lru_.splice(lru_.begin(), lru_, it->second);
  }

  /// Inserts `block` (must be absent); returns the evicted block, if any.
  std::optional<uint64_t> insert(uint64_t block) {
    RO_DCHECK(!contains(block));
    std::optional<uint64_t> victim;
    if (map_.size() >= capacity_) {
      victim = lru_.back();
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(block);
    map_[block] = lru_.begin();
    return victim;
  }

  /// Removes `block` if present (coherence invalidation); returns whether it
  /// was present.
  bool invalidate(uint64_t block) {
    auto it = map_.find(block);
    if (it == map_.end()) return false;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  size_t size() const { return map_.size(); }
  uint32_t capacity() const { return capacity_; }

 private:
  uint32_t capacity_;
  std::list<uint64_t> lru_;  // front = MRU
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
};

}  // namespace ro
