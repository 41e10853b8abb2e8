// Thread-safe cache of real-thread pools, keyed by (policy, threads).  The
// worker grouping is not part of the key: every pool takes it from the host
// topology (rt::numa_group_layout), which is fixed for the process.
//
// This replaces Engine's old lazily-mutated pool slots, whose
// lookup-or-create raced under concurrent callers.  Two properties:
//
//   1. Lookup-or-create is atomic: one mutex guards the whole cache, so
//      concurrent acquires of the same key never double-construct.
//   2. Pools are handed out under an exclusive Lease.  rt::Pool::run is
//      not reentrant (one root at a time), so two jobs that want the same
//      configuration concurrently must not share an instance: the second
//      acquire creates a sibling pool under the same key.  Releasing a
//      lease returns the instance to the free list — a sequential caller
//      therefore reuses one cached pool forever, exactly like the old
//      single-caller slots, while concurrent callers scale to as many
//      instances as are simultaneously leased.
//
// Pools are destroyed (workers joined) only when the cache itself is.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "ro/rt/pool.h"

namespace ro {

struct PoolKey {
  rt::StealPolicy policy = rt::StealPolicy::kRandom;
  unsigned threads = 0;   // resolved worker count (never 0 in the cache)

  friend bool operator<(const PoolKey& a, const PoolKey& b) {
    return std::tie(a.policy, a.threads) < std::tie(b.policy, b.threads);
  }
  friend bool operator==(const PoolKey& a, const PoolKey& b) {
    return !(a < b) && !(b < a);
  }
};

class PoolCache {
 public:
  /// Exclusive use of one pool instance; returns it to the cache's free
  /// list on destruction.  Movable, not copyable.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept : cache_(o.cache_), pool_(o.pool_) {
      o.cache_ = nullptr;
      o.pool_ = nullptr;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        cache_ = o.cache_;
        pool_ = o.pool_;
        o.cache_ = nullptr;
        o.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    rt::Pool& pool() const { return *pool_; }
    explicit operator bool() const { return pool_ != nullptr; }
    void release();

   private:
    friend class PoolCache;
    Lease(PoolCache* cache, rt::Pool* pool) : cache_(cache), pool_(pool) {}
    PoolCache* cache_ = nullptr;
    rt::Pool* pool_ = nullptr;
  };

  PoolCache() = default;
  PoolCache(const PoolCache&) = delete;
  PoolCache& operator=(const PoolCache&) = delete;

  /// Atomic lookup-or-create: leases the first free instance cached for
  /// `key`, constructing a new one (under the cache lock) when every
  /// cached instance is currently leased.  key.threads must be nonzero.
  Lease acquire(const PoolKey& key);

  /// Cached instances alive / ever constructed (observability + tests).
  size_t live() const;
  uint64_t created() const;

 private:
  struct Entry {
    std::unique_ptr<rt::Pool> pool;
    bool busy = false;
  };

  void release(rt::Pool* pool);

  mutable std::mutex mu_;
  std::map<PoolKey, std::vector<Entry>> cache_;
  uint64_t created_ = 0;
};

}  // namespace ro
