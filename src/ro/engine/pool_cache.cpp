#include "ro/engine/pool_cache.h"

#include "ro/rt/numa.h"
#include "ro/util/check.h"

namespace ro {

void PoolCache::Lease::release() {
  if (cache_ != nullptr) cache_->release(pool_);
  cache_ = nullptr;
  pool_ = nullptr;
}

PoolCache::Lease PoolCache::acquire(const PoolKey& key) {
  RO_CHECK_MSG(key.threads > 0, "PoolKey.threads must be resolved (nonzero)");
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Entry>& entries = cache_[key];
  for (Entry& e : entries) {
    if (!e.busy) {
      e.busy = true;
      return Lease(this, e.pool.get());
    }
  }
  // Every cached instance is leased (or none exists yet): construct a
  // sibling.  Construction happens under the lock — pool spawn is tens of
  // microseconds and only ever paid on a concurrency high-water mark.
  rt::PoolOptions popt;
  popt.policy = key.policy;
  popt.layout = rt::numa_group_layout(key.threads);
  entries.push_back(Entry{std::make_unique<rt::Pool>(key.threads, popt), true});
  ++created_;
  return Lease(this, entries.back().pool.get());
}

void PoolCache::release(rt::Pool* pool) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [key, entries] : cache_) {
    for (Entry& e : entries) {
      if (e.pool.get() == pool) {
        RO_CHECK_MSG(e.busy, "double release of a pool lease");
        e.busy = false;
        return;
      }
    }
  }
  RO_CHECK_MSG(false, "released a pool this cache does not own");
}

size_t PoolCache::live() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& [key, entries] : cache_) n += entries.size();
  return n;
}

uint64_t PoolCache::created() const {
  std::lock_guard<std::mutex> lk(mu_);
  return created_;
}

}  // namespace ro
