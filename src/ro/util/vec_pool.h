// Process-wide recycling of the big per-job std::vector buffers.
//
// A job's largest tables (a recording's activation and segment tables,
// its access-record slabs, the replayer's per-activation state) are a few
// megabytes each.  Freed to glibc, they go back to the kernel and the next
// job faults every page in again; recycled, the next job writes into pages
// that are already mapped.  VecPool<T> keeps a few cleared buffers of
// element type T for that: take() hands one out (or an empty vector),
// give() clears a buffer and keeps it.
//
// The retention policy is two constants.  At most kMaxBuffers buffers per
// element type are kept, the largest ones, so a pool holds what the
// largest recent jobs needed and nothing more; a buffer whose capacity
// exceeds kMaxBytes is freed instead, so a one-off huge table (list
// ranking at large n holds hundreds of megabytes) never stays resident.
// The pool is shared by every thread, under one mutex per element type:
// a per-thread pool would pin each idle thread's last buffers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace ro {

template <class T>
class VecPool {
 public:
  static constexpr size_t kMaxBuffers = 2;
  static constexpr size_t kMaxBytes = size_t{16} << 20;

  /// An empty vector, with the largest pooled capacity when there is one.
  static std::vector<T> take() {
    Free& f = free_list();
    std::lock_guard<std::mutex> lk(f.mu);
    if (f.bufs.empty()) return {};
    auto big = std::max_element(f.bufs.begin(), f.bufs.end(), by_capacity);
    std::vector<T> v = std::move(*big);
    f.bufs.erase(big);
    return v;
  }

  /// Clears `v` and keeps its capacity for a later take(), unless it is
  /// over the byte cap or smaller than every buffer of a full pool.  What
  /// is not kept is freed after the lock is released.
  static void give(std::vector<T> v) {
    if (v.capacity() == 0 || v.capacity() > kMaxBytes / sizeof(T)) return;
    v.clear();
    Free& f = free_list();
    std::lock_guard<std::mutex> lk(f.mu);
    if (f.bufs.size() < kMaxBuffers) {
      f.bufs.push_back(std::move(v));
      return;
    }
    auto small = std::min_element(f.bufs.begin(), f.bufs.end(), by_capacity);
    if (small->capacity() < v.capacity()) std::swap(*small, v);
  }

 private:
  struct Free {
    std::mutex mu;
    std::vector<std::vector<T>> bufs;  // guarded by mu
  };

  static bool by_capacity(const std::vector<T>& a, const std::vector<T>& b) {
    return a.capacity() < b.capacity();
  }

  /// Never destroyed, so a buffer given back during static destruction
  /// (or by a thread still running at exit) finds a live pool.
  static Free& free_list() {
    static Free* f = new Free;
    return *f;
  }
};

}  // namespace ro
