// Chase–Lev work-stealing deque (Le et al. C11-model formulation).
//
// Owner pushes/pops at the bottom; thieves take from the top — the queue
// discipline of §2: forked tasks go to the bottom, steals come from the top,
// so the top holds the shallowest (highest-priority) task, which is what the
// priority-steal policy exploits.  Each entry's fork depth is published
// next to it, so a thief choosing a victim never dereferences a job it
// has not stolen: that job lives in its owner's fork_join frame, which
// the owner may already have popped and reused.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "ro/util/check.h"

namespace ro::rt {

struct Job;

class Deque {
 public:
  explicit Deque(size_t capacity_log2 = 13)
      : buf_(size_t{1} << capacity_log2),
        depth_(size_t{1} << capacity_log2),
        mask_((size_t{1} << capacity_log2) - 1) {}

  /// Owner only; `depth` is the job's fork depth (see peek_top_depth).
  void push(Job* j, uint32_t depth) {
    const int64_t b = bottom_.load(std::memory_order_relaxed);
    const int64_t t = top_.load(std::memory_order_acquire);
    RO_CHECK_MSG(b - t < static_cast<int64_t>(buf_.size()),
                 "work deque overflow");
    const size_t i = static_cast<size_t>(b) & mask_;
    depth_[i].store(depth, std::memory_order_relaxed);
    buf_[i].store(j, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only; nullptr if empty.
  Job* pop() {
    const int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // seq_cst store then seq_cst load, against steal()'s seq_cst loads:
    // owner and thief cannot both miss each other's update (the
    // store-buffering outcome), so at most one takes the last entry.
    bottom_.store(b, std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Job* j = buf_[static_cast<size_t>(b) & mask_].load(
        std::memory_order_relaxed);
    if (t == b) {  // last element: race with thieves
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        j = nullptr;  // lost
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return j;
  }

  /// Thieves; nullptr if empty or lost the race.
  Job* steal() {
    int64_t t = top_.load(std::memory_order_seq_cst);
    const int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Job* j =
        buf_[static_cast<size_t>(t) & mask_].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return j;
  }

  /// Racy size estimate (monitoring / victim selection only).
  int64_t size_estimate() const {
    return bottom_.load(std::memory_order_relaxed) -
           top_.load(std::memory_order_relaxed);
  }

  /// Racy fork depth of the top entry, UINT32_MAX when empty
  /// (priority-steal victim selection only).
  uint32_t peek_top_depth() const {
    const int64_t t = top_.load(std::memory_order_acquire);
    const int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return UINT32_MAX;
    return depth_[static_cast<size_t>(t) & mask_].load(
        std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::vector<std::atomic<Job*>> buf_;
  std::vector<std::atomic<uint32_t>> depth_;  // fork depth per entry
  size_t mask_;
};

}  // namespace ro::rt
