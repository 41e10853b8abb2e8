// Real-thread work-stealing pool running the same templated algorithms as
// the simulator, via rt::ParCtx (par_ctx.h).
//
// Two steal policies mirroring the paper's schedulers:
//   kRandom   — RWS: uniformly random victim, steal its top.
//   kPriority — PWS-flavoured: scan victims, steal the top job of smallest
//               fork depth (the executable rendering of priority rounds; the
//               distributed round protocol of §4.7 is simulated, not run, on
//               real threads).
//
// Either policy can additionally run grouped: workers are partitioned into
// per-node groups (GroupLayout, numa.h), and victim selection prefers the
// thief's own group — the random flavor crosses groups only with the
// escape probability, the priority flavor exhausts the local group before
// scanning remote ones.  Steals are counted per locality (local_steals /
// remote_steals) so benches can verify that the preference actually holds.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "ro/rt/deque.h"
#include "ro/rt/numa.h"
#include "ro/util/rng.h"

namespace ro::rt {

enum class StealPolicy : uint8_t { kRandom, kPriority };

/// Current fork depth of the calling worker thread (priority tag source).
uint32_t current_depth();
void set_depth(uint32_t d);

struct Job {
  void (*fn)(void*) = nullptr;
  void* arg = nullptr;
  uint32_t depth = 0;
  std::atomic<bool> done{false};
};

struct PoolStats {
  uint64_t steals = 0;
  uint64_t failed_steals = 0;
  uint64_t local_steals = 0;   // victim in the thief's group
  uint64_t remote_steals = 0;  // victim in another group
  // Per-group steal histogram, attributed to the *thief's* group: group g's
  // workers performed group_local[g] steals inside their group and
  // group_remote[g] across groups.  Sized to groups(); sums equal
  // local_steals / remote_steals.
  std::vector<uint64_t> group_local;
  std::vector<uint64_t> group_remote;

  /// The counts accumulated since `before` (an earlier stats() snapshot of
  /// the same pool): what one run on a reused pool did.
  PoolStats since(const PoolStats& before) const;
};

/// Largest pool a caller may ask for; Pool's constructor RO_CHECKs it, so
/// wire-facing callers (Engine::submit) reject larger requests first.
inline constexpr unsigned kMaxPoolThreads = 256;

struct PoolOptions {
  StealPolicy policy = StealPolicy::kRandom;
  uint64_t seed = 0xF00D;
  /// Worker-group partition.  Empty = flat pool (one group, every steal
  /// local).  numa_group_layout() derives it from the host topology; tests
  /// and benches force a layout (GroupLayout::contiguous).
  GroupLayout layout;
  /// Random flavor only: probability that a steal attempt targets a remote
  /// group although local candidates exist.
  double escape_prob = 1.0 / 16;
};

class Pool {
 public:
  /// Spawns `threads` workers (including the caller as worker 0, so
  /// `threads - 1` OS threads are created).
  explicit Pool(unsigned threads, StealPolicy policy = StealPolicy::kRandom,
                uint64_t seed = 0xF00D);
  Pool(unsigned threads, const PoolOptions& opt);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  unsigned threads() const { return static_cast<unsigned>(workers_.size()); }
  StealPolicy policy() const { return policy_; }
  uint32_t groups() const { return static_cast<uint32_t>(members_.size()); }
  uint32_t group_of(unsigned worker) const { return workers_[worker]->group; }
  double escape_prob() const { return escape_prob_; }

  /// Runs `root` on worker 0 to completion (other workers help via steals).
  void run(const std::function<void()>& root);

  /// Called by ParCtx: fork f / g as a depth-tagged pair and join.
  /// Must run on a pool worker thread (inside run()).
  template <class F, class G>
  void fork_join(uint32_t depth, F&& f, G&& g) {
    Job job;
    job.fn = [](void* p) { (*static_cast<G*>(p))(); };
    job.arg = &g;
    job.depth = depth;
    const uint32_t saved = current_depth();
    set_depth(depth);
    push_job(&job);
    f();
    join(&job);
    set_depth(saved);
  }

  PoolStats stats() const;

  /// Worker id of the calling thread (0 if not a pool thread).
  static unsigned current_worker();

 private:
  struct Worker {
    Deque dq;
    Rng rng{0};
    uint32_t group = 0;
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> local{0};
    std::atomic<uint64_t> remote{0};
  };

  void push_job(Job* j);
  void join(Job* j);
  bool try_execute_stolen();
  unsigned pick_random_victim(Worker& me);
  unsigned pick_priority_victim();
  void worker_loop(unsigned id);
  void run_job(Job* j);

  StealPolicy policy_;
  double escape_prob_ = 1.0 / 16;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::vector<unsigned>> members_;  // workers per group
  std::vector<std::vector<unsigned>> remotes_;  // workers outside each group
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> active_{false};
};

namespace detail {

template <class F>
void parallel_index_rec(Pool& pool, size_t lo, size_t hi, uint32_t depth,
                        F& fn) {
  if (hi - lo == 1) {
    fn(lo);
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  pool.fork_join(
      depth, [&] { parallel_index_rec(pool, lo, mid, depth + 1, fn); },
      [&] { parallel_index_rec(pool, mid, hi, depth + 1, fn); });
}

}  // namespace detail

/// Runs fn(i) for every i in [0, n) across the pool's workers as a balanced
/// fork tree.  Work *assignment to indices* is deterministic; scheduling is
/// not, so fn must only write per-index state (the shard-parallel record and
/// replay paths: each index owns one shard).  Must not be called from inside
/// another pool's run().
template <class F>
void parallel_index(Pool& pool, size_t n, F&& fn) {
  if (n == 0) return;
  if (n == 1 || pool.threads() <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool.run([&] { detail::parallel_index_rec(pool, 0, n, 1, fn); });
}

}  // namespace ro::rt
