#include "ro/rt/pool.h"

#include "ro/util/check.h"

namespace ro::rt {

namespace {
thread_local unsigned t_worker_id = 0;
thread_local Pool* t_pool = nullptr;
thread_local uint32_t t_depth = 0;
}  // namespace

uint32_t current_depth() { return t_depth; }
void set_depth(uint32_t d) { t_depth = d; }

Pool::Pool(unsigned threads, StealPolicy policy, uint64_t seed)
    : Pool(threads, [&] {
        PoolOptions o;
        o.policy = policy;
        o.seed = seed;
        return o;
      }()) {}

Pool::Pool(unsigned threads, const PoolOptions& opt)
    : policy_(opt.policy), escape_prob_(opt.escape_prob) {
  RO_CHECK(threads >= 1 && threads <= kMaxPoolThreads);
  RO_CHECK_MSG(escape_prob_ >= 0.0 && escape_prob_ <= 1.0,
               "escape_prob must be a probability");
  GroupLayout layout = opt.layout;
  if (layout.group_of.empty()) layout = GroupLayout::contiguous(threads, 1);
  RO_CHECK_MSG(layout.valid(threads),
               "pool group layout must cover every worker with dense ids");
  const uint32_t g = layout.groups();
  members_.resize(g);
  remotes_.resize(g);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->rng = Rng(splitmix64(opt.seed ^ i));
    workers_.back()->group = layout.group_of[i];
    members_[layout.group_of[i]].push_back(i);
  }
  for (uint32_t grp = 0; grp < g; ++grp) {
    for (unsigned i = 0; i < threads; ++i) {
      if (workers_[i]->group != grp) remotes_[grp].push_back(i);
    }
  }
  for (unsigned i = 1; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Pool::~Pool() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& t : threads_) t.join();
}

unsigned Pool::current_worker() { return t_worker_id; }

void Pool::run(const std::function<void()>& root) {
  // Not reentrant, not concurrency-safe: one root at a time per pool.
  // Concurrent Engine callers get sibling pools through PoolCache's
  // exclusive leases (engine/pool_cache.h); tripping this means a caller
  // held a raw Pool& across threads and bypassed the cache.
  RO_CHECK_MSG(!active_.exchange(true, std::memory_order_acq_rel),
               "Pool::run called while a root is already running");
  t_worker_id = 0;
  t_pool = this;
  root();
  active_.store(false, std::memory_order_release);
  t_pool = nullptr;
}

void Pool::push_job(Job* j) {
  workers_[t_worker_id]->dq.push(j, j->depth);
}

void Pool::run_job(Job* j) {
  const uint32_t saved = t_depth;
  t_depth = j->depth;
  j->fn(j->arg);
  t_depth = saved;
  j->done.store(true, std::memory_order_release);
}

void Pool::join(Job* j) {
  Worker& me = *workers_[t_worker_id];
  // Fast path: our own bottom job is the one we are waiting for.
  while (true) {
    Job* own = me.dq.pop();
    if (own == j) {
      run_job(j);  // run inline (we are also the waiter)
      return;
    }
    if (own != nullptr) {
      run_job(own);  // deeper pending work of ours; execute and keep looking
      continue;
    }
    break;  // our deque is empty: the job was stolen
  }
  // Help while waiting.
  while (!j->done.load(std::memory_order_acquire)) {
    if (!try_execute_stolen()) std::this_thread::yield();
  }
}

unsigned Pool::pick_random_victim(Worker& me) {
  const unsigned p = threads();
  if (groups() <= 1) {
    const unsigned v0 = static_cast<unsigned>(me.rng.next_below(p - 1));
    return v0 >= t_worker_id ? v0 + 1 : v0;
  }
  const std::vector<unsigned>& local = members_[me.group];
  const std::vector<unsigned>& remote = remotes_[me.group];
  const size_t ln = local.size() - 1;  // local candidates excluding self
  const bool escape =
      ln == 0 ||
      (!remote.empty() && me.rng.next_double() < escape_prob_);
  if (escape && !remote.empty()) {
    return remote[me.rng.next_below(remote.size())];
  }
  if (ln == 0) return p;  // alone in a remote-less group: nothing to steal
  const size_t k = static_cast<size_t>(me.rng.next_below(ln));
  unsigned v = local[k];
  if (v == t_worker_id) v = local[ln];  // swap self for the last candidate
  return v;
}

unsigned Pool::pick_priority_victim() {
  const unsigned p = threads();
  const Worker& me = *workers_[t_worker_id];
  // Scan the thief's own group first; only a fully drained local group
  // sends the scan across groups (NUMA priority flavor — with one group
  // this is exactly the flat full scan).
  const std::vector<unsigned>* scans[2] = {&members_[me.group],
                                           &remotes_[me.group]};
  for (const std::vector<unsigned>* scan : scans) {
    unsigned best = p;
    uint32_t best_depth = UINT32_MAX;
    for (unsigned v : *scan) {
      if (v == t_worker_id) continue;
      const uint32_t depth = workers_[v]->dq.peek_top_depth();
      if (depth < best_depth) {
        best_depth = depth;
        best = v;
      }
    }
    if (best < p) return best;
  }
  return p;
}

bool Pool::try_execute_stolen() {
  const unsigned p = threads();
  Worker& me = *workers_[t_worker_id];
  if (p <= 1) return false;
  const unsigned victim = policy_ == StealPolicy::kPriority
                              ? pick_priority_victim()
                              : pick_random_victim(me);
  Job* j = victim < p ? workers_[victim]->dq.steal() : nullptr;
  if (j == nullptr) {
    me.failed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  me.steals.fetch_add(1, std::memory_order_relaxed);
  if (workers_[victim]->group == me.group) {
    me.local.fetch_add(1, std::memory_order_relaxed);
  } else {
    me.remote.fetch_add(1, std::memory_order_relaxed);
  }
  run_job(j);
  return true;
}

void Pool::worker_loop(unsigned id) {
  t_worker_id = id;
  t_pool = this;
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (!active_.load(std::memory_order_acquire) || !try_execute_stolen()) {
      std::this_thread::yield();
    }
  }
  t_pool = nullptr;
}

PoolStats PoolStats::since(const PoolStats& before) const {
  PoolStats d = *this;
  d.steals -= before.steals;
  d.failed_steals -= before.failed_steals;
  d.local_steals -= before.local_steals;
  d.remote_steals -= before.remote_steals;
  for (size_t g = 0; g < d.group_local.size(); ++g) {
    d.group_local[g] -= before.group_local[g];
    d.group_remote[g] -= before.group_remote[g];
  }
  return d;
}

PoolStats Pool::stats() const {
  PoolStats s;
  s.group_local.assign(groups(), 0);
  s.group_remote.assign(groups(), 0);
  for (const auto& w : workers_) {
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.failed_steals += w->failed.load(std::memory_order_relaxed);
    const uint64_t local = w->local.load(std::memory_order_relaxed);
    const uint64_t remote = w->remote.load(std::memory_order_relaxed);
    s.local_steals += local;
    s.remote_steals += remote;
    s.group_local[w->group] += local;
    s.group_remote[w->group] += remote;
  }
  return s;
}

}  // namespace ro::rt
