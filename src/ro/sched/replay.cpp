#include "ro/sched/replay.h"

#include <algorithm>
#include <deque>
#include <span>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ro/core/remap.h"
#include "ro/sched/arena.h"
#include "ro/sim/cache.h"
#include "ro/sim/contention.h"
#include "ro/sim/directory.h"
#include "ro/sim/flat_index.h"
#include "ro/util/bits.h"
#include "ro/util/check.h"
#include "ro/util/rng.h"
#include "ro/util/vec_pool.h"

namespace ro {

uint32_t SimConfig::effective_steal_latency() const {
  if (steal_latency != 0) return steal_latency;
  return miss_latency * (1 + log2_ceil(p ? p : 1));
}

const char* sched_name(SchedKind k) {
  switch (k) {
    case SchedKind::kSeq: return "SEQ";
    case SchedKind::kPws: return "PWS";
    case SchedKind::kRws: return "RWS";
  }
  return "?";
}

namespace {

constexpr uint32_t kNoCore = 0xFFFFFFFFu;
constexpr vaddr_t kUnresolved = ~vaddr_t{0};
constexpr uint64_t kNoBlock = ~uint64_t{0};

/// Words of a tenant's data region (one past the recorded top, rebased):
/// a remap may relocate lines above the recorded data top, and the stack
/// arenas must start above the remapped image, not just the recorded one.
uint64_t data_words(const TaskGraph& g, const SimConfig& cfg) {
  vaddr_t end = g.data_top + 1;
  if (cfg.remap) {
    end = std::max(end, cfg.remap->dst_top_in(g.data_base,
                                              g.data_base + kShardSpanWords));
  }
  return end - g.data_base;
}

/// Allocation alignment the tenants were recorded with (4096 when
/// unknown); simulate_shared checks that they agree.
uint64_t align_of(std::span<const TaskGraph> gs) {
  return gs[0].align_words ? gs[0].align_words : 4096;
}

/// Where one machine places its tenants' data.  Tenant t's recorded
/// address a maps to off[t] + (a - data_base); off[0] == 0, so a
/// one-tenant machine sees exactly the classic `span_rebase` addresses.
/// Later tenants are placed above the previous tenant's aligned data
/// image, so distinct tenants never alias — capacity-shared replay
/// contends for cache space and cores, not addresses.
struct TenantLayout {
  std::vector<vaddr_t> off;       // rebased data offset per tenant
  uint64_t data_top = 0;          // one past the last tenant's data image
  uint64_t recorded_words = 0;    // sum of (data_top - data_base) per tenant
};

TenantLayout layout_tenants(std::span<const TaskGraph> gs,
                            const SimConfig& cfg) {
  TenantLayout lo;
  lo.off.reserve(gs.size());
  for (const TaskGraph& g : gs) {
    lo.off.push_back(lo.data_top);
    lo.data_top += round_up_pow2(data_words(g, cfg), align_of(gs));
    lo.recorded_words += g.data_top - g.data_base;
  }
  return lo;
}

/// Block id and word offset of a rebased address for block size B: a
/// shift and a mask when B is a power of two, a division otherwise.
class BlockIndex {
 public:
  explicit BlockIndex(uint32_t B)
      : B_(B), pow2_(is_pow2(B)), shift_(log2_floor(B)) {}

  uint64_t block_of(vaddr_t a) const { return pow2_ ? a >> shift_ : a / B_; }
  uint16_t word_of(vaddr_t a) const {
    return static_cast<uint16_t>(pow2_ ? a & (B_ - 1) : a % B_);
  }

 private:
  uint64_t B_;
  bool pow2_;
  uint32_t shift_;
};

/// Replays one or more tenants as a single unit: the priority-round
/// sequence on one simulated machine of p >= 2 cores (cores, caches,
/// directory, stack arenas); a one-core machine is OneCoreWalk below.
/// Addresses are rebased per tenant (TenantLayout), so block ids start at
/// 0 whichever shards the data was recorded in.  One instance never
/// touches state outside its tenants — the invariant that makes
/// independent walks of one store safe on concurrent host threads.
///
/// simulate() constructs a one-tenant machine; capacity-shared replay
/// (simulate_shared) constructs one machine over ALL tenants, whose roots
/// are co-scheduled on the shared cores and whose misses/transfers can be
/// attributed per tenant through `shares`.
///
/// Every deque entry names its tenant, every core the tenant of the frame
/// it runs, and activation and segment ids are that tenant's own, so they
/// index its state directly.  The access stream is read through one
/// TraceStore cursor per core and tenant.  Each cursor pins one trace
/// segment; crossing a seal boundary faults the next one in (a disk reload
/// when it was spilled), so the walk consumes identical records whatever
/// the store's window — hence bit-identical Metrics.
class ShardReplayer {
 public:
  ShardReplayer(std::span<const TaskGraph> gs, SchedKind kind,
                const SimConfig& cfg, std::vector<TenantShare>* shares)
      : kind_(kind), cfg_(cfg), shares_(shares),
        sp_(cfg.effective_steal_latency()),
        profiled_(cfg.profile != nullptr),
        layout_(layout_tenants(gs, cfg)),
        arenas_(layout_.data_top, align_of(gs)), blk_(cfg.B),
        rng_(cfg.seed), clock_(cfg.p, 0) {
    RO_CHECK_MSG(cfg_.p >= 2 && cfg_.p <= 64,
                 "the multi-core machine needs p in [2, 64]");
    RO_CHECK_MSG(cfg_.M / cfg_.B >= 1, "cache must hold >= 1 block");
    const uint32_t lines = static_cast<uint32_t>(cfg_.M / cfg_.B);
    const uint32_t l2_lines =
        cfg_.M2 ? static_cast<uint32_t>(cfg_.M2 / cfg_.p / cfg_.B) : 0;
    cores_.reserve(cfg_.p);
    for (uint32_t i = 0; i < cfg_.p; ++i) {
      cores_.emplace_back(i, lines, l2_lines);
      for (const TaskGraph& g : gs) cores_.back().curs.emplace_back(*g.store);
    }
    tenants_.reserve(gs.size());
    for (const TaskGraph& g : gs) {
      Tenant& t = tenants_.emplace_back();
      t.g = &g;
      t.astate = VecPool<ActState>::take();
      t.astate.resize(g.acts.size());
      t.sstate = VecPool<SegState>::take();
      t.sstate.resize(g.segments.size());
    }
    for (Core& c : cores_) enter(c, 0);
    if (shares_) shares_->assign(tenants_.size(), TenantShare{});
  }

  ~ShardReplayer() {
    for (Tenant& t : tenants_) {
      VecPool<ActState>::give(std::move(t.astate));
      VecPool<SegState>::give(std::move(t.sstate));
    }
  }
  ShardReplayer(const ShardReplayer&) = delete;
  ShardReplayer& operator=(const ShardReplayer&) = delete;

  Metrics run() {
    roots_left_ = static_cast<uint32_t>(tenants_.size());
    // Seed the extra tenants' roots round-robin onto core deques (reversed
    // so core 0's bottom — resumed first — is tenant 1), stealable at
    // depth 0 like any fork; tenant 0's root starts on core 0 exactly as
    // the classic one-tenant walk does.
    for (uint32_t t = static_cast<uint32_t>(tenants_.size()); t-- > 1;) {
      cores_[t % cfg_.p].dq.push_back(Task{t, tenants_[t].g->root});
    }
    start_act(cores_[0], Task{0, tenants_[0].g->root}, /*stolen=*/false);
    while (!done_) {
      Core& c = pick_core();
      step(c);
    }
    Metrics m;
    m.core.reserve(cores_.size());
    for (auto& c : cores_) {
      c.m.finish = c.last_productive;
      m.makespan = std::max(m.makespan, c.last_productive);
      m.core.push_back(c.m);
    }
    m.steals_per_priority = std::move(steals_per_priority_);
    auto ts = dir_.transfer_stats();
    m.max_block_transfers = ts.max_transfers;
    m.total_block_transfers = ts.total_transfers;
    m.stack_words = arenas_.bump() - layout_.recorded_words;
    return m;
  }

 private:
  /// An activation of one tenant: a deque entry.
  struct Task {
    uint32_t tenant = 0;
    uint32_t act = 0;
  };

  struct Frame {
    const Segment* seg = nullptr;  // the tenant's segment being run
    uint32_t act = 0;
    uint32_t local_seg = 0;  // seg's index within act
    uint64_t acc = 0;        // index into the tenant's access stream
  };

  struct ActState {
    // base stays kUnresolved until the activation starts.
    ArenaSet::FrameToken token{0, 0, kUnresolved};
  };
  static_assert(sizeof(ActState) == 16, "one activation's frame token");

  struct SegState {
    uint8_t pending = 0;
    uint8_t fork_core = 0;  // set by do_fork before a join reads it
  };
  static_assert(sizeof(SegState) == 2, "p <= 64 fits a core id in a byte");

  /// One tenant's recording and its walk state, by its own ids.
  struct Tenant {
    const TaskGraph* g = nullptr;
    std::vector<ActState> astate;  // per activation
    std::vector<SegState> sstate;  // per segment
  };

  struct Core {
    Core(uint32_t id_, uint32_t lines, uint32_t l2_lines)
        : id(id_), cache(lines), l2(l2_lines ? l2_lines : 1) {}
    uint32_t id;  // its clock is clock_[id]
    uint64_t last_productive = 0;
    bool busy = false;
    Frame fr;
    uint32_t cur_arena = kNoCore;  // stack the core pushes frames on
    // This core's window into each tenant's trace.
    std::vector<TraceStore::Cursor> curs;
    // The tenant of `fr` and hot-path views of it (see enter): its graph,
    // its activation and segment state, and this core's cursor on it.
    uint32_t tenant = 0;
    const TaskGraph* g = nullptr;
    ActState* astate = nullptr;
    SegState* sstate = nullptr;
    TraceStore::Cursor* cur = nullptr;
    std::deque<Task> dq;  // stealable right children; back = bottom
    FlatLru cache;  // private L1
    FlatLru l2;     // L2 partition (§5.2)
    // The L1's MRU line and its directory entry: a repeat touch of it is a
    // hit that moves nothing in the LRU order.  Only this core's own miss
    // (which makes the missed line the MRU one) or another core's write
    // that invalidates the line (which resets this to kNoBlock) can drop
    // it from the L1, with or without an inclusive L2.
    uint64_t mru = kNoBlock;
    Directory::Entry* mru_entry = nullptr;
    CoreMetrics m;
    // Profiling only (SimConfig::profile): last (word, task) this core
    // touched per held data block — the victim side of an invalidation
    // (contention.h).
    FlatBlockMap<LastTouch> last_touch;
  };

  uint32_t depth_of(Task task) const {
    return tenants_[task.tenant].g->acts[task.act].depth;
  }

  // ---- scheduling loop ----

  /// The core with the earliest clock; ties go to the lowest core id.
  Core& pick_core() {
    const uint64_t* t = clock_.data();
    uint32_t best = 0;
    uint64_t best_t = t[0];
    for (uint32_t i = 1; i < cfg_.p; ++i) {
      if (t[i] < best_t) {
        best_t = t[i];
        best = i;
      }
    }
    return cores_[best];
  }

  uint64_t& now(const Core& c) { return clock_[c.id]; }

  void step(Core& c) {
    if (!c.busy) {
      idle_step(c);
      return;
    }
    const Segment& seg = *c.fr.seg;
    if (c.fr.acc < seg.acc_end) {
      const Access& acc = c.cur->at(c.fr.acc);
      if (replay_access(c, acc)) ++c.fr.acc;  // else: waiting on a hold
      c.last_productive = now(c);
      return;
    }
    if (seg.has_fork()) {
      do_fork(c, seg);
    } else {
      complete_act(c);
    }
    c.last_productive = now(c);
  }

  void idle_step(Core& c) {
    // Work-first: resume own deque bottom before stealing.
    if (!c.dq.empty()) {
      const Task task = c.dq.back();
      c.dq.pop_back();
      start_act(c, task, /*stolen=*/false);
      return;
    }
    attempt_steal(c);
  }

  void attempt_steal(Core& c) {
    ++c.m.steal_attempts;
    uint32_t victim = kNoCore;
    if (kind_ == SchedKind::kPws) {
      // Steal the globally highest-priority stealable task (min depth).
      uint32_t best_depth = 0xFFFFFFFFu;
      for (const auto& v : cores_) {
        if (v.id == c.id || v.dq.empty()) continue;
        const uint32_t d = depth_of(v.dq.front());
        if (d < best_depth) {
          best_depth = d;
          victim = v.id;
        }
      }
    } else {  // RWS: uniformly random victim (may be empty -> failed attempt)
      const uint32_t v =
          static_cast<uint32_t>(rng_.next_below(cfg_.p - 1));
      const uint32_t vid = v >= c.id ? v + 1 : v;
      if (!cores_[vid].dq.empty()) victim = vid;
    }
    if (victim == kNoCore) {
      fail_steal(c);
      return;
    }
    Core& v = cores_[victim];
    const Task task = v.dq.front();
    v.dq.pop_front();
    now(c) += sp_;
    c.m.steal_cycles += sp_;
    ++c.m.steals;
    ++steals_per_priority_[depth_of(task)];
    start_act(c, task, /*stolen=*/true);
  }

  void fail_steal(Core& c) {
    // Wait one steal period; jump ahead to the next busy core's time if the
    // whole machine is further along (avoids micro-polling).
    uint64_t target = now(c) + sp_;
    uint64_t min_busy = ~uint64_t{0};
    bool any_busy = false;
    for (const auto& o : cores_) {
      if (o.id != c.id && (o.busy || !o.dq.empty())) {
        any_busy = true;
        min_busy = std::min(min_busy, now(o));
      }
    }
    RO_CHECK_MSG(any_busy || done_, "deadlock: all cores idle");
    if (any_busy && min_busy > target) target = min_busy;
    c.m.idle += target - now(c);
    c.m.steal_cycles += sp_;
    now(c) = target;
  }

  // ---- activation lifecycle ----

  /// Points c's hot-path views at `tenant`.  A core changes tenant only
  /// when it takes a task off a deque; forks and joins stay in one.
  void enter(Core& c, uint32_t tenant) {
    Tenant& t = tenants_[tenant];
    c.tenant = tenant;
    c.g = t.g;
    c.astate = t.astate.data();
    c.sstate = t.sstate.data();
    c.cur = &c.curs[tenant];
  }

  void start_act(Core& c, Task task, bool stolen) {
    if (task.tenant != c.tenant) enter(c, task.tenant);
    ActState& st = c.astate[task.act];
    RO_CHECK(st.token.base == kUnresolved);  // each activation starts once
    const Activation& a = c.g->acts[task.act];
    if (stolen || a.parent == kNoAct) {
      c.cur_arena = arenas_.new_arena();  // fresh S_τ for a stolen kernel
    }
    RO_CHECK(c.cur_arena != kNoCore);
    st.token = arenas_.push(c.cur_arena, a.frame_words);
    c.busy = true;
    const Segment& first = c.g->segments[a.first_seg];
    c.fr = Frame{&first, task.act, 0, first.acc_begin};
  }

  void do_fork(Core& c, const Segment& seg) {
    SegState& ss = c.sstate[&seg - c.g->segments.data()];
    ss.pending = 2;
    ss.fork_core = static_cast<uint8_t>(c.id);
    if (cfg_.inject_frame_traffic) {
      const vaddr_t slots = fork_slot_addr(c, c.fr.act, c.fr.local_seg);
      touch(c, slots, 1, /*write=*/true, /*stack=*/true);
      touch(c, slots + 1, 1, /*write=*/true, /*stack=*/true);
    }
    c.dq.push_back(Task{c.tenant, static_cast<uint32_t>(seg.right)});
    start_act(c, Task{c.tenant, static_cast<uint32_t>(seg.left)},
              /*stolen=*/false);
  }

  void complete_act(Core& c) {
    const TaskGraph& g = *c.g;
    const Activation& a = g.acts[c.fr.act];
    arenas_.complete(c.astate[c.fr.act].token);
    if (a.parent == kNoAct) {
      if (--roots_left_ == 0) done_ = true;
      c.busy = false;
      return;
    }
    const Activation& pa = g.acts[a.parent];
    if (cfg_.inject_frame_traffic) {
      // Deposit this child's result into the parent's fork slot.
      const vaddr_t slot =
          fork_slot_addr(c, a.parent, a.parent_seg) + a.child_slot;
      touch(c, slot, 1, /*write=*/true, /*stack=*/true);
    }
    SegState& ss = c.sstate[pa.first_seg + a.parent_seg];
    RO_CHECK(ss.pending > 0);
    if (--ss.pending > 0) {
      // Sibling still outstanding: this kernel thread blocks here; the core
      // resumes its own deque bottom (the sibling, if unstolen) or steals.
      c.busy = false;
      return;
    }
    // Last finisher continues the parent's next segment (up-pass).
    if (ss.fork_core != c.id) ++c.m.usurpations;
    if (cfg_.inject_frame_traffic) {
      const vaddr_t slots = fork_slot_addr(c, a.parent, a.parent_seg);
      touch(c, slots, 1, /*write=*/false, /*stack=*/true);
      touch(c, slots + 1, 1, /*write=*/false, /*stack=*/true);
    }
    const uint32_t next_seg = a.parent_seg + 1;
    RO_CHECK(next_seg < pa.num_segs);
    c.busy = true;
    // The parent belongs to the same tenant as its child.
    const Segment& next = g.segments[pa.first_seg + next_seg];
    c.fr = Frame{&next, a.parent, next_seg, next.acc_begin};
  }

  /// Address of a fork slot of `act`, an activation of c's current tenant.
  static vaddr_t fork_slot_addr(const Core& c, uint32_t act,
                                uint32_t local_seg) {
    const vaddr_t base = c.astate[act].token.base;
    RO_CHECK(base != kUnresolved);
    return base + c.g->acts[act].fork_slot_base + 2 * local_seg;
  }

  // ---- memory system ----

  /// Returns false when the access must be retried because another core's
  /// write hold is active on one of its blocks (§5.1): the core's clock is
  /// advanced to the hold expiry instead of performing the access.
  bool replay_access(Core& c, const Access& acc) {
    vaddr_t addr;
    bool stack = false;
    if (acc.act != kNoAct) {
      const vaddr_t base = c.astate[acc.act].token.base;
      RO_CHECK_MSG(base != kUnresolved, "frame access before frame allocation");
      addr = acc.addr + base;
      stack = true;
    } else {
      // A task only ever touches its own tenant's data (shards share no
      // addresses), so the current frame's tenant owns this address.
      const vaddr_t base = c.g->data_base;
      vaddr_t a = acc.addr;
      if (cfg_.remap != nullptr) {
        a = cfg_.remap->apply(a);
        RO_CHECK_MSG(a >= base, "remap moved an address below its shard");
      }
      addr = layout_.off[c.tenant] + span_rebase(a, base);
    }
    if (cfg_.write_hold != 0) {
      const uint64_t until = hold_barrier(c, addr, acc.len, acc.is_write());
      if (until > now(c)) {
        c.m.hold_waits += until - now(c);
        now(c) = until;
        return false;
      }
    }
    touch(c, addr, acc.len, acc.is_write(), stack, c.fr.act);
    return true;
  }

  /// Latest active hold (by another core) over the blocks this access needs
  /// to transfer or invalidate; 0 when the access may proceed.
  uint64_t hold_barrier(const Core& c, vaddr_t addr, uint16_t len,
                        bool write) {
    uint64_t until = 0;
    const uint64_t b1 = blk_.block_of(addr + len - 1);
    for (uint64_t b = blk_.block_of(addr); b <= b1; ++b) {
      const Directory::Entry& d = dir_.at(b);
      if (d.hold_owner == 0xFF || d.hold_owner == c.id) continue;
      if (d.hold_until <= now(c)) continue;
      // A hold only gates actions that would disturb the holder: taking a
      // copy we do not have, or invalidating the holder with a write.
      if (!c.cache.contains(b) || write) {
        until = std::max(until, d.hold_until);
      }
    }
    return until;
  }

  // Frame traffic calls this five times per fork/join.  GCC's heuristics
  // call it out of line from run(), which made a walk of a fork-heavy
  // trace (prefix sums) ~8% slower than inlining it.
  [[gnu::always_inline]] void touch(Core& c, vaddr_t addr, uint16_t len,
                                    bool write, bool stack,
                                    uint32_t act = kNoAct) {
    now(c) += len;
    c.m.compute += len;
    if (shares_) (*shares_)[c.tenant].compute += len;
    const uint64_t b0 = blk_.block_of(addr);
    const uint64_t b1 = blk_.block_of(addr + len - 1);
    for (uint64_t b = b0; b <= b1; ++b) {
      const uint16_t word = b == b0 ? blk_.word_of(addr) : uint16_t{0};
      touch_block(c, b, word, write, stack, act);
    }
  }

  void touch_block(Core& c, uint64_t block, uint16_t word, bool write,
                   bool stack, uint32_t act) {
    if (block == c.mru) {
      // A hit on the L1's MRU line: the LRU order and the directory stay
      // as they are, unless the touch is a write.
      if (write || profiled_) [[unlikely]] {
        const bool prof = profiled_ && !stack;
        if (write) write_block(c, *c.mru_entry, block, word, act, prof);
        if (prof) c.last_touch.put(block, LastTouch{word, act});
      }
      return;
    }
    Directory::Entry& d = dir_.at(block);
    // Attribution is for data lines only: stack frames are padded per
    // arena (Lemma 3.1), so their sharing is by design, not a bug to fix.
    const bool prof = profiled_ && !stack;
    const uint64_t me = uint64_t{1} << c.id;
    bool hit;
    bool evicted = false;
    uint64_t victim = 0;
    if (cfg_.M2 == 0) {
      // Single-level machine (the default): the combined op resolves
      // hit / miss / eviction in one cache probe.  Performing the eviction
      // before the classification below is observationally identical —
      // classification reads only this block's `invalid` and `ever` bits,
      // and the victim's directory bit is cleared at the same point as the
      // discrete sequence would.
      const CacheAccess res = c.cache.access(block);
      hit = res.hit;
      evicted = res.evicted;
      victim = res.victim;
    } else {
      // §5.2 hierarchy: keep the discrete op sequence — the inclusive L2
      // eviction must drop its victim from L1 *before* the L1 insert picks
      // its own victim, so a combined access-first order would change which
      // line is LRU at the insert.
      hit = c.cache.contains(block);
      if (hit) c.cache.touch(block);
    }
    if (!hit) {
      // Miss: classify.
      MissClass cls;
      if (d.invalid & me) {
        d.invalid &= ~me;
        cls = MissClass::kCoherence;
        if (prof) cfg_.profile->record_coherence_miss(line_addr(block), word, act);
      } else if (d.ever & me) {
        cls = MissClass::kCapacity;
      } else {
        cls = MissClass::kCold;
      }
      d.ever |= me;
      ++c.m.miss[stack ? 1 : 0][static_cast<int>(cls)];
      if (shares_) {
        TenantShare& ts = (*shares_)[c.tenant];
        if (cls == MissClass::kCoherence) ++ts.block_misses;
        else ++ts.cache_misses;
      }
      // §5.2 partitioned hierarchy: an L1 miss served by the core's L2
      // partition pays l2_latency; otherwise the full miss latency.
      if (cfg_.M2 && c.l2.contains(block)) {
        c.l2.touch(block);
        ++c.m.l2_hits;
        now(c) += cfg_.l2_latency;
      } else {
        now(c) += cfg_.miss_latency;
        if (cfg_.M2) {
          if (auto l2res = c.l2.access(block); l2res.evicted) {
            // Inclusive hierarchy: dropping from L2 drops from L1 too.
            c.cache.invalidate(l2res.victim);
            if (!c.l2.contains(l2res.victim)) {
              dir_.at(l2res.victim).holders &= ~me;
            }
          }
        }
      }
      if (d.holders & ~me) {
        ++d.transfers;  // cache-to-cache move (Def 2.2)
        if (shares_) ++(*shares_)[c.tenant].transfers;
        if (prof) cfg_.profile->record_transfer(line_addr(block), word);
      }
      if (cfg_.M2) {
        const CacheAccess res = c.cache.access(block);
        evicted = res.evicted;
        victim = res.victim;
      }
      if (evicted) {
        // With a hierarchy the L2 still holds the victim; without one the
        // core no longer holds it at all.
        if (!cfg_.M2 || !c.l2.contains(victim)) {
          dir_.at(victim).holders &= ~me;
        }
      }
      d.holders |= me;
    }
    if (write) write_block(c, d, block, word, act, prof);
    if (prof) c.last_touch.put(block, LastTouch{word, act});
    c.mru = block;
    c.mru_entry = &d;
  }

  /// The write half of a touch: invalidates every other holder's copy
  /// (§2.2), leaves c the sole holder and, on a §5.1 machine, starts c's
  /// hold on the block.
  void write_block(Core& c, Directory::Entry& d, uint64_t block,
                   uint16_t word, uint32_t act, bool prof) {
    const uint64_t me = uint64_t{1} << c.id;
    uint64_t others = d.holders & ~me;
    d.invalid |= others;
    while (others) {
      const uint32_t h = static_cast<uint32_t>(std::countr_zero(others));
      others &= others - 1;
      Core& v = cores_[h];
      v.cache.invalidate(block);
      v.l2.invalidate(block);
      if (v.mru == block) v.mru = kNoBlock;
      if (prof) {
        // The victim's side of the event is its last touch of the line:
        // a different word makes this false sharing (a contention-graph
        // edge), the same word is true sharing a remap cannot remove.
        uint16_t vword = word;
        uint32_t vact = act;
        if (const LastTouch* lt = v.last_touch.find(block)) {
          vword = lt->word;
          vact = lt->act;
        }
        cfg_.profile->record_invalidation(line_addr(block), word, act,
                                          vword, vact);
      }
    }
    d.holders = me;
    if (cfg_.write_hold) {
      d.hold_owner = static_cast<uint8_t>(c.id);
      d.hold_until = now(c) + cfg_.write_hold;
    }
  }

  /// Recorded (global) address of the line holding a rebased block —
  /// the ContentionProfile key, collision-free across shards.  Only called
  /// for data blocks, which always lie inside some tenant's data image.
  vaddr_t line_addr(uint64_t block) const {
    const vaddr_t a = block * cfg_.B;
    size_t t = tenants_.size() - 1;
    while (t > 0 && a < layout_.off[t]) --t;
    return tenants_[t].g->data_base + (a - layout_.off[t]);
  }

  SchedKind kind_;
  SimConfig cfg_;
  std::vector<TenantShare>* shares_;
  uint32_t sp_;
  bool profiled_;  // a ContentionProfile is attached
  TenantLayout layout_;
  ArenaSet arenas_;
  BlockIndex blk_;
  Rng rng_;
  Directory dir_;
  std::vector<Tenant> tenants_;
  std::vector<Core> cores_;
  std::vector<uint64_t> clock_;  // per core, by id: pick_core scans it
  std::map<uint32_t, uint32_t> steals_per_priority_;
  uint32_t roots_left_ = 0;
  bool done_ = false;
};

/// The one-core machine: kSeq, and kPws / kRws at p = 1, which can never
/// steal and so walk identically.  One core runs the recording depth-first,
/// left child before right, on an explicit stack (fork depth goes up to
/// 65535, too deep for C++ recursion).  With one core there is no deque,
/// steal, usurpation, coherence miss, transfer or write hold, so the walk
/// keeps only what one cache can observe: the L1 (and L2 partition), one
/// dense "ever loaded" bit per block for the cold / capacity split, and the
/// frame base of every activation.  Frames come from the same ArenaSet as
/// the multi-core machine's, one arena per root, and the fork/join frame
/// traffic is injected in the order that machine charges it: the two slot
/// writes at a fork, the left child's frame release and result write, the
/// right child's, then the two join reads.  So the Metrics are, bit for
/// bit, what the work-stealing rules give on one core.  Several tenants
/// (capacity-shared replay) run root after root in tenant order, sharing
/// the cache, as roots seeded on one core's deque would.
class OneCoreWalk {
 public:
  OneCoreWalk(std::span<const TaskGraph> gs, const SimConfig& cfg,
              std::vector<TenantShare>* shares)
      : gs_(gs), cfg_(cfg), shares_(shares), layout_(layout_tenants(gs, cfg)),
        arenas_(layout_.data_top, align_of(gs)), blk_(cfg.B),
        l1_(static_cast<uint32_t>(cfg.M / cfg.B)),
        l2_(std::max<uint32_t>(1, static_cast<uint32_t>(cfg.M2 / cfg.B))) {
    RO_CHECK_MSG(cfg_.p == 1, "the one-core walk needs p == 1");
    RO_CHECK_MSG(cfg_.M / cfg_.B >= 1, "cache must hold >= 1 block");
    frame_base_ = VecPool<vaddr_t>::take();
    ever_ = VecPool<uint64_t>::take();
    ever_.assign(blk_.block_of(layout_.data_top) / 64 + 1, 0);
    if (shares_) shares_->assign(gs_.size(), TenantShare{});
  }

  ~OneCoreWalk() {
    VecPool<vaddr_t>::give(std::move(frame_base_));
    VecPool<uint64_t>::give(std::move(ever_));
  }
  OneCoreWalk(const OneCoreWalk&) = delete;
  OneCoreWalk& operator=(const OneCoreWalk&) = delete;

  Metrics run() {
    for (uint32_t t = 0; t < gs_.size(); ++t) walk_tenant(t);
    Metrics m;
    m_.finish = time_;
    m.core.push_back(m_);
    m.makespan = time_;
    m.stack_words = arenas_.bump() - layout_.recorded_words;
    return m;
  }

 private:
  /// An activation on the walk's stack and its current local segment.
  struct Open {
    uint32_t act;
    uint32_t seg;
    ArenaSet::FrameToken token;
  };

  /// Walks tenant t's recording to completion.  Its activations are done
  /// before the next tenant's start, so frame_base_ is its own, by its ids.
  void walk_tenant(uint32_t t) {
    g_ = &gs_[t];
    const TaskGraph& g = *g_;
    TraceStore::Cursor cur(*g.store);
    share_ = shares_ ? &(*shares_)[t] : nullptr;
    frame_base_.assign(g.acts.size(), kUnresolved);
    const vaddr_t data_off = layout_.off[t] - g.data_base;  // the rebase
    const bool frames = cfg_.inject_frame_traffic;
    arena_ = arenas_.new_arena();
    open(g.root);
    while (!stack_.empty()) {
      const uint32_t act = stack_.back().act;
      const Activation& a = g.acts[act];
      const Segment& seg = g.segments[a.first_seg + stack_.back().seg];
      for (uint64_t i = seg.acc_begin; i < seg.acc_end; ++i) {
        const Access& acc = cur.at(i);
        vaddr_t addr;
        bool stack = false;
        if (acc.act != kNoAct) {
          const vaddr_t base = frame_base_[acc.act];
          RO_CHECK_MSG(base != kUnresolved,
                       "frame access before frame allocation");
          addr = acc.addr + base;
          stack = true;
        } else {
          vaddr_t x = acc.addr;
          if (cfg_.remap != nullptr) {
            x = cfg_.remap->apply(x);
            RO_CHECK_MSG(x >= g.data_base,
                         "remap moved an address below its shard");
          }
          addr = x + data_off;
        }
        touch(addr, acc.len, stack);
      }
      if (seg.has_fork()) {
        if (frames) {
          const vaddr_t slots = fork_slots(act, stack_.back().seg);
          touch(slots, 1, /*stack=*/true);
          touch(slots + 1, 1, /*stack=*/true);
        }
        open(static_cast<uint32_t>(seg.left));
        continue;
      }
      arenas_.complete(stack_.back().token);
      stack_.pop_back();
      if (a.parent == kNoAct) continue;  // the tenant's root: done
      // The parent, now on top of the stack, waits at the fork of `act`:
      // a left child hands over to its sibling, a right child joins.
      const Activation& pa = g.acts[a.parent];
      const Segment& fork = g.segments[pa.first_seg + a.parent_seg];
      const bool left = act == static_cast<uint32_t>(fork.left);
      if (frames) {
        const vaddr_t slots = fork_slots(a.parent, a.parent_seg);
        touch(slots + a.child_slot, 1, /*stack=*/true);  // the result
        if (!left) {
          touch(slots, 1, /*stack=*/true);
          touch(slots + 1, 1, /*stack=*/true);
        }
      }
      if (left) {
        open(static_cast<uint32_t>(fork.right));
        continue;
      }
      RO_CHECK(a.parent_seg + 1 < pa.num_segs);
      stack_.back().seg = a.parent_seg + 1;
    }
  }

  /// Pushes `act`'s frame on the current arena and the activation on the
  /// walk's stack, at its first segment.
  void open(uint32_t act) {
    const ArenaSet::FrameToken t =
        arenas_.push(arena_, g_->acts[act].frame_words);
    frame_base_[act] = t.base;
    stack_.push_back(Open{act, 0, t});
  }

  vaddr_t fork_slots(uint32_t act, uint32_t local_seg) const {
    const vaddr_t base = frame_base_[act];
    RO_CHECK(base != kUnresolved);
    return base + g_->acts[act].fork_slot_base + 2 * local_seg;
  }

  [[gnu::always_inline]] void touch(vaddr_t addr, uint16_t len, bool stack) {
    time_ += len;
    m_.compute += len;
    if (share_) share_->compute += len;
    const uint64_t b1 = blk_.block_of(addr + len - 1);
    for (uint64_t b = blk_.block_of(addr); b <= b1; ++b) touch_block(b, stack);
  }

  void touch_block(uint64_t block, bool stack) {
    // Only a miss, which makes the missed line the MRU one, removes a line
    // from the L1 (an inclusive L2's eviction included), so the block
    // touched last is still its MRU line: a hit that changes nothing.
    if (block == mru_) return;
    mru_ = block;
    if (cfg_.M2 == 0) {
      if (l1_.access(block).hit) return;
      count_miss(block, stack);
      time_ += cfg_.miss_latency;
      return;
    }
    // §5.2 inclusive hierarchy, in the multi-core machine's op order.
    if (l1_.contains(block)) {
      l1_.touch(block);
      return;
    }
    count_miss(block, stack);
    if (l2_.contains(block)) {
      l2_.touch(block);
      ++m_.l2_hits;
      time_ += cfg_.l2_latency;
    } else {
      time_ += cfg_.miss_latency;
      if (const CacheAccess r = l2_.access(block); r.evicted) {
        l1_.invalidate(r.victim);  // dropping from L2 drops from L1 too
      }
    }
    l1_.access(block);
  }

  /// Charges a miss: capacity when the block was loaded before, else cold.
  void count_miss(uint64_t block, bool stack) {
    const uint64_t w = block / 64;
    if (w >= ever_.size()) {
      // Geometric while the walk grows block by block; exact on a jump.
      ever_.resize(std::max(w + 1, ever_.size() + ever_.size() / 2), 0);
    }
    const uint64_t bit = uint64_t{1} << (block % 64);
    const MissClass cls =
        ever_[w] & bit ? MissClass::kCapacity : MissClass::kCold;
    ever_[w] |= bit;
    ++m_.miss[stack ? 1 : 0][static_cast<int>(cls)];
    if (share_) ++share_->cache_misses;
  }

  std::span<const TaskGraph> gs_;
  const TaskGraph* g_ = nullptr;  // the tenant being walked
  SimConfig cfg_;
  std::vector<TenantShare>* shares_;
  TenantShare* share_ = nullptr;  // the current tenant's, when shares_ is set
  TenantLayout layout_;
  ArenaSet arenas_;
  uint32_t arena_ = 0;  // the current root's stack
  BlockIndex blk_;
  FlatLru l1_;
  FlatLru l2_;  // L2 partition, used when M2 > 0
  std::vector<vaddr_t> frame_base_;  // per activation of the tenant
  std::vector<uint64_t> ever_;       // one bit per block
  std::vector<Open> stack_;
  uint64_t mru_ = ~uint64_t{0};  // block touched last
  CoreMetrics m_;
  uint64_t time_ = 0;
};

/// One machine over `gs`: the one-core walk when it has one core (kSeq
/// always does), else the multi-core scheduler.
Metrics replay_machine(std::span<const TaskGraph> gs, SchedKind kind,
                       SimConfig cfg,
                       std::vector<TenantShare>* shares = nullptr) {
  if (kind == SchedKind::kSeq) cfg.p = 1;
  RO_CHECK_MSG(cfg.p >= 1 && cfg.p <= 64, "p must be in [1, 64]");
  if (cfg.p == 1) return OneCoreWalk(gs, cfg, shares).run();
  return ShardReplayer(gs, kind, cfg, shares).run();
}

}  // namespace

uint32_t replay_host_threads(uint32_t requested, size_t units) {
  uint32_t t = requested;
  if (t == 0) {
    t = std::thread::hardware_concurrency();
    if (t == 0) t = 2;
  }
  return static_cast<uint32_t>(std::min<size_t>(t, units));
}

Metrics simulate(const TaskGraph& g, SchedKind kind, const SimConfig& cfg) {
  return replay_machine({&g, 1}, kind, cfg);
}

Metrics simulate_shared(std::span<const TaskGraph> tenants, SchedKind kind,
                        const SimConfig& cfg,
                        std::vector<TenantShare>* shares) {
  RO_CHECK_MSG(!tenants.empty(),
               "capacity-shared replay needs at least one tenant");
  std::unordered_set<uint32_t> shards;
  for (const TaskGraph& g : tenants) {
    RO_CHECK_MSG(g.align_words == tenants[0].align_words,
                 "capacity-shared tenants must share an allocation alignment");
    RO_CHECK_MSG(shards.insert(shard_of(g.data_base)).second,
                 "capacity-shared tenants must occupy distinct shards");
  }
  return replay_machine(tenants, kind, cfg, shares);
}

}  // namespace ro
