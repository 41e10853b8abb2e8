#include "ro/sched/replay.h"

#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "ro/core/remap.h"
#include "ro/rt/pool.h"
#include "ro/sched/arena.h"
#include "ro/sim/cache.h"
#include "ro/sim/contention.h"
#include "ro/sim/directory.h"
#include "ro/sim/flat_index.h"
#include "ro/util/bits.h"
#include "ro/util/check.h"
#include "ro/util/rng.h"

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

/// Words of the shard's data region (one past the recorded top, rebased):
/// a remap may relocate lines above the recorded data top, and the stack
/// arenas — and the directory growth cap — must start above the remapped
/// image, not just the recorded one.
uint64_t data_words(const ShardSpan& span, const SimConfig& cfg) {
  vaddr_t end = span.data_top + 1;
  if (cfg.remap) {
    end = std::max(end, cfg.remap->dst_top_in(span.base,
                                              span.base + kShardSpanWords));
  }
  return end - span.base;
}

/// Access source over the resident TaskGraph::accesses vector — the
/// degenerate store whose one "segment" is the whole array.
struct VecSource {
  const Access* base = nullptr;
  struct Cursor {
    const Access* base = nullptr;
    Access at(uint64_t i) const { return base[i]; }
  };
  Cursor cursor() const { return Cursor{base}; }
};

/// Access source over one shard's chunked TraceStore (trace_store.h):
/// global access index -> store record (minus the part's acc_base), and
/// part-local activation ids -> graph-global ids (plus the span's
/// first_act — streamed records are immutable, so merge_shards never
/// rewrote them).  Each simulated core owns one Cursor, pinning one trace
/// segment; crossing a seal boundary faults the next segment in (a disk
/// reload when it was spilled), which is the entire difference between
/// the streaming walk and the resident one — the scheduling decisions
/// consume identical records, hence bit-identical Metrics.
struct StreamSource {
  TraceStore* store = nullptr;
  uint64_t acc_base = 0;
  uint32_t act_off = 0;
  struct Cursor {
    TraceStore::Cursor cur;
    uint64_t acc_base = 0;
    uint32_t act_off = 0;
    Access at(uint64_t i) {
      Access a = cur.at(i - acc_base);
      if (a.act != kNoAct) a.act += act_off;
      return a;
    }
  };
  Cursor cursor() const {
    return Cursor{TraceStore::Cursor(*store), acc_base, act_off};
  }
};

/// Sized data region of each span and its rebased offset in a replayer's
/// address space.  Span s's recorded address a maps to
/// off[s] + (a - span.base); off[0] == 0, so a single-span replayer sees
/// exactly the classic `span_rebase` addresses (bit-identical Metrics).
/// Later spans are placed above the previous span's aligned data image, so
/// distinct tenants never alias — capacity-shared replay contends for
/// cache space and cores, not addresses.
struct SpanLayout {
  std::vector<vaddr_t> off;       // rebased base offset per span
  uint64_t data_top = 0;          // one past the last span's data image
  uint64_t recorded_words = 0;    // sum of (data_top - base) per span
};

SpanLayout layout_spans(const std::vector<ShardSpan>& spans,
                        const SimConfig& cfg, uint64_t align) {
  SpanLayout lo;
  lo.off.reserve(spans.size());
  for (const ShardSpan& s : spans) {
    lo.off.push_back(lo.data_top);
    lo.data_top += round_up_pow2(data_words(s, cfg), align);
    lo.recorded_words += s.data_top - s.base;
  }
  return lo;
}

/// Replays one or more shard spans as a single unit: the priority-round
/// sequence on one simulated machine (cores, caches, directory, stack
/// arenas).  Addresses are rebased per span (SpanLayout), so the dense
/// directory and ever-loaded bitsets stay as small as the spans' combined
/// data regardless of which shards the data was recorded in.  One instance
/// never touches state outside its spans — the invariant that makes units
/// safe to run on concurrent host threads.
///
/// The classic sharded replay constructs one single-span instance per
/// shard (independent machines); capacity-shared replay (simulate_shared)
/// constructs one instance over ALL spans, whose roots are co-scheduled on
/// the shared cores and whose misses/transfers can be attributed per span
/// through `shares`.
///
/// The access stream is consumed through per-core, per-span cursors of
/// `Source` (VecSource / StreamSource above), never by walking a resident
/// array directly, so the same scheduling loop serves both the in-memory
/// and the bounded-memory streaming representations.
template <class Source>
class ShardReplayer {
 public:
  ShardReplayer(const TaskGraph& g, std::vector<ShardSpan> spans,
                SchedKind kind, const SimConfig& cfg,
                std::vector<Source> srcs,
                std::vector<TenantShare>* shares = nullptr)
      : g_(g), spans_(std::move(spans)), kind_(kind), cfg_(cfg),
        srcs_(std::move(srcs)), shares_(shares),
        sp_(cfg.effective_steal_latency()),
        layout_(layout_spans(spans_, cfg,
                             g.align_words ? g.align_words : 4096)),
        arenas_(layout_.data_top, g.align_words ? g.align_words : 4096,
                cfg.chunk_words),
        rng_(cfg.seed) {
    RO_CHECK_MSG(cfg_.p >= 1 && cfg_.p <= 64, "p must be in [1, 64]");
    RO_CHECK_MSG(cfg_.M / cfg_.B >= 1, "cache must hold >= 1 block");
    RO_CHECK_MSG(!spans_.empty() && spans_.size() == srcs_.size(),
                 "one access source per span");
    if (kind_ == SchedKind::kSeq) {
      RO_CHECK_MSG(cfg_.p == 1, "sequential schedule needs p == 1");
    }
    // Span-local state is indexed off the first span's ids; merge_shards
    // lays successive spans out contiguously, which this relies on.
    uint64_t acts = 0, segs = 0;
    for (size_t s = 0; s < spans_.size(); ++s) {
      RO_CHECK_MSG(spans_[s].first_act == spans_[0].first_act + acts &&
                       spans_[s].first_seg == spans_[0].first_seg + segs,
                   "shard spans must be contiguous");
      acts += spans_[s].num_acts;
      segs += spans_[s].num_segs;
    }
    const uint32_t lines = static_cast<uint32_t>(cfg_.M / cfg_.B);
    const uint32_t l2_lines =
        cfg_.M2 ? static_cast<uint32_t>(cfg_.M2 / cfg_.p / cfg_.B) : 0;
    cores_.reserve(cfg_.p);
    for (uint32_t i = 0; i < cfg_.p; ++i) {
      cores_.emplace_back(i, lines, l2_lines);
      for (const Source& src : srcs_) {
        cores_.back().curs.push_back(src.cursor());
      }
    }
    astate_.resize(acts);
    sstate_.resize(segs);
    if (shares_) shares_->assign(spans_.size(), TenantShare{});
    update_dir_limit();
  }

  Metrics run() {
    roots_left_ = static_cast<uint32_t>(spans_.size());
    // Seed the extra tenants' roots round-robin onto core deques (reversed
    // so core 0's bottom — resumed first — is span 1), stealable at depth 0
    // like any fork; span 0's root starts on core 0 exactly as the classic
    // single-span walk does.
    for (uint32_t s = static_cast<uint32_t>(spans_.size()); s-- > 1;) {
      cores_[s % cfg_.p].dq.push_back(static_cast<uint32_t>(spans_[s].root));
    }
    start_act(cores_[0], spans_[0].root, /*stolen=*/false);
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
  struct Frame {
    uint32_t act = 0;
    uint32_t seg = 0;    // local segment index
    uint64_t acc = 0;    // absolute cursor into g_.accesses
    uint32_t span = 0;   // owning span (= tenant) of `act`
  };

  struct Core {
    Core(uint32_t id_, uint32_t lines, uint32_t l2_lines)
        : id(id_), cache(lines), l2(l2_lines ? l2_lines : 1) {}
    uint32_t id;
    uint64_t time = 0;
    uint64_t last_productive = 0;
    bool busy = false;
    Frame fr;
    uint32_t cur_arena = kNoCore;  // stack the core pushes frames on
    // This core's window into each span's trace (one cursor per span; a
    // classic single-span unit has exactly one).
    std::vector<typename Source::Cursor> curs;
    std::deque<uint32_t> dq;  // stealable right children; back = bottom
    FlatLru cache;               // private L1
    FlatLru l2;                  // L2 partition (§5.2)
    FlatBlockSet invalidated;    // blocks lost to coherence
    std::vector<uint64_t> ever;  // ever-loaded bitset
    CoreMetrics m;
    // Profiling only (SimConfig::profile): last (word, task) this core
    // touched per held data block — the victim side of an invalidation
    // (contention.h).
    FlatBlockMap<LastTouch> last_touch;
  };

  struct ActState {
    vaddr_t frame_base = kUnresolved;
    ArenaSet::FrameToken token;
    bool started = false;
  };

  struct SegState {
    uint8_t pending = 0;
    uint32_t fork_core = kNoCore;
  };

  // Span-local state lookup: activation / segment ids are global into the
  // (possibly merged) graph, state vectors are sized to this unit's spans
  // only (contiguous id ranges, checked in the constructor).
  ActState& ast(uint32_t act) { return astate_[act - spans_[0].first_act]; }
  const ActState& ast(uint32_t act) const {
    return astate_[act - spans_[0].first_act];
  }
  SegState& sst(uint32_t gseg) { return sstate_[gseg - spans_[0].first_seg]; }

  /// Owning span of an activation id (binary search over the contiguous
  /// first_act ranges; trivially 0 for a single-span unit).
  uint32_t span_of_act(uint32_t act) const {
    uint32_t lo = 0, hi = static_cast<uint32_t>(spans_.size()) - 1;
    while (lo < hi) {
      const uint32_t mid = (lo + hi + 1) / 2;
      if (act >= spans_[mid].first_act) lo = mid;
      else hi = mid - 1;
    }
    return lo;
  }

  // ---- scheduling loop ----

  Core& pick_core() {
    Core* best = &cores_[0];
    for (auto& c : cores_) {
      if (c.time < best->time) best = &c;
    }
    return *best;
  }

  void step(Core& c) {
    if (!c.busy) {
      idle_step(c);
      return;
    }
    const Activation& a = g_.acts[c.fr.act];
    const Segment& seg = g_.segments[a.first_seg + c.fr.seg];
    if (c.fr.acc < seg.acc_end) {
      const Access acc = c.curs[c.fr.span].at(c.fr.acc);
      if (replay_access(c, acc)) ++c.fr.acc;  // else: waiting on a hold
      c.last_productive = c.time;
      return;
    }
    if (seg.has_fork()) {
      do_fork(c, a, seg);
    } else {
      complete_act(c, c.fr.act);
    }
    c.last_productive = c.time;
  }

  void idle_step(Core& c) {
    // Work-first: resume own deque bottom before stealing.
    if (!c.dq.empty()) {
      const uint32_t act = c.dq.back();
      c.dq.pop_back();
      start_act(c, act, /*stolen=*/false);
      return;
    }
    if (kind_ == SchedKind::kSeq) {
      // Nothing to resume and no stealing: only legal when done.
      RO_CHECK_MSG(done_, "sequential executor starved");
      return;
    }
    attempt_steal(c);
  }

  void attempt_steal(Core& c) {
    RO_CHECK_MSG(cfg_.p >= 2, "steal attempted with a single core");
    ++c.m.steal_attempts;
    uint32_t victim = kNoCore;
    if (kind_ == SchedKind::kPws) {
      // Steal the globally highest-priority stealable task (min depth).
      uint32_t best_depth = 0xFFFFFFFFu;
      for (const auto& v : cores_) {
        if (v.id == c.id || v.dq.empty()) continue;
        const uint32_t d = g_.acts[v.dq.front()].depth;
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
    const uint32_t act = v.dq.front();
    v.dq.pop_front();
    c.time += sp_;
    c.m.steal_cycles += sp_;
    ++c.m.steals;
    ++steals_per_priority_[g_.acts[act].depth];
    start_act(c, act, /*stolen=*/true);
  }

  void fail_steal(Core& c) {
    // Wait one steal period; jump ahead to the next busy core's time if the
    // whole machine is further along (avoids micro-polling).
    uint64_t target = c.time + sp_;
    uint64_t min_busy = ~uint64_t{0};
    bool any_busy = false;
    for (const auto& o : cores_) {
      if (o.id != c.id && (o.busy || !o.dq.empty())) {
        any_busy = true;
        min_busy = std::min(min_busy, o.time);
      }
    }
    RO_CHECK_MSG(any_busy || done_, "deadlock: all cores idle");
    if (any_busy && min_busy > target) target = min_busy;
    c.m.idle += target - c.time;
    c.m.steal_cycles += sp_;
    c.time = target;
  }

  // ---- activation lifecycle ----

  void start_act(Core& c, uint32_t act, bool stolen) {
    ActState& st = ast(act);
    RO_CHECK(!st.started);
    st.started = true;
    const Activation& a = g_.acts[act];
    if (stolen || a.parent == kNoAct) {
      c.cur_arena = arenas_.new_arena();  // fresh S_τ for a stolen kernel
    }
    RO_CHECK(c.cur_arena != kNoCore);
    st.token = arenas_.push(c.cur_arena, a.frame_words);
    update_dir_limit();  // the frame may have raised the high-water mark
    st.frame_base = st.token.base;
    c.busy = true;
    c.fr = Frame{act, 0, g_.segments[a.first_seg].acc_begin,
                 span_of_act(act)};
  }

  void do_fork(Core& c, const Activation& /*parent*/, const Segment& seg) {
    const uint32_t gseg =
        static_cast<uint32_t>(&seg - g_.segments.data());
    SegState& ss = sst(gseg);
    ss.pending = 2;
    ss.fork_core = c.id;
    if (cfg_.inject_frame_traffic) {
      const vaddr_t slots = fork_slot_addr(c.fr.act, c.fr.seg);
      touch(c, slots, 1, /*write=*/true, /*stack=*/true);
      touch(c, slots + 1, 1, /*write=*/true, /*stack=*/true);
    }
    c.dq.push_back(static_cast<uint32_t>(seg.right));
    start_act(c, static_cast<uint32_t>(seg.left), /*stolen=*/false);
  }

  void complete_act(Core& c, uint32_t act) {
    const Activation& a = g_.acts[act];
    ActState& st = ast(act);
    arenas_.complete(st.token);
    if (a.parent == kNoAct) {
      if (--roots_left_ == 0) done_ = true;
      c.busy = false;
      return;
    }
    const uint32_t gseg = g_.acts[a.parent].first_seg + a.parent_seg;
    if (cfg_.inject_frame_traffic) {
      // Deposit this child's result into the parent's fork slot.
      const vaddr_t slot =
          fork_slot_addr(a.parent, a.parent_seg) + a.child_slot;
      touch(c, slot, 1, /*write=*/true, /*stack=*/true);
    }
    SegState& ss = sst(gseg);
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
      const vaddr_t slots = fork_slot_addr(a.parent, a.parent_seg);
      touch(c, slots, 1, /*write=*/false, /*stack=*/true);
      touch(c, slots + 1, 1, /*write=*/false, /*stack=*/true);
    }
    const Activation& pa = g_.acts[a.parent];
    const uint32_t next_seg = a.parent_seg + 1;
    RO_CHECK(next_seg < pa.num_segs);
    c.busy = true;
    // The parent lives in the same span as its child.
    c.fr = Frame{a.parent, next_seg,
                 g_.segments[pa.first_seg + next_seg].acc_begin, c.fr.span};
  }

  vaddr_t fork_slot_addr(uint32_t act, uint32_t local_seg) const {
    const Activation& a = g_.acts[act];
    RO_CHECK(ast(act).frame_base != kUnresolved);
    return ast(act).frame_base + a.fork_slot_base + 2 * local_seg;
  }

  // ---- memory system ----

  /// Returns false when the access must be retried because another core's
  /// write hold is active on one of its blocks (§5.1): the core's clock is
  /// advanced to the hold expiry instead of performing the access.
  bool replay_access(Core& c, const Access& acc) {
    vaddr_t addr;
    bool stack = false;
    if (acc.act != kNoAct) {
      RO_CHECK_MSG(ast(acc.act).frame_base != kUnresolved,
                   "frame access before frame allocation");
      addr = acc.addr + ast(acc.act).frame_base;
      stack = true;
    } else {
      // A task only ever touches its own shard's data (shards share no
      // addresses), so the current frame's span owns this address.
      const ShardSpan& sp = spans_[c.fr.span];
      vaddr_t a = acc.addr;
      if (cfg_.remap != nullptr) {
        a = cfg_.remap->apply(a);
        RO_CHECK_MSG(a >= sp.base, "remap moved an address below its shard");
      }
      addr = layout_.off[c.fr.span] + span_rebase(a, sp.base);
    }
    // One directory probe (and at most one growth check) for the whole
    // access: the hold barrier and the touch below index the same entry
    // span instead of calling dir_.at() once each per block.
    const uint64_t b0 = addr / cfg_.B;
    const uint64_t b1 = (addr + acc.len - 1) / cfg_.B;
    Directory::Entry* const ents = dir_.span(b0, b1);
    if (cfg_.write_hold != 0) {
      const uint64_t until =
          hold_barrier(c, ents, b0, b1, acc.is_write());
      if (until > c.time) {
        c.m.hold_waits += until - c.time;
        c.time = until;
        return false;
      }
    }
    touch_span(c, ents, addr, b0, b1, acc.len, acc.is_write(), stack,
               c.fr.act);
    return true;
  }

  /// Latest active hold (by another core) over the blocks this access needs
  /// to transfer or invalidate; 0 when the access may proceed.  `ents` is
  /// the directory span for [b0, b1] (fetched once by replay_access).
  uint64_t hold_barrier(const Core& c, const Directory::Entry* ents,
                        uint64_t b0, uint64_t b1, bool write) {
    uint64_t until = 0;
    for (uint64_t b = b0; b <= b1; ++b) {
      const Directory::Entry& d = ents[b - b0];
      if (d.hold_owner == 0xFF || d.hold_owner == c.id) continue;
      if (d.hold_until <= c.time) continue;
      // A hold only gates actions that would disturb the holder: taking a
      // copy we do not have, or invalidating the holder with a write.
      if (!c.cache.contains(b) || write) {
        until = std::max(until, d.hold_until);
      }
    }
    return until;
  }

  void touch(Core& c, vaddr_t addr, uint16_t len, bool write, bool stack,
             uint32_t act = kNoAct) {
    const uint64_t b0 = addr / cfg_.B;
    const uint64_t b1 = (addr + len - 1) / cfg_.B;
    touch_span(c, dir_.span(b0, b1), addr, b0, b1, len, write, stack, act);
  }

  void touch_span(Core& c, Directory::Entry* ents, vaddr_t addr, uint64_t b0,
                  uint64_t b1, uint16_t len, bool write, bool stack,
                  uint32_t act) {
    c.time += len;
    c.m.compute += len;
    if (shares_) (*shares_)[c.fr.span].compute += len;
    for (uint64_t b = b0; b <= b1; ++b) {
      const uint16_t word =
          b == b0 ? static_cast<uint16_t>(addr % cfg_.B) : uint16_t{0};
      touch_block(c, b, word, write, stack, ents[b - b0], act);
    }
  }

  void touch_block(Core& c, uint64_t block, uint16_t word, bool write,
                   bool stack, Directory::Entry& d, uint32_t act) {
    // Attribution is for data lines only: stack frames are padded per
    // arena (Lemma 3.1), so their sharing is by design, not a bug to fix.
    const bool prof = cfg_.profile != nullptr && !stack;
    const uint64_t me = uint64_t{1} << c.id;
    bool hit;
    bool evicted = false;
    uint64_t victim = 0;
    if (cfg_.M2 == 0) {
      // Single-level machine (the default): the combined op resolves
      // hit / miss / eviction in one cache probe.  Performing the eviction
      // before the classification below is observationally identical —
      // classification reads only `invalidated` and the ever-loaded bitset,
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
      if (c.invalidated.erase(block)) {
        cls = MissClass::kCoherence;
        if (prof) cfg_.profile->record_coherence_miss(line_addr(block), word, act);
      } else if (ever_loaded(c, block)) {
        cls = MissClass::kCapacity;
      } else {
        cls = MissClass::kCold;
      }
      mark_loaded(c, block);
      ++c.m.miss[stack ? 1 : 0][static_cast<int>(cls)];
      if (shares_) {
        TenantShare& ts = (*shares_)[c.fr.span];
        if (cls == MissClass::kCoherence) ++ts.block_misses;
        else ++ts.cache_misses;
      }
      // §5.2 partitioned hierarchy: an L1 miss served by the core's L2
      // partition pays l2_latency; otherwise the full miss latency.
      if (cfg_.M2 && c.l2.contains(block)) {
        c.l2.touch(block);
        ++c.m.l2_hits;
        c.time += cfg_.l2_latency;
      } else {
        c.time += cfg_.miss_latency;
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
        if (shares_) ++(*shares_)[c.fr.span].transfers;
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
    if (write) {
      uint64_t others = d.holders & ~me;
      while (others) {
        const uint32_t h = static_cast<uint32_t>(std::countr_zero(others));
        others &= others - 1;
        cores_[h].cache.invalidate(block);
        cores_[h].l2.invalidate(block);
        cores_[h].invalidated.insert(block);
        if (prof) {
          // The victim's side of the event is its last touch of the line:
          // a different word makes this false sharing (a contention-graph
          // edge), the same word is true sharing a remap cannot remove.
          uint16_t vword = word;
          uint32_t vact = act;
          if (const LastTouch* lt = cores_[h].last_touch.find(block)) {
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
        d.hold_until = c.time + cfg_.write_hold;
      }
    }
    if (prof) c.last_touch.put(block, LastTouch{word, act});
  }

  /// Recorded (global) address of the line holding a rebased block —
  /// the ContentionProfile key, collision-free across shards.  Only called
  /// for data blocks, which always lie inside some span's data image.
  vaddr_t line_addr(uint64_t block) const {
    const vaddr_t a = block * cfg_.B;
    size_t s = spans_.size() - 1;
    while (s > 0 && a < layout_.off[s]) --s;
    return spans_[s].base + (a - layout_.off[s]);
  }

  /// Every address this unit can ever touch (rebased data + stack frames)
  /// lies below the arena bump pointer, so the directory may cap its
  /// geometric growth at that high-water mark: a sparse far access then
  /// sizes the table to the space that actually exists, not 1.5x beyond.
  void update_dir_limit() {
    dir_.set_limit((arenas_.bump() + cfg_.B - 1) / cfg_.B);
  }

  bool ever_loaded(const Core& c, uint64_t block) const {
    const uint64_t w = block / 64;
    return w < c.ever.size() && (c.ever[w] >> (block % 64)) & 1;
  }

  void mark_loaded(Core& c, uint64_t block) {
    const uint64_t w = block / 64;
    if (w >= c.ever.size()) c.ever.resize(w + 1 + w / 2, 0);
    c.ever[w] |= uint64_t{1} << (block % 64);
  }

  const TaskGraph& g_;
  std::vector<ShardSpan> spans_;
  SchedKind kind_;
  SimConfig cfg_;
  std::vector<Source> srcs_;
  std::vector<TenantShare>* shares_;
  uint32_t sp_;
  SpanLayout layout_;
  ArenaSet arenas_;
  Rng rng_;
  Directory dir_;
  std::vector<Core> cores_;
  std::vector<ActState> astate_;
  std::vector<SegState> sstate_;
  std::map<uint32_t, uint32_t> steals_per_priority_;
  uint32_t roots_left_ = 0;
  bool done_ = false;
};

/// One shard replay unit: (graph, span, scheduler, machine) -> Metrics.
struct Unit {
  const TaskGraph* g = nullptr;
  ShardSpan span;
  SchedKind kind = SchedKind::kSeq;
  SimConfig cfg;
  uint32_t job = 0;   // owning ReplayJob (simulate_all)
  int32_t part = -1;  // StreamPart index when the graph is streamed
};

SimConfig effective_cfg(SchedKind kind, SimConfig cfg) {
  if (kind == SchedKind::kSeq) cfg.p = 1;
  return cfg;
}

Metrics run_unit(const Unit& u) {
  if (u.part >= 0) {
    const StreamPart& part = u.g->streams[static_cast<size_t>(u.part)];
    StreamSource src{part.store.get(), part.acc_base, u.span.first_act};
    return ShardReplayer<StreamSource>(*u.g, {u.span}, u.kind, u.cfg, {src})
        .run();
  }
  VecSource src{u.g->accesses.data()};
  return ShardReplayer<VecSource>(*u.g, {u.span}, u.kind, u.cfg, {src}).run();
}

/// Host pool for the parallel replay phase.  A flat random-stealing pool
/// by default; when the caller's SimConfig carries a replay_layout the
/// workers are group-partitioned like the par-numa backends (a layout
/// sized for a different thread count falls back to a contiguous split
/// with the same group count — the clamp to the unit count must not
/// invalidate it).  A host knob only: unit metrics never depend on it.
rt::Pool make_replay_pool(uint32_t threads, const SimConfig& cfg) {
  rt::PoolOptions popt;
  popt.policy = rt::StealPolicy::kRandom;
  if (cfg.replay_layout.groups() > 0) {
    popt.layout = cfg.replay_layout.valid(threads)
                      ? cfg.replay_layout
                      : rt::GroupLayout::contiguous(threads,
                                                    cfg.replay_layout.groups());
    popt.pin = cfg.replay_pin;
  }
  return rt::Pool(threads, popt);
}

/// Runs every unit (results indexed like `units`), on `threads` host
/// workers when that buys anything.  Each unit is a fully sequential
/// ShardReplayer walk, so the assignment of units to threads cannot change
/// any unit's Metrics — only the wall clock.  `wall_ms`, when non-null, is
/// resized and filled with each unit's host replay time.
///
/// The pool is created per call on purpose: Pool::run is not reentrant, so
/// a cached shared pool would break under concurrent simulate() callers,
/// and the spawn cost (~tens of µs) is noise next to any replay worth
/// parallelizing.
std::vector<Metrics> run_units(std::vector<Unit> units,
                               uint32_t replay_threads,
                               std::vector<double>* wall_ms) {
  // Concurrent units must not share a caller-provided ContentionProfile:
  // each profiled unit records into its own local, merged back below in
  // unit (= job, then shard) order after the barrier.  The merge itself is
  // order-insensitive (pure sums), so profiled replay is bit-identical for
  // every replay_threads value — the same guarantee Metrics carry.
  std::vector<ContentionProfile> local(units.size());
  std::vector<ContentionProfile*> sink(units.size(), nullptr);
  for (size_t i = 0; i < units.size(); ++i) {
    if (units[i].cfg.profile != nullptr) {
      sink[i] = units[i].cfg.profile;
      units[i].cfg.profile = &local[i];
    }
  }
  std::vector<Metrics> out(units.size());
  if (wall_ms) wall_ms->assign(units.size(), 0.0);
  auto run_one = [&](size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    out[i] = run_unit(units[i]);
    if (wall_ms) {
      (*wall_ms)[i] = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    }
  };
  const uint32_t t = replay_host_threads(replay_threads, units.size());
  if (t <= 1 || units.size() <= 1) {
    for (size_t i = 0; i < units.size(); ++i) run_one(i);
  } else {
    rt::Pool pool = make_replay_pool(t, units[0].cfg);
    rt::parallel_index(pool, units.size(), run_one);
  }
  for (size_t i = 0; i < units.size(); ++i) {
    if (sink[i] != nullptr) sink[i]->merge(local[i]);
  }
  return out;
}

std::vector<Unit> units_of(const TaskGraph& g, SchedKind kind,
                           const SimConfig& cfg, uint32_t job) {
  std::vector<Unit> units;
  const SimConfig ecfg = effective_cfg(kind, cfg);
  const std::vector<ShardSpan> spans = g.shard_spans();
  if (g.streaming()) {
    RO_CHECK_MSG(g.streams.size() == spans.size(),
                 "streamed graph must carry one part per shard span");
  }
  for (size_t k = 0; k < spans.size(); ++k) {
    units.push_back(Unit{&g, spans[k], kind, ecfg, job,
                         g.streaming() ? static_cast<int32_t>(k) : -1});
  }
  return units;
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

std::vector<Metrics> simulate_shards(const TaskGraph& g, SchedKind kind,
                                     const SimConfig& cfg) {
  return run_units(units_of(g, kind, cfg, 0), cfg.replay_threads, nullptr);
}

Metrics simulate(const TaskGraph& g, SchedKind kind, const SimConfig& cfg) {
  std::vector<Metrics> parts = simulate_shards(g, kind, cfg);
  if (parts.size() == 1) return std::move(parts[0]);
  return merge_shard_metrics(parts);
}

Metrics simulate_shared(const TaskGraph& g, SchedKind kind,
                        const SimConfig& cfg,
                        std::vector<TenantShare>* shares) {
  const SimConfig ecfg = effective_cfg(kind, cfg);
  const std::vector<ShardSpan> spans = g.shard_spans();
  if (g.streaming()) {
    RO_CHECK_MSG(g.streams.size() == spans.size(),
                 "streamed graph must carry one part per shard span");
    std::vector<StreamSource> srcs;
    srcs.reserve(spans.size());
    for (size_t k = 0; k < spans.size(); ++k) {
      srcs.push_back(StreamSource{g.streams[k].store.get(),
                                  g.streams[k].acc_base,
                                  spans[k].first_act});
    }
    return ShardReplayer<StreamSource>(g, spans, kind, ecfg, std::move(srcs),
                                       shares)
        .run();
  }
  std::vector<VecSource> srcs(spans.size(), VecSource{g.accesses.data()});
  return ShardReplayer<VecSource>(g, spans, kind, ecfg, std::move(srcs), shares)
      .run();
}

std::vector<std::vector<Metrics>> simulate_shards_all(
    const std::vector<ReplayJob>& jobs, uint32_t threads,
    std::vector<std::vector<double>>* wall_ms) {
  std::vector<Unit> units;
  for (size_t j = 0; j < jobs.size(); ++j) {
    auto ju = units_of(*jobs[j].g, jobs[j].kind, jobs[j].cfg,
                       static_cast<uint32_t>(j));
    units.insert(units.end(), ju.begin(), ju.end());
  }
  std::vector<double> unit_wall;
  std::vector<Metrics> per_unit =
      run_units(units, threads, wall_ms ? &unit_wall : nullptr);
  std::vector<std::vector<Metrics>> grouped(jobs.size());
  if (wall_ms) wall_ms->assign(jobs.size(), {});
  for (size_t i = 0; i < units.size(); ++i) {
    grouped[units[i].job].push_back(
        std::move(per_unit[i]));  // unit order == shard order
    if (wall_ms) (*wall_ms)[units[i].job].push_back(unit_wall[i]);
  }
  return grouped;
}

std::vector<Metrics> simulate_all(const std::vector<ReplayJob>& jobs,
                                  uint32_t threads) {
  std::vector<std::vector<Metrics>> grouped =
      simulate_shards_all(jobs, threads);
  std::vector<Metrics> out(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    out[j] = grouped[j].size() == 1 ? std::move(grouped[j][0])
                                    : merge_shard_metrics(grouped[j]);
  }
  return out;
}

}  // namespace ro
