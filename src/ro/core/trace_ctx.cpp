#include "ro/core/trace_ctx.h"

#include "ro/util/vec_pool.h"

namespace ro {

TraceCtx::TraceCtx(Options opt)
    : opt_(opt),
      owned_(std::make_unique<VSpace>(opt.align_words,
                                      shard_base(opt.shard))),
      vs_(owned_.get()) {
  RO_CHECK_MSG(opt.shard < kMaxShards, "shard id out of range");
  if (!opt_.store) opt_.store = std::make_shared<TraceStore>();
  take_tables();
}

TraceCtx::TraceCtx(Options opt, VSpace& vs) : opt_(opt), vs_(&vs) {
  opt_.align_words = vs.alignment();
  opt_.shard = vs.shard();
  if (!opt_.store) opt_.store = std::make_shared<TraceStore>();
  take_tables();
}

void TraceCtx::take_tables() {
  // The graph hands these back to the pool when it is destroyed.
  g_.acts = VecPool<Activation>::take();
  g_.segments = VecPool<Segment>::take();
}

uint32_t TraceCtx::new_act(uint32_t parent, uint32_t parent_seg, uint8_t slot,
                           uint16_t depth, uint64_t size) {
  Activation a;
  a.parent = parent;
  a.parent_seg = parent_seg;
  a.child_slot = slot;
  a.depth = depth;
  a.size = size;
  g_.acts.push_back(a);
  return static_cast<uint32_t>(g_.acts.size() - 1);
}

void TraceCtx::begin_act(uint32_t id) {
  stack_.push_back(Builder{id, acc_count(), 0, open_segs_.size()});
}

void TraceCtx::end_act() {
  const Builder b = stack_.back();
  stack_.pop_back();
  open_segs_.push_back(Segment{b.acc_begin, acc_count(), -1, -1});

  Activation& a = g_.acts[b.act];
  a.first_seg = static_cast<uint32_t>(g_.segments.size());
  a.num_segs = static_cast<uint32_t>(open_segs_.size() - b.seg_begin);
  const uint32_t forks = a.num_segs - 1;
  const uint32_t pad =
      opt_.padded ? static_cast<uint32_t>(isqrt(a.size)) : 0;
  a.fork_slot_base = b.locals_words;
  a.frame_words = b.locals_words + 2 * std::max(1u, forks) + pad;
  g_.segments.insert(g_.segments.end(), open_segs_.begin() + b.seg_begin,
                     open_segs_.end());
  open_segs_.resize(b.seg_begin);
}

}  // namespace ro
