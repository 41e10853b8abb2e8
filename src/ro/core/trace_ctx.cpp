#include "ro/core/trace_ctx.h"

namespace ro {

TraceCtx::TraceCtx(Options opt)
    : opt_(opt),
      owned_(std::make_unique<VSpace>(opt.align_words,
                                      shard_base(opt.shard))),
      vs_(owned_.get()) {
  RO_CHECK_MSG(opt.shard < kMaxShards, "shard id out of range");
  if (!opt_.store) opt_.store = std::make_shared<TraceStore>();
}

TraceCtx::TraceCtx(Options opt, VSpace& vs) : opt_(opt), vs_(&vs) {
  opt_.align_words = vs.alignment();
  opt_.shard = vs.shard();
  if (!opt_.store) opt_.store = std::make_shared<TraceStore>();
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
  Builder b;
  b.act = id;
  b.acc_begin = acc_count();
  stack_.push_back(std::move(b));
}

void TraceCtx::end_act() {
  Builder b = std::move(stack_.back());
  stack_.pop_back();
  b.segs.push_back(Segment{b.acc_begin, acc_count(), -1, -1});

  Activation& a = g_.acts[b.act];
  a.first_seg = static_cast<uint32_t>(g_.segments.size());
  a.num_segs = static_cast<uint32_t>(b.segs.size());
  const uint32_t forks = a.num_segs - 1;
  const uint32_t pad =
      opt_.padded ? static_cast<uint32_t>(isqrt(a.size)) : 0;
  a.fork_slot_base = b.locals_words;
  a.frame_words = b.locals_words + 2 * std::max(1u, forks) + pad;
  g_.segments.insert(g_.segments.end(), b.segs.begin(), b.segs.end());
}

}  // namespace ro
