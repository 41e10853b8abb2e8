#include "ro/core/graph.h"

#include <algorithm>
#include <unordered_set>

#include "ro/util/check.h"
#include "ro/util/vec_pool.h"

namespace ro {

TaskGraph::~TaskGraph() {
  VecPool<Activation>::give(std::move(acts));
  VecPool<Segment>::give(std::move(segments));
}

void AccessReader::seek(uint64_t i) {
  RO_CHECK_MSG(i < g_->acc_count(), "access index out of range");
  // Parts are contiguous and sorted by acc_base; scans are sequential or
  // near-sequential, so a binary search on the rare part switch is plenty.
  size_t lo = 0, hi = g_->streams.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (g_->streams[mid].acc_base <= i) lo = mid;
    else hi = mid;
  }
  const StreamPart& part = g_->streams[lo];
  base_ = part.acc_base;
  count_ = part.acc_count;
  act_off_ = g_->shards.empty() ? 0 : g_->shards[lo].first_act;
  cur_ = TraceStore::Cursor(*part.store, part.acc_base);
}

uint64_t TaskGraph::seg_cost(const Segment& s) const {
  AccessReader rd(*this);
  return seg_cost(s, rd);
}

uint64_t TaskGraph::seg_cost(const Segment& s, AccessReader& rd) const {
  uint64_t c = 0;
  for (uint64_t i = s.acc_begin; i < s.acc_end; ++i) c += rd.at(i).len;
  return c;
}

GraphStats TaskGraph::analyze() const {
  GraphStats st;
  st.activations = acts.size();
  st.accesses = acc_count();
  AccessReader rd(*this);

  // Span: activations are created parent-before-child, so children have
  // larger ids; a reverse sweep sees every child's span before its parent.
  // The segments tile the access stream exactly, so the sweep also sums
  // the work: every access is read once.
  std::vector<uint64_t> span(acts.size(), 0);
  for (size_t ai = acts.size(); ai-- > 0;) {
    const Activation& a = acts[ai];
    uint64_t s = 0;
    bool leaf = true;
    for (uint32_t k = 0; k < a.num_segs; ++k) {
      const Segment& seg = segments[a.first_seg + k];
      // Shared reader: one pinned trace segment.
      const uint64_t c = seg_cost(seg, rd);
      s += c;
      st.work += c;
      if (seg.has_fork()) {
        leaf = false;
        s += kForkCost + kJoinCost +
             std::max(span[seg.left], span[seg.right]);
        st.work += kForkCost + kJoinCost;
      }
    }
    span[ai] = s;
    if (leaf) ++st.leaves;
    st.max_depth = std::max<uint32_t>(st.max_depth, a.depth);
  }
  st.span = span.empty() ? 0 : span[root];
  return st;
}

std::vector<ShardSpan> TaskGraph::shard_spans() const {
  if (!shards.empty()) return shards;
  return {ShardSpan{shard_of(data_base), root, data_base, data_top,
                    /*first_act=*/0, static_cast<uint32_t>(acts.size()),
                    /*first_seg=*/0, static_cast<uint32_t>(segments.size())}};
}

TaskGraph merge_shards(std::vector<TaskGraph> parts) {
  RO_CHECK_MSG(!parts.empty(), "merge_shards needs at least one recording");
  TaskGraph out;
  out.align_words = parts[0].align_words;
  std::unordered_set<uint32_t> seen_shards;
  for (size_t k = 0; k < parts.size(); ++k) {
    TaskGraph& g = parts[k];
    RO_CHECK_MSG(g.shards.empty() && g.streams.size() == 1,
                 "merge_shards inputs must be single-shard recordings");
    RO_CHECK_MSG(g.align_words == out.align_words,
                 "merge_shards inputs must share an allocation alignment");
    const uint32_t act_off = static_cast<uint32_t>(out.acts.size());
    const uint32_t seg_off = static_cast<uint32_t>(out.segments.size());
    const uint64_t acc_off = out.acc_count();
    RO_CHECK_MSG(out.acts.size() + g.acts.size() < (uint64_t{1} << 31),
                 "merged graph exceeds activation id range");

    const uint32_t sid = shard_of(g.data_base);
    RO_CHECK_MSG(seen_shards.insert(sid).second,
                 "merge_shards inputs must occupy distinct shards");
    out.shards.push_back(ShardSpan{
        sid, g.root + act_off, g.data_base, g.data_top, act_off,
        static_cast<uint32_t>(g.acts.size()), seg_off,
        static_cast<uint32_t>(g.segments.size())});

    for (Activation a : g.acts) {
      if (a.parent != kNoAct) a.parent += act_off;
      a.first_seg += seg_off;
      out.acts.push_back(a);
    }
    for (Segment s : g.segments) {
      s.acc_begin += acc_off;
      s.acc_end += acc_off;
      if (s.left >= 0) s.left += static_cast<int32_t>(act_off);
      if (s.right >= 0) s.right += static_cast<int32_t>(act_off);
      out.segments.push_back(s);
    }
    // Records are immutable (the store is shared), so their part-local
    // activation ids are NOT rewritten here; readers add the owning span's
    // first_act (== act_off recorded above) instead.
    out.streams.push_back(
        StreamPart{g.streams[0].store, acc_off, g.streams[0].acc_count});
    out.data_base = k == 0 ? g.data_base : std::min(out.data_base, g.data_base);
    out.data_top = std::max(out.data_top, g.data_top);
    g = TaskGraph{};  // release the part's storage as we go
  }
  out.root = out.shards[0].root;
  return out;
}

}  // namespace ro
