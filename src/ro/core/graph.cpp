#include "ro/core/graph.h"

#include <algorithm>

#include "ro/util/vec_pool.h"

namespace ro {

TaskGraph::~TaskGraph() {
  VecPool<Activation>::give(std::move(acts));
  VecPool<Segment>::give(std::move(segments));
}

uint64_t TaskGraph::seg_cost(const Segment& s,
                            TraceStore::Cursor& rd) const {
  uint64_t c = 0;
  for (uint64_t i = s.acc_begin; i < s.acc_end; ++i) c += rd.at(i).len;
  return c;
}

GraphStats TaskGraph::analyze() const {
  GraphStats st;
  st.activations = acts.size();
  st.accesses = acc_count();
  TraceStore::Cursor rd(*store);

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

}  // namespace ro
