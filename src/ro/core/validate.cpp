#include "ro/core/validate.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace ro {

LimitedAccessReport check_limited_access(const TaskGraph& g) {
  LimitedAccessReport r;
  std::unordered_map<uint64_t, uint32_t> global_writes;
  // Frame locations are keyed (act, offset); pack into one u64.
  std::unordered_map<uint64_t, uint32_t> frame_writes;
  TraceStore::Cursor rd(*g.store);  // one pinned trace segment at a time
  const uint64_t n = g.acc_count();
  for (uint64_t i = 0; i < n; ++i) {
    const Access a = rd.at(i);
    if (!a.is_write()) continue;
    ++r.total_writes;
    if (a.act == kNoAct) {
      uint32_t& c = global_writes[a.addr];
      ++c;
      r.max_writes_per_location = std::max(r.max_writes_per_location, c);
    } else {
      uint64_t key = (static_cast<uint64_t>(a.act) << 32) | a.addr;
      uint32_t& c = frame_writes[key];
      ++c;
      r.max_frame_writes = std::max(r.max_frame_writes, c);
    }
  }
  r.locations_written = global_writes.size() + frame_writes.size();
  return r;
}

BalanceReport check_balance(const TaskGraph& g) {
  BalanceReport r;
  std::unordered_map<uint32_t, std::pair<uint64_t, uint64_t>> depth_minmax;
  for (const auto& a : g.acts) {
    auto [it, fresh] = depth_minmax.try_emplace(a.depth, a.size, a.size);
    if (!fresh) {
      it->second.first = std::min(it->second.first, a.size);
      it->second.second = std::max(it->second.second, a.size);
    }
  }
  for (const auto& [d, mm] : depth_minmax) {
    if (mm.first > 0) {
      r.per_depth_ratio = std::max(
          r.per_depth_ratio, static_cast<double>(mm.second) / mm.first);
    }
  }
  for (size_t ai = 0; ai < g.acts.size(); ++ai) {
    const Activation& a = g.acts[ai];
    for (uint32_t k = 0; k + 1 < a.num_segs; ++k) {
      const Segment& s = g.segments[a.first_seg + k];
      if (!s.has_fork()) continue;
      ++r.forks;
      const uint64_t l = g.acts[s.left].size;
      const uint64_t rr = g.acts[s.right].size;
      if (l > 0 && rr > 0) {
        r.max_sibling_ratio =
            std::max(r.max_sibling_ratio,
                     static_cast<double>(std::max(l, rr)) / std::min(l, rr));
      }
      if (a.size > 0) {
        r.max_child_fraction =
            std::max(r.max_child_fraction,
                     static_cast<double>(std::max(l, rr)) / a.size);
      }
    }
  }
  return r;
}

HeadWorkReport check_head_work(const TaskGraph& g) {
  HeadWorkReport r;
  TraceStore::Cursor rd(*g.store);  // hoisted: one fault per trace segment
  for (const auto& a : g.acts) {
    for (uint32_t k = 0; k < a.num_segs; ++k) {
      const Segment& s = g.segments[a.first_seg + k];
      const uint64_t c = g.seg_cost(s, rd);
      if (s.has_fork()) {
        r.max_fork_segment_cost = std::max(r.max_fork_segment_cost, c);
      } else {
        r.max_terminal_cost = std::max(r.max_terminal_cost, c);
      }
    }
  }
  return r;
}

}  // namespace ro
