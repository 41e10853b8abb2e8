// Piecewise-affine address remapping — the trace-transformation seam of
// replay.
//
// A repaired data layout (padding a hot cache line, realigning an array)
// is expressed as a set of rules over *recorded* global addresses:
//
//   addr in [src, src + len)  ->  dst + (addr - src) * stride
//
// and identity everywhere else.  `stride > 1` spreads consecutive words
// apart — with stride = B every word of a falsely-shared line lands in
// its own block, which is exactly the padded-counter layout of
// mem/gap.h's StrideLayout rendered as an address transformation.
//
// The remap is applied by the replayer at cursor read time
// (SimConfig::remap), so a repaired layout replays straight off the
// original stored segments: nothing is rewritten, and the same TraceStore
// serves both the "before" and "after" runs of a verified repair.
//
// Constraints (checked at construction): rules are non-empty, source
// ranges are pairwise disjoint, and destination *images* are pairwise
// disjoint and disjoint from every source range — which makes the map
// injective on rule ranges and exactly invertible (`unmap`).  Rules must
// keep a remapped address inside its source shard's 2^40-word span
// (vspace.h): the replayer rebases per shard, and a rule crossing shards
// would alias another machine's memory.  Destinations are expected to lie
// above the shard's recorded data top — doctor::plan_repair allocates
// them there — so remapped lines never collide with live data.
//
// Multi-word accesses are remapped by their first word only and stay
// contiguous at the destination; a rule whose range is touched by
// accesses longer than its stride would interleave, so plan_repair only
// pads lines whose recorded accesses are single-word (the doctor checks,
// the remap documents).
#pragma once

#include <cstdint>
#include <vector>

#include "ro/mem/vspace.h"

namespace ro {

struct RemapRule {
  vaddr_t src = 0;      // first recorded address covered
  uint64_t len = 0;     // words covered (> 0)
  vaddr_t dst = 0;      // image of `src`
  uint64_t stride = 1;  // words between images of consecutive words (>= 1)

  vaddr_t src_end() const { return src + len; }
  /// One past the last address the rule can map to.
  vaddr_t dst_end() const { return dst + (len - 1) * stride + 1; }

  friend bool operator==(const RemapRule&, const RemapRule&) = default;
};

/// Why `rules` cannot form an AddressRemap (the constraints above), or
/// nullptr when they can.  AddressRemap RO_CHECKs it; readers of rules
/// off the wire refuse them instead.
const char* remap_rules_error(const std::vector<RemapRule>& rules);

class AddressRemap {
 public:
  AddressRemap() = default;
  /// Takes ownership of `rules`; validates the constraints above
  /// (RO_CHECK on remap_rules_error) and sorts by src.
  explicit AddressRemap(std::vector<RemapRule> rules);

  bool empty() const { return rules_.empty(); }
  const std::vector<RemapRule>& rules() const { return rules_; }

  /// The remapped address (identity when no rule covers `a`).
  vaddr_t apply(vaddr_t a) const;

  /// Inverse: given an address in the *image* of the map, recovers the
  /// unique preimage.  Returns false when `a` is not in the image — it
  /// lies in a destination gap between strided words, or in a source
  /// range (whose addresses were mapped away and are no longer reachable).
  bool unmap(vaddr_t a, vaddr_t* out) const;

  /// One past the highest destination address any rule maps into within
  /// [lo, hi); `lo` when no rule lands there.  The replayer uses this to
  /// start a shard's stack arenas above the remapped data.
  vaddr_t dst_top_in(vaddr_t lo, vaddr_t hi) const;

  friend bool operator==(const AddressRemap&, const AddressRemap&) = default;

 private:
  std::vector<RemapRule> rules_;       // sorted by src
  std::vector<uint32_t> by_dst_;       // rule indices sorted by dst
};

}  // namespace ro
