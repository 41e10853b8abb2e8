#include "ro/core/remap.h"

#include <algorithm>
#include <numeric>

#include "ro/util/check.h"

namespace ro {

const char* remap_rules_error(const std::vector<RemapRule>& rules) {
  for (const RemapRule& r : rules) {
    if (r.len == 0 || r.stride == 0) return "remap rule must cover words";
    // Measured from the shard offsets, so no rule can wrap past 2^64 and
    // src_end() / dst_end() below are exact.
    if (r.len > kShardSpanWords - shard_offset(r.src) ||
        r.len - 1 > (kShardSpanWords - 1 - shard_offset(r.dst)) / r.stride ||
        shard_of(r.src) != shard_of(r.dst))
      return "remap rule must stay within one shard span";
  }
  for (const RemapRule& r : rules) {
    for (const RemapRule& o : rules) {
      // Destinations must not shadow any source range (its own included),
      // or apply() would map two addresses to states the inverse cannot
      // tell apart.
      if (r.dst < o.src_end() && o.src < r.dst_end())
        return "remap destination overlaps a source range";
      if (&r == &o) continue;
      if (r.src < o.src_end() && o.src < r.src_end())
        return "remap source ranges overlap";
      if (r.dst < o.dst_end() && o.dst < r.dst_end())
        return "remap destination ranges overlap";
    }
  }
  return nullptr;
}

AddressRemap::AddressRemap(std::vector<RemapRule> rules)
    : rules_(std::move(rules)) {
  const char* bad = remap_rules_error(rules_);
  RO_CHECK_MSG(bad == nullptr, bad);
  std::sort(rules_.begin(), rules_.end(),
            [](const RemapRule& a, const RemapRule& b) { return a.src < b.src; });
  by_dst_.resize(rules_.size());
  std::iota(by_dst_.begin(), by_dst_.end(), 0u);
  std::sort(by_dst_.begin(), by_dst_.end(), [&](uint32_t a, uint32_t b) {
    return rules_[a].dst < rules_[b].dst;
  });
}

vaddr_t AddressRemap::apply(vaddr_t a) const {
  auto it = std::upper_bound(
      rules_.begin(), rules_.end(), a,
      [](vaddr_t x, const RemapRule& r) { return x < r.src; });
  if (it == rules_.begin()) return a;
  const RemapRule& r = *(it - 1);
  if (a >= r.src_end()) return a;
  return r.dst + (a - r.src) * r.stride;
}

bool AddressRemap::unmap(vaddr_t a, vaddr_t* out) const {
  // In some rule's destination image?
  auto it = std::upper_bound(by_dst_.begin(), by_dst_.end(), a,
                             [&](vaddr_t x, uint32_t i) {
                               return x < rules_[i].dst;
                             });
  if (it != by_dst_.begin()) {
    const RemapRule& r = rules_[*(it - 1)];
    if (a < r.dst_end()) {
      const uint64_t off = a - r.dst;
      if (off % r.stride != 0) return false;  // gap between strided words
      *out = r.src + off / r.stride;
      return true;
    }
  }
  // In a source range the map moved away from?
  auto sit = std::upper_bound(
      rules_.begin(), rules_.end(), a,
      [](vaddr_t x, const RemapRule& r) { return x < r.src; });
  if (sit != rules_.begin() && a < (sit - 1)->src_end()) return false;
  *out = a;  // identity region
  return true;
}

vaddr_t AddressRemap::dst_top_in(vaddr_t lo, vaddr_t hi) const {
  vaddr_t top = lo;
  for (const RemapRule& r : rules_) {
    if (r.dst >= lo && r.dst < hi) top = std::max(top, r.dst_end());
  }
  return top;
}

}  // namespace ro
