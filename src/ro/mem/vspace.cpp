#include "ro/mem/vspace.h"

namespace ro {

VSpace::VSpace(uint64_t alignment_words, vaddr_t base)
    : alignment_(alignment_words), base_(base), top_(base) {
  const char* bad = alignment_error(alignment_words);
  RO_CHECK_MSG(bad == nullptr, bad);
  RO_CHECK_MSG(base % alignment_words == 0,
               "space base must be alignment-aligned");
}

vaddr_t VSpace::allocate(uint64_t words, std::string name) {
  // Offsets within the shard: a 2^40 alignment cannot wrap them.
  const uint64_t off = round_up_pow2(top_ - base_, alignment_);
  if (overflowed_ || off > kShardSpanWords || words > kShardSpanWords - off) {
    overflowed_ = true;
    return base_;
  }
  const vaddr_t base = base_ + off;
  top_ = base + words;
  regions_.push_back(Region{base, words, std::move(name)});
  return base;
}

std::string VSpace::region_of(vaddr_t a) const {
  for (const auto& r : regions_) {
    if (a >= r.base && a < r.base + r.words) return r.name;
  }
  return "?";
}

ShardedVSpace::ShardedVSpace(uint32_t shards, uint64_t alignment_words)
    : alignment_(alignment_words) {
  RO_CHECK_MSG(shards >= 1 && shards <= kMaxShards,
               "shard count must be in [1, 2^24]");
  spaces_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    spaces_.emplace_back(alignment_words, shard_base(s));
  }
}

VSpace& ShardedVSpace::shard(uint32_t s) {
  RO_CHECK_MSG(s < spaces_.size(), "shard id out of range");
  return spaces_[s];
}

const VSpace& ShardedVSpace::shard(uint32_t s) const {
  RO_CHECK_MSG(s < spaces_.size(), "shard id out of range");
  return spaces_[s];
}

std::string ShardedVSpace::region_of(vaddr_t a) const {
  const uint32_t s = shard_of(a);
  if (s >= spaces_.size()) return "?";
  return spaces_[s].region_of(a);
}

bool ShardedVSpace::overflowed() const {
  for (const auto& vs : spaces_) {
    if (vs.overflowed()) return true;
  }
  return false;
}

uint64_t ShardedVSpace::allocated_words() const {
  uint64_t t = 0;
  for (const auto& vs : spaces_) t += vs.top() - vs.base();
  return t;
}

}  // namespace ro
