// Virtual address space for trace recording.
//
// The paper's machine organizes data in blocks of B words.  We record every
// algorithm's memory accesses against a *virtual* word-addressed space so
// that a single recorded trace can be replayed on any simulated machine
// (p, M, B): block ids are computed at replay time as vaddr / B.
//
// Allocations are aligned to `alignment_words` (>= the largest block size we
// ever simulate), which realizes the paper's system property that "whenever a
// core requests space it is allocated in block sized units; allocations to
// different cores are disjoint and entail no block sharing" (§2.2).
//
// ## Shards
//
// The 64-bit virtual address is split into a shard id and an in-shard
// offset (docs/sharding.md):
//
//   bit 63                40 39                                0
//      +--------------------+----------------------------------+
//      |   shard id (24 b)  |   in-shard word offset (40 b)    |
//      +--------------------+----------------------------------+
//
// Shard 0 is the compatibility path: its addresses are plain offsets,
// bit-for-bit identical to the pre-shard single-space layout, so existing
// recordings and callers are untouched.  Independent workload instances
// record into distinct shards; because the shard id lives in the high bits,
// allocations from different instances can never alias — not even at block
// granularity — which keeps per-shard block/cache-line accounting exact and
// makes batch replay embarrassingly parallel (Cole–Ramachandran treat
// per-task block ownership as the unit of accounting; a shard is the same
// invariant at workload-instance granularity).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ro/util/bits.h"
#include "ro/util/check.h"

namespace ro {

/// Virtual address, in 8-byte words.
using vaddr_t = uint64_t;

/// Width of the in-shard offset field: each shard addresses 2^40 words
/// (8 TiB) — far above any recorded trace, so the split costs nothing.
inline constexpr unsigned kShardShiftBits = 40;
/// Words addressable within one shard.
inline constexpr vaddr_t kShardSpanWords = vaddr_t{1} << kShardShiftBits;
/// Maximum number of shards (24 high bits).
inline constexpr uint32_t kMaxShards = 1u << 24;

/// Shard id encoded in the high bits of `a`.
constexpr uint32_t shard_of(vaddr_t a) {
  return static_cast<uint32_t>(a >> kShardShiftBits);
}

/// First address of shard `s`.
constexpr vaddr_t shard_base(uint32_t s) {
  return static_cast<vaddr_t>(s) << kShardShiftBits;
}

/// Offset of `a` within its shard.
constexpr vaddr_t shard_offset(vaddr_t a) {
  return a & (kShardSpanWords - 1);
}

/// Rebases a global address onto a span that starts at `base` (a shard
/// base, or any segment-relative origin): replay rebases every shard's
/// addresses to 0 so per-shard directories and ever-loaded bitsets are
/// sized by the span, not by where in the 64-bit space it was recorded.
/// `a` must lie at or above `base`.
constexpr vaddr_t span_rebase(vaddr_t a, vaddr_t base) { return a - base; }

/// Why `alignment_words` cannot align a VSpace (null when it can: a power
/// of two no larger than a shard, so every shard base is aligned).  VSpace
/// RO_CHECKs it; spec validation reports it as an error.
constexpr const char* alignment_error(uint64_t alignment_words) {
  if (!is_pow2(alignment_words)) return "align_words must be a power of two";
  return alignment_words <= kShardSpanWords
             ? nullptr
             : "align_words must be at most 2^40 (one shard)";
}

/// Bump allocator over one contiguous virtual range; also keeps a registry
/// of named regions so probes and error messages can say what a block
/// belongs to.  A default-constructed VSpace covers shard 0 (base 0) — the
/// single-shard compatibility path.
class VSpace {
 public:
  /// `alignment_words` must be a power of two; every allocation starts at a
  /// multiple of it.  Default 4096 words = 32 KiB, an upper bound on any
  /// block size used in experiments.  `base` is the first address of the
  /// range (a shard base when the space backs one shard of a
  /// ShardedVSpace); it must itself be alignment-aligned.
  explicit VSpace(uint64_t alignment_words = 4096, vaddr_t base = 0);

  /// Reserves `words` words; returns the (aligned) base address.  An
  /// allocation that does not fit the shard's 2^40-word range returns
  /// base() instead and marks the space overflowed(): its records alias,
  /// so the space's owner must discard the recording.
  vaddr_t allocate(uint64_t words, std::string name = "");

  /// Whether some allocation did not fit the shard's range.
  bool overflowed() const { return overflowed_; }

  /// First address beyond any allocation (>= base()).
  vaddr_t top() const { return top_; }

  /// First address of this space's range.
  vaddr_t base() const { return base_; }

  /// Shard id this space allocates in.
  uint32_t shard() const { return shard_of(base_); }

  uint64_t alignment() const { return alignment_; }

  /// Name of the region containing `a` ("?" if none).
  std::string region_of(vaddr_t a) const;

  struct Region {
    vaddr_t base;
    uint64_t words;
    std::string name;
  };
  const std::vector<Region>& regions() const { return regions_; }

 private:
  uint64_t alignment_;
  vaddr_t base_ = 0;
  vaddr_t top_ = 0;
  bool overflowed_ = false;
  std::vector<Region> regions_;
};

/// Per-shard address ranges under one roof: shard `s` allocates from
/// `shard_base(s)` up, so the spaces are pairwise disjoint by construction
/// and a batch of recordings can share one registry.  Each shard is an
/// independent VSpace — concurrent recorders may allocate in *different*
/// shards without synchronization (the vector is sized up front and never
/// reallocates).
class ShardedVSpace {
 public:
  explicit ShardedVSpace(uint32_t shards, uint64_t alignment_words = 4096);

  /// The allocator of shard `s` (0 <= s < shards()).
  VSpace& shard(uint32_t s);
  const VSpace& shard(uint32_t s) const;

  uint32_t shards() const { return static_cast<uint32_t>(spaces_.size()); }
  uint64_t alignment() const { return alignment_; }

  /// Name of the region containing `a`, searched in the owning shard
  /// ("?" when the shard is out of range or the address is unallocated).
  std::string region_of(vaddr_t a) const;

  /// Total words allocated across all shards (sum of per-shard tops minus
  /// bases; the address *range* is of course sparse).
  uint64_t allocated_words() const;

  /// Whether any shard's space overflowed (VSpace::overflowed).
  bool overflowed() const;

 private:
  uint64_t alignment_;
  std::vector<VSpace> spaces_;
};

}  // namespace ro
