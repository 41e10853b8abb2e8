// Coherence directory: the replayer's one per-block state table.
//
// Implements the paper's §2.2 protocol: a write into a location of block β
// by core C invalidates every other cached copy of β; the next access of β
// by an invalidated core is a *block miss*.  Also tracks per-block transfer
// counts (Def 2.2 block delay): a fetch of a block currently held by some
// other cache counts as one cache-to-cache move.  Each entry also keeps,
// per core, whether the core ever loaded the block and whether it lost
// its copy to an invalidation — the two bits a miss is classified by.
//
// Block ids are sparse: every steal opens a fresh stack arena (§3.3), so
// a replay's address space grows by a whole arena chunk per steal while
// only a few blocks of each chunk are ever touched.  The table is
// therefore paged: small fixed pages, allocated on first touch, so memory
// follows the touched blocks, not the highest block id.  Entry addresses
// are stable for the directory's lifetime.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace ro {

class Directory {
 public:
  struct Entry {
    // Bitmasks over cores (p <= 64).
    uint64_t holders = 0;  // cores holding a copy
    uint64_t ever = 0;     // cores that ever loaded the block
    uint64_t invalid = 0;  // cores whose copy a write invalidated
    // §5.1 delayed release: when the last writer's hold expires, and who.
    uint64_t hold_until = 0;
    uint32_t transfers = 0;  // cache-to-cache moves of this block
    uint8_t hold_owner = 0xFF;
  };

  /// Blocks per page: small next to an arena chunk's blocks, so a steal's
  /// chunk, of which only the first few blocks are touched, costs a page.
  static constexpr uint64_t kPageEntries = 64;

  Entry& at(uint64_t block) {
    const uint64_t p = block / kPageEntries;
    if (p >= pages_.size()) {
      // Geometric while the table grows block by block; exact on a jump.
      pages_.resize(std::max(p + 1, pages_.size() + pages_.size() / 2));
    }
    std::unique_ptr<Page>& page = pages_[p];
    if (!page) page = std::make_unique<Page>();
    return (*page)[block % kPageEntries];
  }

  /// Pages allocated so far.
  size_t pages() const {
    return static_cast<size_t>(
        std::count_if(pages_.begin(), pages_.end(),
                      [](const auto& pg) { return pg != nullptr; }));
  }

  /// Highest transfer count over all blocks, and the total.
  struct TransferStats {
    uint64_t max_transfers = 0;
    uint64_t total_transfers = 0;
  };
  TransferStats transfer_stats() const {
    TransferStats t;
    for (const auto& page : pages_) {
      if (!page) continue;
      for (const Entry& e : *page) {
        t.max_transfers = std::max<uint64_t>(t.max_transfers, e.transfers);
        t.total_transfers += e.transfers;
      }
    }
    return t;
  }

 private:
  using Page = std::array<Entry, kPageEntries>;
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace ro
