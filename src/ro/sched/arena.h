// Execution-stack arenas (the paper's S_τ, §3.3).
//
// A core creates a fresh stack when it starts a stolen task (or the root);
// every frame the core subsequently pushes goes on its current stack, which
// mirrors "each core C, when it starts executing a task τ, will create an
// execution stack S_τ" — with child stealing a core can also resume pending
// tasks of an earlier kernel, and those frames simply land on its current
// stack, as in real child-stealing runtimes.
//
// Frames complete out of LIFO order when a join is usurped by another core,
// so deallocation is lazy: a completed frame is marked dead and space is
// reclaimed once everything above it is dead.  Arena chunks are carved from
// the simulated virtual address space above the recorded data segment at
// block-disjoint alignment (§2.2 allocation property); frame space *within*
// an arena is packed — exactly the stack block-sharing of Lemma 3.1, which
// padded frames (Def 3.3) mitigate.
#pragma once

#include <cstdint>
#include <vector>

#include "ro/mem/vspace.h"
#include "ro/util/bits.h"
#include "ro/util/check.h"

namespace ro {

/// Default words per stack chunk (a larger allocation alignment pads it).
inline constexpr uint64_t kStackChunkWords = uint64_t{1} << 14;

class ArenaSet {
 public:
  /// `base`: first vaddr available for stacks; `align`: chunk alignment.
  ArenaSet(vaddr_t base, uint64_t align,
           uint64_t chunk_words = kStackChunkWords)
      : bump_(round_up_pow2(base, align)), align_(align),
        chunk_words_(chunk_words) {}

  struct FrameToken {
    uint32_t arena = 0;
    uint32_t idx = 0;     // index into the arena's live-frame stack
    vaddr_t base = 0;     // resolved frame base address
  };

  uint32_t new_arena() {
    arenas_.push_back(Arena{});
    return static_cast<uint32_t>(arenas_.size() - 1);
  }

  FrameToken push(uint32_t arena, uint64_t words) {
    Arena& a = arenas_[arena];
    if (a.chunks.empty() || a.off + words > a.chunks[a.cur].words) {
      // Advance to the next chunk large enough; allocate if needed.
      uint32_t next = a.chunks.empty() ? 0 : a.cur + 1;
      while (next < a.chunks.size() && a.chunks[next].words < words) ++next;
      if (next >= a.chunks.size()) {
        const uint64_t sz =
            std::max(chunk_words_, round_up_pow2(words, align_));
        a.chunks.push_back(Chunk{bump_, sz});
        bump_ = round_up_pow2(bump_ + sz, align_);
        next = static_cast<uint32_t>(a.chunks.size() - 1);
      }
      a.cur = next;
      a.off = 0;
    }
    FrameToken t{arena, static_cast<uint32_t>(a.frames.size()),
                 a.chunks[a.cur].base + a.off};
    a.frames.push_back(Live{a.cur, a.off, false});
    a.off += words;
    return t;
  }

  /// Marks the frame dead; reclaims space once nothing live sits above it.
  void complete(const FrameToken& t) {
    Arena& a = arenas_[t.arena];
    RO_CHECK(t.idx < a.frames.size());
    a.frames[t.idx].dead = true;
    while (!a.frames.empty() && a.frames.back().dead) {
      a.cur = a.frames.back().chunk;
      a.off = a.frames.back().off;
      a.frames.pop_back();
    }
  }

  /// High-water mark of simulated stack space (words above `base`).
  vaddr_t bump() const { return bump_; }

 private:
  struct Chunk {
    vaddr_t base;
    uint64_t words;
  };
  struct Live {
    uint32_t chunk;
    uint64_t off;
    bool dead;
  };
  struct Arena {
    std::vector<Chunk> chunks;
    std::vector<Live> frames;
    uint32_t cur = 0;
    uint64_t off = 0;
  };

  vaddr_t bump_;
  uint64_t align_;
  uint64_t chunk_words_;
  std::vector<Arena> arenas_;
};

}  // namespace ro
