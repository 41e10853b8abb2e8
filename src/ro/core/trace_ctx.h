// Recording execution context.
//
// Executes the algorithm exactly like SeqCtx (so outputs are real and
// testable) while building the TaskGraph: every get/set appends an Access
// to the recording's TraceStore, every fork2 creates two child activations
// and splits the current activation into segments.  Frame-local
// temporaries (`local<T>`) reserve symbolic offsets in the owning
// activation's stack frame; their concrete addresses are chosen by the
// scheduler at replay time, because they depend on which core's
// execution-stack arena the activation lands on (§3.3).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ro/core/context.h"
#include "ro/core/ctx_base.h"
#include "ro/core/graph.h"
#include "ro/mem/varray.h"
#include "ro/mem/vspace.h"
#include "ro/util/bits.h"
#include "ro/util/check.h"

namespace ro {

class TraceCtx : public CtxBase<TraceCtx> {
 public:
  static constexpr bool kRecording = true;

  struct Options {
    bool padded = false;         // padded BP/HBP frames (Def 3.3)
    uint64_t align_words = 4096; // VSpace allocation alignment
    uint32_t shard = 0;          // address shard to record into (vspace.h);
                                 // 0 = the single-shard compatibility path
    // The chunked store access records are appended to (bounded memory,
    // sealed segments spilled to disk per the store's options); run()
    // seals it and hands it to the graph as its access stream.  Null =
    // a default TraceStore(): an unwindowed store that never spills.
    std::shared_ptr<TraceStore> store;
  };

  TraceCtx() : TraceCtx(Options{}) {}
  explicit TraceCtx(Options opt);
  /// Records into an externally owned space (one shard of a ShardedVSpace);
  /// `vs` must outlive the context.  opt.shard/align_words are taken from
  /// the space itself, and checking vs.overflowed() is left to its owner.
  TraceCtx(Options opt, VSpace& vs);

  // ---- CtxBase customization points: record every access, place global
  // arrays in the virtual space, reserve frame offsets for locals ----
  template <class T>
  void on_access(const Slice<T>& s, size_t i, bool write) {
    record(s.base + i * words_per_v<T>, s.act, words_per_v<T>, write);
  }

  template <class T>
  VArray<T> do_alloc(size_t n, const char* name) {
    return VArray<T>(*vs_, n, name);
  }

  template <class T>
  Local<T> do_local(size_t n) {
    RO_CHECK_MSG(!stack_.empty(), "local<T>() outside run()");
    Builder& b = stack_.back();
    vaddr_t off = b.locals_words;
    b.locals_words += static_cast<uint32_t>(n * words_per_v<T>);
    return Local<T>(n, off, b.act);
  }

  // ---- forking ----
  template <class F, class G>
  void fork2(uint64_t size_left, F&& f, uint64_t size_right, G&& g) {
    RO_CHECK_MSG(!stack_.empty(), "fork2() outside run()");
    const Builder& b = stack_.back();
    const uint32_t parent = b.act;
    const uint32_t local_seg =
        static_cast<uint32_t>(open_segs_.size() - b.seg_begin);
    const uint16_t depth = static_cast<uint16_t>(g_.acts[parent].depth + 1);
    const uint32_t left = new_act(parent, local_seg, 0, depth, size_left);
    const uint32_t right = new_act(parent, local_seg, 1, depth, size_right);
    open_segs_.push_back(Segment{b.acc_begin, acc_count(),
                                 static_cast<int32_t>(left),
                                 static_cast<int32_t>(right)});
    begin_act(left);
    f();
    end_act();
    begin_act(right);
    g();
    end_act();
    stack_.back().acc_begin = acc_count();
  }

  /// Records the whole computation; returns the graph (ctx is then spent).
  template <class F>
  TaskGraph run(uint64_t root_size, F&& f) {
    RO_CHECK_MSG(stack_.empty(), "run() is not reentrant");
    const uint32_t root =
        new_act(kNoAct, 0, 0, /*depth=*/0, root_size);
    g_.root = root;
    begin_act(root);
    f();
    end_act();
    // An external space's owner checks it (the Engine turns an overflow
    // into a job status).
    RO_CHECK_MSG(!owned_ || !owned_->overflowed(),
                 "allocation overflows the shard's 2^40-word address range");
    g_.data_base = vs_->base();
    g_.data_top = vs_->top();
    g_.align_words = vs_->alignment();
    opt_.store->seal();
    g_.store = opt_.store;
    return std::move(g_);
  }

  VSpace& vspace() { return *vs_; }

  /// Shard this context records into.
  uint32_t shard() const { return vs_->shard(); }

 private:
  /// An open activation.  Its closed segments so far are
  /// open_segs_[seg_begin, end): activations nest, so every open
  /// activation's segments form one contiguous run of the shared stack.
  struct Builder {
    uint32_t act = 0;
    uint64_t acc_begin = 0;
    uint32_t locals_words = 0;
    size_t seg_begin = 0;
  };

  /// Access records appended so far.
  uint64_t acc_count() const { return opt_.store->size(); }

  void record(vaddr_t addr, uint32_t act, uint32_t len, bool write) {
    RO_CHECK_MSG(!stack_.empty(), "access outside run()");
    opt_.store->append(Access{addr, act, static_cast<uint16_t>(len),
                              static_cast<uint16_t>(write ? 1 : 0)});
  }

  /// Starts the graph's activation and segment tables from pooled
  /// capacity (util/vec_pool.h).
  void take_tables();
  uint32_t new_act(uint32_t parent, uint32_t parent_seg, uint8_t slot,
                   uint16_t depth, uint64_t size);
  void begin_act(uint32_t id);
  void end_act();

  Options opt_;
  std::unique_ptr<VSpace> owned_;  // null when recording into an external space
  VSpace* vs_;
  TaskGraph g_;
  std::vector<Builder> stack_;
  std::vector<Segment> open_segs_;  // segments of the open activations
};

static_assert(Context<TraceCtx>);

}  // namespace ro
