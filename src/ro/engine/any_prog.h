// Type-erased Engine programs.
//
// Every Engine backend executes a user program through exactly one of
// three context instantiations: EngineCtx<SeqCtx> (seq), EngineCtx<TraceCtx>
// (the sim/record backends, recording into any address shard through
// TraceCtx's shard option or an external shard space), and
// EngineCtx<rt::ParCtx> (the real-thread backends).  A
// generic prog lambda therefore erases to three std::functions, one per
// instantiation — which is what lets Engine::submit and the whole
// record/replay/report pipeline live in engine.cpp as ordinary
// (non-template) code that concurrent callers share.
#pragma once

#include <functional>
#include <type_traits>
#include <utility>

#include "ro/core/ctx_base.h"
#include "ro/engine/report.h"
#include "ro/core/seq_ctx.h"
#include "ro/core/trace_ctx.h"
#include "ro/rt/par_ctx.h"
#include "ro/util/check.h"

namespace ro {

namespace detail {

/// Uniform run() seam over the concrete contexts: forwards the whole
/// Context surface to `Inner` and captures the TaskGraph that only the
/// recording context produces, so one generic `prog(cx)` works everywhere.
template <class Inner>
class EngineCtx : public CtxBase<EngineCtx<Inner>> {
 public:
  static constexpr bool kRecording = Inner::kRecording;

  explicit EngineCtx(Inner& in) : in_(in) {}

  template <class T>
  void on_access(const Slice<T>& s, size_t i, bool write) {
    in_.on_access(s, i, write);  // Inner's accounting, Inner's default
  }

  template <class T>
  VArray<T> do_alloc(size_t n, const char* name) {
    return in_.template alloc<T>(n, name);
  }

  template <class T>
  Local<T> do_local(size_t n) {
    return in_.template local<T>(n);
  }

  template <class F, class G>
  void fork2(uint64_t size_left, F&& f, uint64_t size_right, G&& g) {
    in_.fork2(size_left, std::forward<F>(f), size_right, std::forward<G>(g));
  }

  template <class F>
  void run(uint64_t root_size, F&& f) {
    if constexpr (Inner::kRecording) {
      graph_ = in_.run(root_size, std::forward<F>(f));
    } else {
      in_.run(root_size, std::forward<F>(f));
    }
  }

  TaskGraph& graph() { return graph_; }

 private:
  Inner& in_;
  TaskGraph graph_;
};

}  // namespace detail

/// A user program erased over the three concrete context instantiations.
/// Constructible from any generic callable `prog(auto& cx)` that the
/// templated Engine entry points accept; invocable by the non-template
/// execution core with whichever context the backend selects.  A callable
/// invocable with only *some* contexts (e.g. the trace-only
/// std::function progs batch benches build) erases just those — the
/// backends it cannot serve are reported via supports() and refused with
/// a JobResult error instead of a template error.  Copyable (copies share
/// the underlying callable's captured state, exactly like copying the
/// lambda itself).
class AnyProg {
 public:
  AnyProg() = default;

  template <class Prog,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<Prog>, AnyProg>>>
  AnyProg(Prog&& prog) {  // NOLINT: implicit by design — run(lambda) works
    if constexpr (std::is_invocable_v<Prog&, detail::EngineCtx<SeqCtx>&>) {
      seq_ = prog;
    }
    if constexpr (std::is_invocable_v<Prog&, detail::EngineCtx<TraceCtx>&>) {
      trace_ = prog;
    }
    if constexpr (std::is_invocable_v<Prog&,
                                      detail::EngineCtx<rt::ParCtx>&>) {
      par_ = std::forward<Prog>(prog);
    }
  }

  explicit operator bool() const {
    return seq_ != nullptr || trace_ != nullptr || par_ != nullptr;
  }

  /// True when the program erases the context instantiation `b` executes
  /// through (kSeq -> SeqCtx, sim backends -> TraceCtx, par -> ParCtx).
  bool supports(Backend b) const {
    if (b == Backend::kSeq) return seq_ != nullptr;
    if (backend_is_sim(b)) return trace_ != nullptr;
    return par_ != nullptr;
  }

  void operator()(detail::EngineCtx<SeqCtx>& cx) const {
    RO_CHECK_MSG(seq_ != nullptr, "program does not support the seq context");
    seq_(cx);
  }
  void operator()(detail::EngineCtx<TraceCtx>& cx) const {
    RO_CHECK_MSG(trace_ != nullptr,
                 "program does not support the recording context");
    trace_(cx);
  }
  void operator()(detail::EngineCtx<rt::ParCtx>& cx) const {
    RO_CHECK_MSG(par_ != nullptr,
                 "program does not support the real-thread context");
    par_(cx);
  }

 private:
  std::function<void(detail::EngineCtx<SeqCtx>&)> seq_;
  std::function<void(detail::EngineCtx<TraceCtx>&)> trace_;
  std::function<void(detail::EngineCtx<rt::ParCtx>&)> par_;
};

}  // namespace ro
