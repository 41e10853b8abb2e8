// CRTP base for execution contexts.
//
// Every context exposes the same surface (get/set/alloc/local, see the
// Context concept in context.h); what differs is only the *accounting*:
// SeqCtx and rt::ParCtx execute directly, TraceCtx additionally records
// accesses against the virtual address space.  CtxBase funnels the shared
// data movement through three customization points so a new backend is
// one small subclass:
//
//   on_access(slice, i, write) — called before every accounted element
//                                access; default: no-op.
//   do_alloc<T>(n, name)       — global array allocation; default: plain
//                                heap storage, no virtual address.
//   do_local<T>(n)             — frame-local temporaries; default: heap
//                                storage outside any recorded frame.
//
// Derived contexts still provide fork2 and run themselves — the fork-join
// discipline is what distinguishes a backend, not the memory surface.
#pragma once

#include <cstdint>

#include "ro/mem/varray.h"

namespace ro {

template <class Derived>
class CtxBase {
 public:
  template <class T>
  T get(const Slice<T>& s, size_t i) {
    self().on_access(s, i, /*write=*/false);
    return s.ptr[i];
  }

  template <class T>
  void set(const Slice<T>& s, size_t i, T v) {
    self().on_access(s, i, /*write=*/true);
    s.ptr[i] = v;
  }

  template <class T>
  VArray<T> alloc(size_t n, const char* name = "") {
    return self().template do_alloc<T>(n, name);
  }

  template <class T>
  Local<T> local(size_t n) {
    return self().template do_local<T>(n);
  }

  // ---- default customization points: direct, unaccounted execution ----

  template <class T>
  void on_access(const Slice<T>&, size_t, bool) {}

  template <class T>
  VArray<T> do_alloc(size_t n, const char* /*name*/) {
    return VArray<T>(n);
  }

  template <class T>
  Local<T> do_local(size_t n) {
    return Local<T>(n, 0, kNoAct);
  }

 protected:
  Derived& self() { return static_cast<Derived&>(*this); }
};

}  // namespace ro
