// The unit record of a trace: one memory access of one task.
//
// Lives in its own header so both the TaskGraph (graph.h) and the chunked
// TraceStore (trace_store.h) can speak the same record type without a
// dependency cycle.  The 16-byte fixed layout is the *resident* form
// only: spilled trace segments are delta/varint encoded (trace_codec.h)
// unless compression is disabled, in which case this struct doubles as
// the raw on-disk layout — which is why it is static_asserted to stay
// trivially copyable and exactly 16 bytes.
#pragma once

#include <cstdint>
#include <type_traits>

#include "ro/mem/vspace.h"

namespace ro {

/// One recorded memory access (element granularity; `len` words).
struct Access {
  vaddr_t addr;    // global vaddr, or frame offset when act != kNoAct
  uint32_t act;    // kNoAct for global memory, else frame-owning activation
  uint16_t len;    // words touched
  uint16_t flags;  // bit0 = write
  bool is_write() const { return flags & 1; }
  friend bool operator==(const Access&, const Access&) = default;
};
static_assert(sizeof(Access) == 16);
static_assert(std::is_trivially_copyable_v<Access>);

}  // namespace ro
