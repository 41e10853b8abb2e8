// The excess definition used throughout §4 of the paper.  The schedulers
// themselves are in replay.h.
#pragma once

#include <cstdint>

#include "ro/core/graph.h"
#include "ro/sched/replay.h"

namespace ro {

/// The paper's excess: how much a scheduled cost exceeds c·Q for c = O(1)
/// (we use c = 1 and report the raw difference, clamped at 0).
inline uint64_t excess(uint64_t scheduled, uint64_t sequential) {
  return scheduled > sequential ? scheduled - sequential : 0;
}

}  // namespace ro
