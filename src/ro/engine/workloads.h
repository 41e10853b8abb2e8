// The named-workload registry behind JobSpec::workload.
//
// A serve job arrives as data (a JSON JobSpec), not as code, so the
// programs it can run are the fixed registry below — deterministic builds
// of the Table-1 algorithms, mirroring the bench/common.h builders.  A
// workload is keyed by (name, n, seed): the same triple always produces
// the same program and therefore — on sim backends — the same bit-exact
// Metrics, which is what lets bench_serve cross-check a served job against
// a one-shot Engine::submit of the identical spec.
//
//   msum             — divide-and-conquer sum over n random i64
//   ps               — prefix sums over n random i64
//   sort             — the recursive multi-way mergesort over n random i64
//   sort-spms        — the SPMS sample-partition mergesort, same inputs,
//                      under the job's RunOptions::spms tuning
//   counters-packed  — the false-sharing adversary: n counters packed one
//                      word apart (the ro-doctor workload)
//   counters-padded  — the control: the same counters a block apart
//
// `seed` salts the input RNG (0 = the classic bench inputs), so batch
// shards get distinct-but-deterministic inputs via seed, seed+1, ...
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ro/alg/spms.h"
#include "ro/engine/any_prog.h"

namespace ro {

/// Builds the named workload as a type-erased program.  Returns an empty
/// AnyProg (operator bool false) for unknown names — the caller turns
/// that into a JobResult error, not an abort.  `spms` is the tuning the
/// sort-spms workload sorts under (ignored by the others).
AnyProg make_workload(const std::string& name, uint64_t n, uint64_t seed,
                      const alg::SpmsTuning& spms = {});

/// Registry names, for CLIs and error messages.
const std::vector<std::string>& workload_names();

}  // namespace ro
