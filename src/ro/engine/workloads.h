// The named-workload registry behind JobSpec::workload, and the one
// definition of its programs.
//
// A serve job arrives as data (a JSON JobSpec), not as code, so the
// programs it can run are the fixed registry below — deterministic builds
// of the Table-1 algorithms.  A workload is keyed by (name, n, seed): the
// same triple always produces the same program and therefore — on sim
// backends — the same bit-exact Metrics, which is what lets bench_serve
// cross-check a served job against a one-shot Engine::submit of the
// identical spec.  The benches, tools and tests run these same programs:
// by name, or through the two builders below where they need a parameter
// the key cannot carry.
//
//   msum             — divide-and-conquer sum over n random i64
//   ps               — prefix sums over n random i64
//   sort             — the recursive multi-way mergesort over n random i64
//   sort-spms        — the SPMS sample-partition mergesort, same inputs,
//                      under the job's RunOptions::spms tuning
//   counters-packed  — the false-sharing adversary: n counters packed one
//                      word apart, 16 increments each (the ro-doctor
//                      workload)
//   counters-padded  — the control: the same counters a block apart
//
// `seed` salts the input RNG (0 = the classic bench inputs), so batch
// shards get distinct-but-deterministic inputs via seed, seed+1, ...
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ro/alg/sort.h"
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

/// The sort workload: `kind` sorts n random i64 under `spms` (read by
/// kSpms only).  "sort" is kMsort with the default tuning, "sort-spms"
/// kSpms with the job's.
AnyProg sort_program(uint64_t n, uint64_t seed, alg::SortKind kind,
                     const alg::SpmsTuning& spms = {});

/// The counter stripes (alg/counters.h): k counters `stride` words
/// apart, `iters` increments each.  stride 1 is the packed adversary
/// ro-doctor must diagnose and repair, stride >= B a padded control.
/// "counters-packed" is (n, 16, 1) and "counters-padded" (n, 16, 64).
AnyProg counters_program(uint32_t k, uint64_t iters, uint64_t stride);

}  // namespace ro
