// ro-doctor — the closed false-sharing diagnosis -> repair -> verify loop.
//
// The simulator charges false sharing exactly (sim::Directory, Def 2.2);
// a ContentionProfile attributes every coherence event to (line, word,
// task).  This layer turns that attribution into action:
//
//   1. classify():    walk the profile's per-line contention graphs
//                     (vertices = words, edges weighted by false-sharing
//                     invalidations) into ranked LineFindings —
//                     false sharing, true sharing, or mixed.
//   2. plan_repair(): emit the repair as a concrete AddressRemap — each
//                     repairable line is spread out at stride B above the
//                     shard's data top (the mem/gap.h StrideLayout padding
//                     rendered as a trace transformation), so every
//                     contended word gets a private block.
//   3. verify:        replay the *same* stored trace under the remap
//                     (SimConfig::remap) and compare bit-exact before /
//                     after Metrics — the predicted block-miss delta is
//                     proved, not estimated.  Engine::diagnose drives the
//                     whole loop and returns a DoctorReport.
//
// Unlike perf-c2c / Huron / cacheSight, which sample real hardware and
// must approximate, replay sees every access: the verdicts below are
// exact for the simulated machine, and a repair's effect is demonstrated
// by re-running the machine, not by a cost model.
//
// True sharing (the same word ping-ponging between tasks) is reported but
// never "repaired": no layout change removes a genuine data dependency.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ro/core/graph.h"
#include "ro/core/remap.h"
#include "ro/engine/report.h"
#include "ro/sim/contention.h"

namespace ro::doctor {

enum class Pattern : uint8_t {
  kFalseSharing = 0,  // all invalidations at distinct words
  kTrueSharing = 1,   // all invalidations at the same word
  kMixed = 2,         // both; padding removes only the false part
};

// "false-sharing", "true-sharing", "mixed".
json::EnumNames<Pattern> wire_names(Pattern);
inline const char* pattern_name(Pattern p) { return json::enum_name(p); }
inline bool parse_pattern(const std::string& name, Pattern& out) {
  return json::parse_enum(name, out);
}

/// One contended cache line, ranked (classify sorts by false_events desc,
/// then transfers, then address — a deterministic total order).
struct LineFinding {
  vaddr_t line = 0;         // recorded address of the line's first word
  Pattern pattern = Pattern::kFalseSharing;
  uint64_t false_events = 0;
  uint64_t true_events = 0;
  uint64_t transfers = 0;
  uint64_t coherence_misses = 0;
  uint32_t tasks = 0;                // distinct activations involved
  std::vector<uint16_t> hot_words;   // contended word offsets, ascending

  friend bool operator==(const LineFinding&, const LineFinding&) = default;
};

struct DoctorOptions {
  uint32_t max_lines = 64;        // findings / repairs per report
  uint64_t min_false_events = 1;  // repair threshold
};

/// Ranked findings over every line the profile saw events on.
std::vector<LineFinding> classify(const ContentionProfile& profile,
                                  const DoctorOptions& opt = {});

/// The repair: one padding rule per repairable finding (false or mixed
/// sharing with >= min_false_events), destinations bump-allocated above
/// each shard's data top on its block grid.
struct RepairPlan {
  AddressRemap remap;
  uint64_t lines_padded = 0;
  uint64_t predicted_avoided_events = 0;  // sum of padded false_events

  friend bool operator==(const RepairPlan&, const RepairPlan&) = default;
};

RepairPlan plan_repair(const std::vector<LineFinding>& findings,
                       const TaskGraph& g, uint32_t B,
                       const DoctorOptions& opt = {});

/// The full loop's result: findings + plan + bit-exact before/after
/// replays.  `after` is populated only when the plan is non-empty.
struct DoctorReport {
  std::string label;
  Backend backend = Backend::kSimPws;
  uint32_t p = 0;
  uint64_t M = 0;
  uint32_t B = 0;

  std::vector<LineFinding> findings;
  RepairPlan plan;

  RunReport before;
  RunReport after;
  bool has_after = false;

  uint64_t before_block_transfers() const {
    return before.sim.total_block_transfers;
  }
  uint64_t after_block_transfers() const {
    return after.sim.total_block_transfers;
  }
  /// before/after block-transfer ratio (0 when there is no after run or
  /// nothing was transferred after the repair — i.e. a total cure).
  double transfer_reduction() const;

  /// Nested JSON: doctor scalars, findings array, plan (rules array), and
  /// the two embedded RunReports in their flat schema.
  std::string to_json() const;
};

/// Parses to_json output back; round-trips exactly like report_from_json
/// (doctor_report_from_json(r.to_json()).to_json() == r.to_json()).
/// Unknown and missing fields default; returns false on malformed JSON.
bool doctor_report_from_json(const std::string& json, DoctorReport& out);

}  // namespace ro::doctor
