#include "ro/doctor/doctor.h"

#include <algorithm>
#include <set>
#include <utility>

#include "ro/util/check.h"
#include "ro/util/flatjson.h"

namespace ro {

template <class V>
void fields(RemapRule& r, V& v) {
  v("src", r.src);
  v("len", r.len);
  v("dst", r.dst);
  v("stride", r.stride);
}

}  // namespace ro

namespace ro::doctor {

json::EnumNames<Pattern> wire_names(Pattern) {
  static constexpr json::EnumName<Pattern> kNames[] = {
      {Pattern::kFalseSharing, "false-sharing"},
      {Pattern::kTrueSharing, "true-sharing"},
      {Pattern::kMixed, "mixed"}};
  return {"pattern", kNames};
}

std::vector<LineFinding> classify(const ContentionProfile& profile,
                                  const DoctorOptions& opt) {
  std::vector<LineFinding> out;
  for (const auto& [addr, line] : profile.lines()) {
    LineFinding f;
    f.line = addr;
    f.false_events = line.false_events;
    f.true_events = line.true_events;
    f.transfers = line.transfers;
    if (f.false_events == 0 && f.true_events == 0) {
      // Transfers without invalidations (read sharing) are not contention.
      continue;
    }
    f.pattern = f.true_events == 0 ? Pattern::kFalseSharing
              : f.false_events == 0 ? Pattern::kTrueSharing
                                    : Pattern::kMixed;
    std::set<uint32_t> tasks;
    for (const auto& [word, ws] : line.words) {
      f.coherence_misses += ws.coherence_misses;
      if (ws.invalidations_caused + ws.invalidations_suffered > 0) {
        f.hot_words.push_back(word);
      }
      for (const auto& [act, n] : ws.tasks) tasks.insert(act);
    }
    f.tasks = static_cast<uint32_t>(tasks.size());
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(),
            [](const LineFinding& a, const LineFinding& b) {
              if (a.false_events != b.false_events)
                return a.false_events > b.false_events;
              if (a.transfers != b.transfers) return a.transfers > b.transfers;
              return a.line < b.line;
            });
  if (out.size() > opt.max_lines) out.resize(opt.max_lines);
  return out;
}

RepairPlan plan_repair(const std::vector<LineFinding>& findings,
                       const TaskGraph& g, uint32_t B,
                       const DoctorOptions& opt) {
  RO_CHECK_MSG(B >= 1, "plan_repair needs the replay block size");
  RepairPlan plan;
  // Destination bump pointer, starting one block past the recorded data
  // (the block grid is rebased to data_base, so the rounding happens in
  // offset space).
  const uint64_t off = g.data_top - g.data_base;
  vaddr_t bump = g.data_base + (off + B - 1) / B * B;
  std::vector<RemapRule> rules;
  for (const LineFinding& f : findings) {
    if (f.pattern == Pattern::kTrueSharing) continue;
    if (f.false_events < opt.min_false_events) continue;
    RO_CHECK_MSG(shard_of(f.line) == shard_of(g.data_base),
                 "finding outside the recorded shard");
    RemapRule r;
    r.src = f.line;
    r.len = B;
    r.dst = bump;
    r.stride = B;  // one private block per word — gap.h StrideLayout
    bump += uint64_t{B} * B;
    rules.push_back(r);
    ++plan.lines_padded;
    plan.predicted_avoided_events += f.false_events;
  }
  plan.remap = AddressRemap(std::move(rules));
  return plan;
}

double DoctorReport::transfer_reduction() const {
  if (!has_after || after.sim.total_block_transfers == 0) return 0;
  return static_cast<double>(before.sim.total_block_transfers) /
         static_cast<double>(after.sim.total_block_transfers);
}

// ---- JSON ----
//
// Written and read through util/flatjson.h like every other wire object;
// the embedded reports round-trip through report_from_json /
// RunReport::to_json verbatim.

template <class V>
void fields(LineFinding& f, V& v) {
  v("line", f.line);
  v("pattern", f.pattern);
  v("false_events", f.false_events);
  v("true_events", f.true_events);
  v("transfers", f.transfers);
  v("coherence_misses", f.coherence_misses);
  v("tasks", f.tasks);
  v("hot_words", f.hot_words);
}

namespace {

std::string rules_json(const AddressRemap& remap) {
  return json::write_list(remap.rules(), json::write_object<RemapRule>);
}

bool rules_from_json(const std::string& text, AddressRemap& remap) {
  std::vector<RemapRule> rules;
  if (!json::read_list(text, rules, json::read_object<RemapRule>)) {
    return false;
  }
  // Rules off the wire are untrusted: refuse what AddressRemap would abort on.
  if (remap_rules_error(rules) != nullptr) return false;
  remap = AddressRemap(std::move(rules));
  return true;
}

}  // namespace

template <class V>
void fields(RepairPlan& plan, V& v) {
  v("lines_padded", plan.lines_padded);
  v("predicted_avoided_events", plan.predicted_avoided_events);
  v("rules", plan.remap, rules_json, rules_from_json);
}

template <class V>
void fields(DoctorReport& d, V& v) {
  v("label", d.label);
  v("doctor_backend", d.backend);
  v("p", d.p);
  v("M", d.M);
  v("B", d.B);
  v("findings", d.findings);
  v("plan", d.plan);
  v("before", d.before, &RunReport::to_json, report_from_json);
  v.section(d.has_after, [&] {
    v("after", d.after, &RunReport::to_json, report_from_json);
  });
}

std::string DoctorReport::to_json() const { return json::write_object(*this); }

bool doctor_report_from_json(const std::string& text, DoctorReport& out) {
  out = DoctorReport{};
  return json::read_object(text, out);
}

}  // namespace ro::doctor
