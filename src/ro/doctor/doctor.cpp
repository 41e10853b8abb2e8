#include "ro/doctor/doctor.h"

#include <algorithm>
#include <set>
#include <utility>

#include "ro/util/check.h"
#include "ro/util/flatjson.h"

namespace ro::doctor {

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kFalseSharing: return "false-sharing";
    case Pattern::kTrueSharing: return "true-sharing";
    case Pattern::kMixed: return "mixed";
  }
  return "?";
}

bool parse_pattern(const std::string& name, Pattern& out) {
  if (name == "false-sharing") out = Pattern::kFalseSharing;
  else if (name == "true-sharing") out = Pattern::kTrueSharing;
  else if (name == "mixed") out = Pattern::kMixed;
  else return false;
  return true;
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

namespace {

using json::as_u64;
using json::kv;
using json::kv_raw;
using json::kv_str;

std::string finding_json(const LineFinding& f) {
  std::string s = "{";
  kv(s, "line", f.line);
  kv_str(s, "pattern", pattern_name(f.pattern));
  kv(s, "false_events", f.false_events);
  kv(s, "true_events", f.true_events);
  kv(s, "transfers", f.transfers);
  kv(s, "coherence_misses", f.coherence_misses);
  kv(s, "tasks", static_cast<uint64_t>(f.tasks));
  kv(s, "hot_words",
     std::vector<uint64_t>(f.hot_words.begin(), f.hot_words.end()));
  s += "}";
  return s;
}

std::string rule_json(const RemapRule& r) {
  std::string s = "{";
  kv(s, "src", r.src);
  kv(s, "len", r.len);
  kv(s, "dst", r.dst);
  kv(s, "stride", r.stride);
  s += "}";
  return s;
}

bool parse_finding(const std::string& j, LineFinding& f) {
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(j, kvs)) return false;
  for (const auto& [k, v] : kvs) {
    if (k == "line") f.line = as_u64(v);
    else if (k == "pattern") {
      if (!parse_pattern(v, f.pattern)) return false;
    } else if (k == "false_events") f.false_events = as_u64(v);
    else if (k == "true_events") f.true_events = as_u64(v);
    else if (k == "transfers") f.transfers = as_u64(v);
    else if (k == "coherence_misses") f.coherence_misses = as_u64(v);
    else if (k == "tasks") f.tasks = static_cast<uint32_t>(as_u64(v));
    else if (k == "hot_words") {
      for (const uint64_t w : json::as_u64_list(v)) {
        f.hot_words.push_back(static_cast<uint16_t>(w));
      }
    }
  }
  return true;
}

bool parse_plan(const std::string& j, RepairPlan& plan) {
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(j, kvs)) return false;
  std::vector<RemapRule> rules;
  for (const auto& [k, v] : kvs) {
    if (k == "lines_padded") plan.lines_padded = as_u64(v);
    else if (k == "predicted_avoided_events") {
      plan.predicted_avoided_events = as_u64(v);
    } else if (k == "rules") {
      for (const std::string& e : json::as_object_list(v)) {
        std::vector<std::pair<std::string, std::string>> rkv;
        if (!json::scan_object(e, rkv)) return false;
        RemapRule r;
        for (const auto& [rk, rv] : rkv) {
          if (rk == "src") r.src = as_u64(rv);
          else if (rk == "len") r.len = as_u64(rv);
          else if (rk == "dst") r.dst = as_u64(rv);
          else if (rk == "stride") r.stride = as_u64(rv);
        }
        rules.push_back(r);
      }
    }
  }
  // Rules off the wire are untrusted: refuse what AddressRemap would abort on.
  if (remap_rules_error(rules) != nullptr) return false;
  plan.remap = AddressRemap(std::move(rules));
  return true;
}

}  // namespace

std::string DoctorReport::to_json() const {
  std::string s = "{";
  kv_str(s, "label", label);
  kv_str(s, "doctor_backend", backend_name(backend));
  kv(s, "p", static_cast<uint64_t>(p));
  kv(s, "M", M);
  kv(s, "B", static_cast<uint64_t>(B));
  std::string arr = "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    if (i) arr += ",";
    arr += finding_json(findings[i]);
  }
  arr += "]";
  kv_raw(s, "findings", arr);
  std::string pl = "{";
  kv(pl, "lines_padded", plan.lines_padded);
  kv(pl, "predicted_avoided_events", plan.predicted_avoided_events);
  std::string rs = "[";
  for (size_t i = 0; i < plan.remap.rules().size(); ++i) {
    if (i) rs += ",";
    rs += rule_json(plan.remap.rules()[i]);
  }
  rs += "]";
  kv_raw(pl, "rules", rs);
  pl += "}";
  kv_raw(s, "plan", pl);
  kv_raw(s, "before", before.to_json());
  if (has_after) kv_raw(s, "after", after.to_json());
  s += "}";
  return s;
}

bool doctor_report_from_json(const std::string& text, DoctorReport& out) {
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(text, kvs)) return false;
  out = DoctorReport{};
  for (const auto& [k, v] : kvs) {
    if (k == "label") out.label = v;
    else if (k == "doctor_backend") {
      if (!parse_backend(v, out.backend)) return false;
    } else if (k == "p") out.p = static_cast<uint32_t>(as_u64(v));
    else if (k == "M") out.M = as_u64(v);
    else if (k == "B") out.B = static_cast<uint32_t>(as_u64(v));
    else if (k == "findings") {
      for (const std::string& e : json::as_object_list(v)) {
        LineFinding f;
        if (!parse_finding(e, f)) return false;
        out.findings.push_back(std::move(f));
      }
    } else if (k == "plan") {
      if (!parse_plan(v, out.plan)) return false;
    } else if (k == "before") {
      if (!report_from_json(v, out.before)) return false;
    } else if (k == "after") {
      if (!report_from_json(v, out.after)) return false;
      out.has_after = true;
    }
    // Unknown keys skip, like report_from_json: newer writers stay readable.
  }
  return true;
}

}  // namespace ro::doctor
