#include "ro/engine/report.h"

#include <algorithm>
#include <utility>

#include "ro/util/flatjson.h"

namespace ro {

json::EnumNames<Backend> wire_names(Backend) {
  static constexpr json::EnumName<Backend> kNames[] = {
      {Backend::kSeq, "seq"},
      {Backend::kSimPws, "sim-pws"},
      {Backend::kSimRws, "sim-rws"},
      {Backend::kParRandom, "par-random"},
      {Backend::kParPriority, "par-priority"},
      {Backend::kSimPws, "pws"},
      {Backend::kSimRws, "rws"},
      {Backend::kParRandom, "random"},
      {Backend::kParPriority, "priority"},
      {Backend::kParRandom, "par-numa-random"},
      {Backend::kParRandom, "numa-random"},
      {Backend::kParPriority, "par-numa-priority"},
      {Backend::kParPriority, "numa-priority"}};
  return {"backend", kNames};
}

bool backend_is_sim(Backend b) {
  return b == Backend::kSimPws || b == Backend::kSimRws;
}

bool backend_is_parallel(Backend b) {
  return b == Backend::kParRandom || b == Backend::kParPriority;
}

double RunReport::sim_speedup() const {
  if (!has_baseline || sim.makespan == 0) return 0;
  return static_cast<double>(seq_makespan) /
         static_cast<double>(sim.makespan);
}

double RunReport::trace_compression_ratio() const {
  if (trace_compressed_bytes == 0) return 0;
  return static_cast<double>(trace_spilled_bytes) /
         static_cast<double>(trace_compressed_bytes);
}

namespace {

/// The Metrics totals a report carries: every core's counters summed, and
/// the three overlapping miss totals (cache = cold + capacity over data
/// and stack, block = coherence over both, stack = every class at stack
/// addresses).
struct SimTotals {
  CoreMetrics core;
  uint64_t cache_misses = 0;
  uint64_t block_misses = 0;
  uint64_t stack_misses = 0;
};

template <class V>
void fields(RunReport& r, SimTotals& t, V& v) {
  v("label", r.label);
  v("backend", r.backend);
  v("wall_ms", r.wall_ms);
  v.section(r.has_graph, [&] {
    v("work", r.graph.work);
    v("span", r.graph.span);
    v("max_depth", r.graph.max_depth);
    v("activations", r.graph.activations);
    v("accesses", r.graph.accesses);
    v("leaves", r.graph.leaves);
  });
  v.section(r.has_sim, [&] {
    v("p", r.p);
    v("M", r.M);
    v("B", r.B);
    v("makespan", r.sim.makespan);
    v("compute", t.core.compute);
    v("cache_misses", t.cache_misses);
    v("block_misses", t.block_misses);
    v("stack_misses", t.stack_misses);
    v("steals", t.core.steals);
    v("steal_attempts", t.core.steal_attempts);
    v("steal_cycles", t.core.steal_cycles);
    v("usurpations", t.core.usurpations);
    v("idle", t.core.idle);
    v("l2_hits", t.core.l2_hits);
    v("hold_waits", t.core.hold_waits);
    v("total_block_transfers", r.sim.total_block_transfers);
    v("max_block_transfers", r.sim.max_block_transfers);
    v("stack_words", r.sim.stack_words);
  });
  v.section(r.has_baseline, [&] {
    v("q_seq", r.q_seq);
    v("seq_makespan", r.seq_makespan);
    v("cache_excess", r.cache_excess);
    v.emit("sim_speedup", [&] { return r.sim_speedup(); });
  });
  v.section(r.has_pool, [&] {
    v("threads", r.threads);
    v("pool_steals", r.pool_steals);
    v("pool_failed_steals", r.pool_failed_steals);
    v("pool_groups", r.pool_groups);
    v("pool_local_steals", r.pool_local_steals);
    v("pool_remote_steals", r.pool_remote_steals);
    v.when(!r.pool_group_local_steals.empty(), [&] {
      v("pool_group_local_steals", r.pool_group_local_steals);
      v("pool_group_remote_steals", r.pool_group_remote_steals);
    });
  });
  v.section(r.has_contention, [&] {
    v("fs_false_events", r.fs_false_events);
    v("fs_true_events", r.fs_true_events);
    v("fs_hot_lines", r.fs_hot_lines);
  });
  v.section(r.has_tenant, [&] {
    v("tenant", r.tenant);
    v("tenant_compute", r.tenant_compute);
    v("tenant_cache_misses", r.tenant_cache_misses);
    v("tenant_block_misses", r.tenant_block_misses);
    v("tenant_transfers", r.tenant_transfers);
  });
  v.section(r.has_stream, [&] {
    v("trace_segments", r.trace_segments);
    v("trace_spilled_bytes", r.trace_spilled_bytes);
    v("trace_compressed_bytes", r.trace_compressed_bytes);
    v("trace_peak_resident_bytes", r.trace_peak_resident_bytes);
    v.emit("trace_compression_ratio",
           [&] { return r.trace_compression_ratio(); });
  });
}

}  // namespace

std::string RunReport::to_json() const {
  SimTotals t;
  if (has_sim) {
    for (const CoreMetrics& c : sim.core) t.core += c;
    t.cache_misses = t.core.cache_misses();
    t.block_misses = t.core.block_misses();
    for (const uint64_t n : t.core.miss[1]) t.stack_misses += n;
  }
  json::Writer w;
  fields(const_cast<RunReport&>(*this), t, w);
  return std::move(w).take();
}

std::string reports_to_json(const std::vector<RunReport>& reports) {
  std::string s = "[\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    s += "  ";
    s += reports[i].to_json();
    if (i + 1 < reports.size()) s += ",";
    s += "\n";
  }
  s += "]\n";
  return s;
}

bool report_from_json(const std::string& text, RunReport& out) {
  out = RunReport{};
  SimTotals t;  // read into one synthetic core
  if (!json::read(text, [&](json::Reader& v) { fields(out, t, v); })) {
    return false;
  }
  if (out.has_sim) {
    // Split the three overlapping totals into the 2x3 miss matrix of the
    // one core so every derived counter re-serializes exactly.
    const uint64_t stack = t.stack_misses;
    const uint64_t stack_classical = std::min(stack, t.cache_misses);
    const uint64_t stack_coherence = stack - stack_classical;
    if (stack_coherence > t.block_misses) return false;  // inconsistent
    CoreMetrics& c = t.core;
    c.miss[0][static_cast<int>(MissClass::kCold)] =
        t.cache_misses - stack_classical;
    c.miss[1][static_cast<int>(MissClass::kCold)] = stack_classical;
    c.miss[0][static_cast<int>(MissClass::kCoherence)] =
        t.block_misses - stack_coherence;
    c.miss[1][static_cast<int>(MissClass::kCoherence)] = stack_coherence;
    out.sim.core.push_back(c);
  }
  return true;
}

template <class V>
void fields(BatchReport& b, V& v) {
  v("label", b.label);
  v("backend", b.backend);
  v("shards", b.shards);
  v("replay_threads", b.replay_threads);
  v("pipelined", b.pipelined);
  v("capacity_shared", b.capacity_shared);
  v("wall_ms", b.wall_ms);
  v("record_ms", b.record_ms);
  v("replay_ms", b.replay_ms);
  v("aggregate", b.aggregate, &RunReport::to_json, report_from_json);
  v("runs", b.runs, &RunReport::to_json, report_from_json);
}

std::string BatchReport::to_json() const { return json::write_object(*this); }

bool batch_from_json(const std::string& text, BatchReport& out) {
  out = BatchReport{};
  return json::read_object(text, out);
}

}  // namespace ro
