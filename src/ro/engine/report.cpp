#include "ro/engine/report.h"

#include "ro/util/flatjson.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace ro {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kSeq: return "seq";
    case Backend::kSimPws: return "sim-pws";
    case Backend::kSimRws: return "sim-rws";
    case Backend::kParRandom: return "par-random";
    case Backend::kParPriority: return "par-priority";
  }
  return "?";
}

bool backend_is_sim(Backend b) {
  return b == Backend::kSimPws || b == Backend::kSimRws;
}

bool backend_is_parallel(Backend b) {
  return b == Backend::kParRandom || b == Backend::kParPriority;
}

bool parse_backend(const std::string& name, Backend& out) {
  if (name == "seq") out = Backend::kSeq;
  else if (name == "sim-pws" || name == "pws") out = Backend::kSimPws;
  else if (name == "sim-rws" || name == "rws") out = Backend::kSimRws;
  else if (name == "par-random" || name == "random" ||
           name == "par-numa-random" || name == "numa-random")
    out = Backend::kParRandom;
  else if (name == "par-priority" || name == "priority" ||
           name == "par-numa-priority" || name == "numa-priority")
    out = Backend::kParPriority;
  else return false;
  return true;
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

using json::kv;
using json::kv_str;
using json::kv_raw;

std::string RunReport::to_json() const {
  std::string s = "{";
  kv_str(s, "label", label);
  kv_str(s, "backend", backend_name(backend));
  kv(s, "wall_ms", wall_ms);
  if (has_graph) {
    kv(s, "work", graph.work);
    kv(s, "span", graph.span);
    kv(s, "max_depth", static_cast<uint64_t>(graph.max_depth));
    kv(s, "activations", graph.activations);
    kv(s, "accesses", graph.accesses);
    kv(s, "leaves", graph.leaves);
  }
  if (has_sim) {
    kv(s, "p", static_cast<uint64_t>(p));
    kv(s, "M", M);
    kv(s, "B", static_cast<uint64_t>(B));
    kv(s, "makespan", sim.makespan);
    kv(s, "compute", sim.compute());
    kv(s, "cache_misses", sim.cache_misses());
    kv(s, "block_misses", sim.block_misses());
    kv(s, "stack_misses", sim.stack_misses());
    kv(s, "steals", sim.steals());
    kv(s, "steal_attempts", sim.steal_attempts());
    kv(s, "steal_cycles", sim.steal_cycles());
    kv(s, "usurpations", sim.usurpations());
    kv(s, "idle", sim.idle());
    kv(s, "l2_hits", sim.l2_hits());
    kv(s, "hold_waits", sim.hold_waits());
    kv(s, "total_block_transfers", sim.total_block_transfers);
    kv(s, "max_block_transfers", sim.max_block_transfers);
    kv(s, "stack_words", sim.stack_words);
  }
  if (has_baseline) {
    kv(s, "q_seq", q_seq);
    kv(s, "seq_makespan", seq_makespan);
    kv(s, "cache_excess", cache_excess);
    kv(s, "sim_speedup", sim_speedup());
  }
  if (has_pool) {
    kv(s, "threads", static_cast<uint64_t>(threads));
    kv(s, "pool_steals", pool_steals);
    kv(s, "pool_failed_steals", pool_failed_steals);
    kv(s, "pool_groups", static_cast<uint64_t>(pool_groups));
    kv(s, "pool_local_steals", pool_local_steals);
    kv(s, "pool_remote_steals", pool_remote_steals);
    if (!pool_group_local_steals.empty()) {
      kv(s, "pool_group_local_steals", pool_group_local_steals);
      kv(s, "pool_group_remote_steals", pool_group_remote_steals);
    }
  }
  if (has_contention) {
    kv(s, "fs_false_events", fs_false_events);
    kv(s, "fs_true_events", fs_true_events);
    kv(s, "fs_hot_lines", fs_hot_lines);
  }
  if (has_tenant) {
    kv_str(s, "tenant", tenant);
    kv(s, "tenant_compute", tenant_compute);
    kv(s, "tenant_cache_misses", tenant_cache_misses);
    kv(s, "tenant_block_misses", tenant_block_misses);
    kv(s, "tenant_transfers", tenant_transfers);
  }
  if (has_stream) {
    kv(s, "trace_segments", trace_segments);
    kv(s, "trace_spilled_bytes", trace_spilled_bytes);
    kv(s, "trace_compressed_bytes", trace_compressed_bytes);
    kv(s, "trace_peak_resident_bytes", trace_peak_resident_bytes);
    kv(s, "trace_compression_ratio", trace_compression_ratio());
  }
  s += "}";
  return s;
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

using json::as_u64;
using json::as_u64_list;

bool report_from_json(const std::string& text, RunReport& out) {
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(text, kvs)) return false;
  out = RunReport{};
  CoreMetrics agg;  // single synthetic core holding the parsed aggregates
  uint64_t cache = 0, block = 0, stack = 0;
  bool have_sim = false;
  for (const auto& [k, v] : kvs) {
    if (k == "label") out.label = v;
    else if (k == "backend") {
      if (!parse_backend(v, out.backend)) return false;
    } else if (k == "wall_ms") out.wall_ms = std::strtod(v.c_str(), nullptr);
    else if (k == "work") { out.has_graph = true; out.graph.work = as_u64(v); }
    else if (k == "span") out.graph.span = as_u64(v);
    else if (k == "max_depth")
      out.graph.max_depth = static_cast<uint32_t>(as_u64(v));
    else if (k == "activations") out.graph.activations = as_u64(v);
    else if (k == "accesses") out.graph.accesses = as_u64(v);
    else if (k == "leaves") out.graph.leaves = as_u64(v);
    else if (k == "p") { have_sim = true; out.p = static_cast<uint32_t>(as_u64(v)); }
    else if (k == "M") out.M = as_u64(v);
    else if (k == "B") out.B = static_cast<uint32_t>(as_u64(v));
    else if (k == "makespan") out.sim.makespan = as_u64(v);
    else if (k == "compute") agg.compute = as_u64(v);
    else if (k == "cache_misses") cache = as_u64(v);
    else if (k == "block_misses") block = as_u64(v);
    else if (k == "stack_misses") stack = as_u64(v);
    else if (k == "steals") agg.steals = as_u64(v);
    else if (k == "steal_attempts") agg.steal_attempts = as_u64(v);
    else if (k == "steal_cycles") agg.steal_cycles = as_u64(v);
    else if (k == "usurpations") agg.usurpations = as_u64(v);
    else if (k == "idle") agg.idle = as_u64(v);
    else if (k == "l2_hits") agg.l2_hits = as_u64(v);
    else if (k == "hold_waits") agg.hold_waits = as_u64(v);
    else if (k == "total_block_transfers")
      out.sim.total_block_transfers = as_u64(v);
    else if (k == "max_block_transfers")
      out.sim.max_block_transfers = as_u64(v);
    else if (k == "stack_words") out.sim.stack_words = as_u64(v);
    else if (k == "q_seq") { out.has_baseline = true; out.q_seq = as_u64(v); }
    else if (k == "seq_makespan") out.seq_makespan = as_u64(v);
    else if (k == "cache_excess") out.cache_excess = as_u64(v);
    else if (k == "sim_speedup") {}  // derived; recomputed from the fields
    else if (k == "threads") {
      out.has_pool = true;
      out.threads = static_cast<uint32_t>(as_u64(v));
    } else if (k == "pool_steals") out.pool_steals = as_u64(v);
    else if (k == "pool_failed_steals") out.pool_failed_steals = as_u64(v);
    else if (k == "pool_groups")
      out.pool_groups = static_cast<uint32_t>(as_u64(v));
    else if (k == "pool_local_steals") out.pool_local_steals = as_u64(v);
    else if (k == "pool_remote_steals") out.pool_remote_steals = as_u64(v);
    else if (k == "pool_group_local_steals")
      out.pool_group_local_steals = as_u64_list(v);
    else if (k == "pool_group_remote_steals")
      out.pool_group_remote_steals = as_u64_list(v);
    else if (k == "fs_false_events") {
      out.has_contention = true;
      out.fs_false_events = as_u64(v);
    } else if (k == "fs_true_events") {
      out.has_contention = true;
      out.fs_true_events = as_u64(v);
    } else if (k == "fs_hot_lines") {
      out.has_contention = true;
      out.fs_hot_lines = as_u64(v);
    } else if (k == "tenant") {
      out.has_tenant = true;
      out.tenant = v;
    } else if (k == "tenant_compute") out.tenant_compute = as_u64(v);
    else if (k == "tenant_cache_misses") out.tenant_cache_misses = as_u64(v);
    else if (k == "tenant_block_misses") out.tenant_block_misses = as_u64(v);
    else if (k == "tenant_transfers") out.tenant_transfers = as_u64(v);
    else if (k == "trace_segments") {
      out.has_stream = true;
      out.trace_segments = as_u64(v);
    } else if (k == "trace_spilled_bytes") out.trace_spilled_bytes = as_u64(v);
    else if (k == "trace_compressed_bytes")
      out.trace_compressed_bytes = as_u64(v);
    else if (k == "trace_peak_resident_bytes")
      out.trace_peak_resident_bytes = as_u64(v);
    else if (k == "trace_compression_ratio") {}  // derived; recomputed
    // Unknown keys are skipped: newer writers stay readable.
  }
  if (have_sim) {
    out.has_sim = true;
    // Split the three overlapping totals (cache = cold+capacity over
    // data+stack, block = coherence over data+stack, stack = all classes
    // at stack addresses) into the 2x3 miss matrix of one core so every
    // derived counter re-serializes exactly.
    const uint64_t stack_classical = stack < cache ? stack : cache;
    const uint64_t stack_coherence = stack - stack_classical;
    if (stack_coherence > block) return false;  // inconsistent totals
    agg.miss[0][static_cast<int>(MissClass::kCold)] = cache - stack_classical;
    agg.miss[1][static_cast<int>(MissClass::kCold)] = stack_classical;
    agg.miss[0][static_cast<int>(MissClass::kCoherence)] =
        block - stack_coherence;
    agg.miss[1][static_cast<int>(MissClass::kCoherence)] = stack_coherence;
    out.sim.core.push_back(agg);
  }
  return true;
}


std::string BatchReport::to_json() const {
  std::string s = "{";
  kv_str(s, "label", label);
  kv_str(s, "backend", backend_name(backend));
  kv(s, "shards", static_cast<uint64_t>(shards));
  kv(s, "replay_threads", static_cast<uint64_t>(replay_threads));
  kv(s, "pipelined", static_cast<uint64_t>(pipelined ? 1 : 0));
  kv(s, "capacity_shared", static_cast<uint64_t>(capacity_shared ? 1 : 0));
  kv(s, "wall_ms", wall_ms);
  kv(s, "record_ms", record_ms);
  kv(s, "replay_ms", replay_ms);
  kv_raw(s, "aggregate", aggregate.to_json());
  std::string arr = "[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i) arr += ",";
    arr += runs[i].to_json();
  }
  arr += "]";
  kv_raw(s, "runs", arr);
  s += "}";
  return s;
}

bool batch_from_json(const std::string& text, BatchReport& out) {
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(text, kvs)) return false;
  out = BatchReport{};
  for (const auto& [k, v] : kvs) {
    if (k == "label") out.label = v;
    else if (k == "backend") {
      if (!parse_backend(v, out.backend)) return false;
    } else if (k == "shards") out.shards = static_cast<uint32_t>(as_u64(v));
    else if (k == "replay_threads")
      out.replay_threads = static_cast<uint32_t>(as_u64(v));
    else if (k == "pipelined") out.pipelined = as_u64(v) != 0;
    else if (k == "capacity_shared") out.capacity_shared = as_u64(v) != 0;
    else if (k == "wall_ms") out.wall_ms = json::as_double(v);
    else if (k == "record_ms") out.record_ms = json::as_double(v);
    else if (k == "replay_ms") out.replay_ms = json::as_double(v);
    else if (k == "aggregate") {
      if (!report_from_json(v, out.aggregate)) return false;
    } else if (k == "runs") {
      for (const std::string& run : json::as_object_list(v)) {
        RunReport r;
        if (!report_from_json(run, r)) return false;
        out.runs.push_back(std::move(r));
      }
    }
    // Unknown keys are skipped: newer writers stay readable.
  }
  return true;
}

}  // namespace ro
