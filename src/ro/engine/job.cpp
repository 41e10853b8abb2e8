#include "ro/engine/job.h"

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "ro/util/flatjson.h"

namespace ro {

using json::as_double;
using json::as_u64;
using json::kv;
using json::kv_raw;
using json::kv_str;

std::string job_schema_version() {
  return std::to_string(kJobSchemaMajor) + "." + std::to_string(kJobSchemaMinor);
}

const char* job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::kRun: return "run";
    case JobKind::kBatch: return "batch";
    case JobKind::kDiagnose: return "diagnose";
  }
  return "?";
}

bool parse_job_kind(const std::string& name, JobKind& out) {
  if (name == "run") out = JobKind::kRun;
  else if (name == "batch") out = JobKind::kBatch;
  else if (name == "diagnose") out = JobKind::kDiagnose;
  else return false;
  return true;
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kError: return "error";
  }
  return "?";
}

bool parse_job_status(const std::string& name, JobStatus& out) {
  if (name == "ok") out = JobStatus::kOk;
  else if (name == "rejected") out = JobStatus::kRejected;
  else if (name == "error") out = JobStatus::kError;
  else return false;
  return true;
}

std::string schema_version_error(const std::string& v) {
  // "major.minor": two decimal numbers and nothing after the minor.
  const std::string unparsable = "unparsable schema_version \"" + v + "\"";
  char* end = nullptr;
  const unsigned long major = std::strtoul(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '.') return unparsable;
  const char* minor = end + 1;
  std::strtoul(minor, &end, 10);
  if (end == minor || *end != '\0') return unparsable;
  if (major > kJobSchemaMajor) {
    return "schema_version " + v + " is newer than supported " +
           job_schema_version();
  }
  return "";
}

namespace {

std::string spms_to_json(const alg::SpmsTuning& t) {
  std::string s = "{";
  kv(s, "merge_base", static_cast<uint64_t>(t.merge_base));
  kv(s, "merge2_min", static_cast<uint64_t>(t.merge2_min));
  kv(s, "stride_mul", static_cast<uint64_t>(t.stride_mul));
  kv(s, "seq_cap_div", static_cast<uint64_t>(t.seq_cap_div));
  kv(s, "stride_per_seq", static_cast<uint64_t>(t.stride_per_seq));
  kv(s, "multisearch_leaf", static_cast<uint64_t>(t.multisearch_leaf));
  kv(s, "sample_sort_seq", static_cast<uint64_t>(t.sample_sort_seq));
  kv(s, "machinery_min", static_cast<uint64_t>(t.machinery_min));
  kv(s, "kernels", static_cast<uint64_t>(t.kernels ? 1 : 0));
  s += "}";
  return s;
}

bool spms_from_json(const std::string& text, alg::SpmsTuning& t) {
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(text, kvs)) return false;
  for (const auto& [k, v] : kvs) {
    if (k == "merge_base") t.merge_base = static_cast<size_t>(as_u64(v));
    else if (k == "merge2_min") t.merge2_min = static_cast<size_t>(as_u64(v));
    else if (k == "stride_mul") t.stride_mul = static_cast<size_t>(as_u64(v));
    else if (k == "seq_cap_div") t.seq_cap_div = static_cast<size_t>(as_u64(v));
    else if (k == "stride_per_seq")
      t.stride_per_seq = static_cast<size_t>(as_u64(v));
    else if (k == "multisearch_leaf")
      t.multisearch_leaf = static_cast<size_t>(as_u64(v));
    else if (k == "sample_sort_seq")
      t.sample_sort_seq = static_cast<size_t>(as_u64(v));
    else if (k == "machinery_min")
      t.machinery_min = static_cast<size_t>(as_u64(v));
    else if (k == "kernels") t.kernels = as_u64(v) != 0;
  }
  return true;
}

}  // namespace

std::string JobSpec::to_json() const {
  std::string s = "{";
  kv_str(s, "schema_version",
         schema_version.empty() ? job_schema_version() : schema_version);
  kv_str(s, "tenant", tenant);
  if (!tag.empty()) kv_str(s, "tag", tag);
  kv_str(s, "kind", job_kind_name(kind));
  kv_str(s, "workload", workload);
  kv(s, "n", n);
  kv(s, "seed", seed);
  kv(s, "shards", static_cast<uint64_t>(shards));

  kv_str(s, "backend", backend_name(opt.backend));
  if (!opt.label.empty()) kv_str(s, "label", opt.label);
  kv(s, "p", static_cast<uint64_t>(opt.sim.p));
  kv(s, "M", opt.sim.M);
  kv(s, "B", static_cast<uint64_t>(opt.sim.B));
  kv(s, "miss_latency", static_cast<uint64_t>(opt.sim.miss_latency));
  kv(s, "steal_latency", static_cast<uint64_t>(opt.sim.steal_latency));
  // "sim_seed", not "seed": the workload input salt above owns that key.
  kv(s, "sim_seed", opt.sim.seed);
  kv(s, "M2", opt.sim.M2);
  kv(s, "l2_latency", static_cast<uint64_t>(opt.sim.l2_latency));
  kv(s, "write_hold", static_cast<uint64_t>(opt.sim.write_hold));
  kv(s, "replay_threads", static_cast<uint64_t>(opt.sim.replay_threads));
  kv(s, "padded", static_cast<uint64_t>(opt.padded ? 1 : 0));
  kv(s, "align_words", opt.align_words);
  kv(s, "seq_baseline", static_cast<uint64_t>(opt.seq_baseline ? 1 : 0));
  kv(s, "pipeline", static_cast<uint64_t>(opt.pipeline ? 1 : 0));
  kv(s, "capacity_shared",
     static_cast<uint64_t>(opt.capacity_shared ? 1 : 0));
  kv(s, "segment_tasks", opt.trace.segment_tasks);
  kv(s, "max_resident_segments",
     static_cast<uint64_t>(opt.trace.max_resident_segments));
  kv(s, "compress", static_cast<uint64_t>(opt.trace.compress ? 1 : 0));
  kv(s, "threads", static_cast<uint64_t>(opt.threads));
  kv(s, "serial_below", opt.serial_below);
  kv(s, "doc_max_lines", static_cast<uint64_t>(doc.max_lines));
  kv(s, "doc_min_false_events", doc.min_false_events);
  if (opt.spms.has_value()) kv_raw(s, "spms", spms_to_json(*opt.spms));
  s += "}";
  return s;
}

bool jobspec_from_json(const std::string& text, JobSpec& out,
                       std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(text, kvs)) return fail("malformed JSON object");

  // Version first: a newer major may have changed the meaning of any key,
  // so nothing else is interpreted until the version is accepted.
  JobSpec spec;
  for (const auto& [k, v] : kvs) {
    if (k != "schema_version") continue;
    const std::string why = schema_version_error(v);
    if (!why.empty()) return fail(why);
    spec.schema_version = v;
  }
  if (spec.schema_version.empty()) spec.schema_version = job_schema_version();

  for (const auto& [k, v] : kvs) {
    if (k == "schema_version") continue;
    else if (k == "tenant") spec.tenant = v;
    else if (k == "tag") spec.tag = v;
    else if (k == "kind") {
      if (!parse_job_kind(v, spec.kind))
        return fail("unknown job kind \"" + v + "\"");
    } else if (k == "workload") spec.workload = v;
    else if (k == "n") spec.n = as_u64(v);
    else if (k == "seed") spec.seed = as_u64(v);
    else if (k == "shards") spec.shards = static_cast<uint32_t>(as_u64(v));
    else if (k == "backend") {
      if (!parse_backend(v, spec.opt.backend))
        return fail("unknown backend \"" + v + "\"");
    } else if (k == "label") spec.opt.label = v;
    else if (k == "p") spec.opt.sim.p = static_cast<uint32_t>(as_u64(v));
    else if (k == "M") spec.opt.sim.M = as_u64(v);
    else if (k == "B") spec.opt.sim.B = static_cast<uint32_t>(as_u64(v));
    else if (k == "miss_latency")
      spec.opt.sim.miss_latency = static_cast<uint32_t>(as_u64(v));
    else if (k == "steal_latency")
      spec.opt.sim.steal_latency = static_cast<uint32_t>(as_u64(v));
    else if (k == "sim_seed") spec.opt.sim.seed = as_u64(v);
    else if (k == "M2") spec.opt.sim.M2 = as_u64(v);
    else if (k == "l2_latency")
      spec.opt.sim.l2_latency = static_cast<uint32_t>(as_u64(v));
    else if (k == "write_hold")
      spec.opt.sim.write_hold = static_cast<uint32_t>(as_u64(v));
    else if (k == "replay_threads")
      spec.opt.sim.replay_threads = static_cast<uint32_t>(as_u64(v));
    else if (k == "padded") spec.opt.padded = as_u64(v) != 0;
    else if (k == "align_words") spec.opt.align_words = as_u64(v);
    else if (k == "seq_baseline") spec.opt.seq_baseline = as_u64(v) != 0;
    else if (k == "pipeline") spec.opt.pipeline = as_u64(v) != 0;
    else if (k == "capacity_shared")
      spec.opt.capacity_shared = as_u64(v) != 0;
    else if (k == "segment_tasks") spec.opt.trace.segment_tasks = as_u64(v);
    else if (k == "max_resident_segments")
      spec.opt.trace.max_resident_segments =
          static_cast<uint32_t>(as_u64(v));
    else if (k == "compress") spec.opt.trace.compress = as_u64(v) != 0;
    else if (k == "threads")
      spec.opt.threads = static_cast<unsigned>(as_u64(v));
    else if (k == "serial_below") spec.opt.serial_below = as_u64(v);
    else if (k == "doc_max_lines")
      spec.doc.max_lines = static_cast<uint32_t>(as_u64(v));
    else if (k == "doc_min_false_events") spec.doc.min_false_events = as_u64(v);
    else if (k == "spms") {
      alg::SpmsTuning t;
      if (!spms_from_json(v, t)) return fail("malformed spms tuning object");
      spec.opt.spms = t;
    }
    // Unknown keys: skipped by design (a newer minor added them).
  }
  out = std::move(spec);
  return true;
}

std::string JobResult::to_json() const {
  std::string s = "{";
  kv_str(s, "schema_version", job_schema_version());
  kv(s, "job_id", job_id);
  kv_str(s, "tenant", tenant);
  if (!tag.empty()) kv_str(s, "tag", tag);
  kv_str(s, "kind", job_kind_name(kind));
  kv_str(s, "status", job_status_name(status));
  if (!error.empty()) kv_str(s, "error", error);
  kv(s, "queue_ms", queue_ms);
  kv(s, "exec_ms", exec_ms);
  if (status == JobStatus::kOk) {
    if (kind == JobKind::kRun) kv_raw(s, "report", report.to_json());
    if (has_batch) kv_raw(s, "batch", batch.to_json());
    if (has_doctor) kv_raw(s, "doctor", doctor.to_json());
  }
  s += "}";
  return s;
}

bool jobresult_from_json(const std::string& text, JobResult& out) {
  std::vector<std::pair<std::string, std::string>> kvs;
  if (!json::scan_object(text, kvs)) return false;
  out = JobResult{};
  for (const auto& [k, v] : kvs) {
    if (k == "job_id") out.job_id = as_u64(v);
    else if (k == "tenant") out.tenant = v;
    else if (k == "tag") out.tag = v;
    else if (k == "kind") {
      if (!parse_job_kind(v, out.kind)) return false;
    } else if (k == "status") {
      if (!parse_job_status(v, out.status)) return false;
    } else if (k == "error") out.error = v;
    else if (k == "queue_ms") out.queue_ms = as_double(v);
    else if (k == "exec_ms") out.exec_ms = as_double(v);
    else if (k == "report") {
      if (!report_from_json(v, out.report)) return false;
    } else if (k == "batch") {
      out.has_batch = true;
      if (!batch_from_json(v, out.batch)) return false;
    } else if (k == "doctor") {
      out.has_doctor = true;
      if (!doctor::doctor_report_from_json(v, out.doctor)) return false;
    }
  }
  return true;
}

}  // namespace ro
