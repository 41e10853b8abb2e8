#include "ro/engine/job.h"

#include <cstdlib>
#include <utility>

#include "ro/util/flatjson.h"

namespace ro {

json::EnumNames<JobKind> wire_names(JobKind) {
  static constexpr json::EnumName<JobKind> kNames[] = {
      {JobKind::kRun, "run"},
      {JobKind::kBatch, "batch"},
      {JobKind::kDiagnose, "diagnose"}};
  return {"job kind", kNames};
}

json::EnumNames<JobStatus> wire_names(JobStatus) {
  static constexpr json::EnumName<JobStatus> kNames[] = {
      {JobStatus::kOk, "ok"},
      {JobStatus::kRejected, "rejected"},
      {JobStatus::kError, "error"}};
  return {"job status", kNames};
}

std::string job_schema_version() {
  return std::to_string(kJobSchemaMajor) + "." + std::to_string(kJobSchemaMinor);
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

/// Takes the object's schema_version before any other key: a newer major
/// may have changed the meaning of any of them.  Sets `version` (the
/// current one when the key is absent); returns schema_version_error's
/// reason, "" when the object is readable.
std::string read_version(const json::Reader::Pairs& kvs,
                         std::string& version) {
  version = job_schema_version();
  for (const auto& [k, v] : kvs) {
    if (k != "schema_version") continue;
    std::string why = schema_version_error(v);
    if (!why.empty()) return why;
    version = v;
  }
  return "";
}

}  // namespace

namespace alg {

template <class V>
void fields(SpmsTuning& t, V& v) {
  v("merge_base", t.merge_base);
  v("merge2_min", t.merge2_min);
  v("stride_mul", t.stride_mul);
  v("seq_cap_div", t.seq_cap_div);
  v("stride_per_seq", t.stride_per_seq);
  v("multisearch_leaf", t.multisearch_leaf);
  v("sample_sort_seq", t.sample_sort_seq);
  v("machinery_min", t.machinery_min);
  v("kernels", t.kernels);
}

}  // namespace alg

template <class V>
void fields(JobSpec& s, V& v) {
  // Written filled in; read first, by jobspec_from_json.
  v.emit("schema_version", [&] {
    return s.schema_version.empty() ? job_schema_version() : s.schema_version;
  });
  v("tenant", s.tenant);
  v.when(!s.tag.empty(), [&] { v("tag", s.tag); });
  v("kind", s.kind);
  v("workload", s.workload);
  v("n", s.n);
  v("seed", s.seed);
  v("shards", s.shards);
  RunOptions& o = s.opt;
  v("backend", o.backend);
  v.when(!o.label.empty(), [&] { v("label", o.label); });
  v("p", o.sim.p);
  v("M", o.sim.M);
  v("B", o.sim.B);
  v("miss_latency", o.sim.miss_latency);
  v("steal_latency", o.sim.steal_latency);
  // "sim_seed", not "seed": the workload input salt above owns that key.
  v("sim_seed", o.sim.seed);
  v("M2", o.sim.M2);
  v("l2_latency", o.sim.l2_latency);
  v("write_hold", o.sim.write_hold);
  v("replay_threads", o.sim.replay_threads);
  v("padded", o.padded);
  v("align_words", o.align_words);
  v("seq_baseline", o.seq_baseline);
  v("pipeline", o.pipeline);
  v("capacity_shared", o.capacity_shared);
  v("segment_tasks", o.trace.segment_tasks);
  v("max_resident_segments", o.trace.max_resident_segments);
  v("compress", o.trace.compress);
  v("threads", o.threads);
  v("serial_below", o.serial_below);
  v("doc_max_lines", s.doc.max_lines);
  v("doc_min_false_events", s.doc.min_false_events);
  v("spms", o.spms, "spms tuning");
}

std::string JobSpec::to_json() const { return json::write_object(*this); }

bool jobspec_from_json(const std::string& text, JobSpec& out,
                       std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  json::Reader::Pairs kvs;
  if (!json::scan_object(text, kvs)) return fail("malformed JSON object");

  JobSpec spec;
  const std::string why = read_version(kvs, spec.schema_version);
  if (!why.empty()) return fail(why);

  json::Reader r;
  if (!r.read(kvs, [&](json::Reader& v) { fields(spec, v); })) {
    return fail(r.error());
  }
  out = std::move(spec);
  return true;
}

template <class V>
void fields(JobResult& r, V& v) {
  v.emit("schema_version", job_schema_version);
  v("job_id", r.job_id);
  v("tenant", r.tenant);
  v.when(!r.tag.empty(), [&] { v("tag", r.tag); });
  v("kind", r.kind);
  v("status", r.status);
  v.when(!r.error.empty(), [&] { v("error", r.error); });
  v("queue_ms", r.queue_ms);
  v("exec_ms", r.exec_ms);
  v.when(r.status == JobStatus::kOk, [&] {
    v.when(r.kind == JobKind::kRun, [&] {
      v("report", r.report, &RunReport::to_json, report_from_json);
    });
    v.section(r.has_batch, [&] {
      v("batch", r.batch, &BatchReport::to_json, batch_from_json);
    });
    v.section(r.has_doctor, [&] {
      v("doctor", r.doctor, &doctor::DoctorReport::to_json,
        doctor::doctor_report_from_json);
    });
  });
}

std::string JobResult::to_json() const { return json::write_object(*this); }

bool jobresult_from_json(const std::string& text, JobResult& out) {
  out = JobResult{};
  json::Reader::Pairs kvs;
  std::string version;
  return json::scan_object(text, kvs) && read_version(kvs, version).empty() &&
         json::Reader().read(kvs, [&](json::Reader& r) { fields(out, r); });
}

}  // namespace ro
