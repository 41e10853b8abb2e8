// JobSpec / JobResult — the versioned wire contract of Engine::submit.
//
// One JobSpec describes everything a job needs: what to execute (a named
// workload from the registry, or a programmatic AnyProg passed alongside),
// which kind of execution (single run, sharded batch, doctor diagnose),
// the full RunOptions, and who is asking (tenant).  The same struct is the
// single entry point for all three surfaces: the CLI (ro-serve submit),
// the wire (serve protocol lines), and programmatic callers
// (Engine::submit).  JobResult carries the outcome back: a status instead
// of an abort, the matching report, and queue/exec timings.
//
// The JSON encoding is versioned ("schema_version": "major.minor").
// Readers accept any minor of a known major and *tolerate unknown keys*
// (new minors add fields); they reject a newer major with an error message
// instead of misinterpreting the spec (docs/serve.md).
#pragma once

#include <cstdint>
#include <string>

#include "ro/doctor/doctor.h"
#include "ro/engine/options.h"
#include "ro/engine/report.h"

namespace ro {

inline constexpr uint32_t kJobSchemaMajor = 1;
inline constexpr uint32_t kJobSchemaMinor = 0;

/// The version string this build writes ("1.0").
std::string job_schema_version();

/// Why this build cannot read a spec of schema version `v`: "" when it
/// can (any "major.minor" of a known major), else a one-line reason
/// naming schema_version (unparsable, or a newer major).
std::string schema_version_error(const std::string& v);

enum class JobKind : uint8_t {
  kRun = 0,       // one program, one RunReport
  kBatch = 1,     // `shards` programs through the batch pipeline
  kDiagnose = 2,  // record once, run the ro-doctor loop
};

json::EnumNames<JobKind> wire_names(JobKind);  // "run", "batch", "diagnose"
inline const char* job_kind_name(JobKind k) { return json::enum_name(k); }
inline bool parse_job_kind(const std::string& name, JobKind& out) {
  return json::parse_enum(name, out);
}

struct JobSpec {
  std::string schema_version;  // "" = current (job_schema_version())
  std::string tenant;          // admission-control identity (may be empty)
  std::string tag;             // caller correlation id, echoed verbatim
  JobKind kind = JobKind::kRun;

  // ---- named workloads (the registry in engine/workloads.h) ----
  // Empty = the program is passed programmatically to Engine::submit.
  std::string workload;
  uint64_t n = 1 << 12;  // workload size
  uint64_t seed = 0;     // extra input-seed salt (0 = the classic inputs)

  uint32_t shards = 1;   // batch jobs: number of shard programs
  RunOptions opt;
  doctor::DoctorOptions doc;  // diagnose jobs

  /// Flat JSON object (nested "spms" tuning object when set).
  std::string to_json() const;
};

/// Parses a JobSpec JSON object.  Unknown keys are skipped (newer minors
/// stay readable); a schema_version with a newer *major* is rejected.
/// Returns false on malformed JSON or a rejected version; when `error` is
/// non-null it receives a one-line reason.
bool jobspec_from_json(const std::string& text, JobSpec& out,
                       std::string* error = nullptr);

enum class JobStatus : uint8_t {
  kOk = 0,
  kRejected = 1,  // admission control said no (serve layer)
  kError = 2,     // invalid spec or execution failure
};

json::EnumNames<JobStatus> wire_names(JobStatus);  // "ok", "rejected", "error"
inline const char* job_status_name(JobStatus s) { return json::enum_name(s); }
inline bool parse_job_status(const std::string& name, JobStatus& out) {
  return json::parse_enum(name, out);
}

struct JobResult {
  uint64_t job_id = 0;
  std::string tenant;  // echoed from the spec
  std::string tag;     // echoed from the spec
  JobKind kind = JobKind::kRun;
  JobStatus status = JobStatus::kOk;
  std::string error;   // kRejected / kError: the one-line reason
  double queue_ms = 0; // admission wait (0 outside the serve layer)
  double exec_ms = 0;  // Engine::submit execution time

  RunReport report;          // kRun (status kOk)
  bool has_batch = false;
  BatchReport batch;         // kBatch
  bool has_doctor = false;
  doctor::DoctorReport doctor;  // kDiagnose

  bool ok() const { return status == JobStatus::kOk; }

  /// Job scalars + the one nested report object the kind produces.
  std::string to_json() const;
};

/// Parses a JobResult JSON object (the to_json format); the embedded
/// report round-trips through its own parser.  Unknown keys are skipped;
/// returns false on malformed JSON.
bool jobresult_from_json(const std::string& text, JobResult& out);

}  // namespace ro
