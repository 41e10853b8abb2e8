// perfbench — the job-pipeline benchmark (perfbench/README.md).
//
//   perfbench --workload run-resident|batch-stream|serve-mixed
//             --seed N --seconds S --trace 0|1 --scratch DIR
//
// One process drives the public job API: Engine::submit for the in-process
// workloads, serve::Server + serve::Client for serve-mixed.  Every workload
// is a closed loop (a caller submits its next job only after the previous
// result is in hand), so throughput is earned, not offered.
//
// Phases of one run:
//   1. set-up, repeated kSetupReps times (setup_s is their median): engine
//      or server construction, input generation, and the one-shot golden
//      Engine::submit of every distinct (spec, seed salt) — resident,
//      serial, replay_threads=1.  The reps' goldens must agree exactly.
//   2. the timed closed loop: at least --seconds and at least kMinJobs
//      jobs; every result is compared with its golden, and a mismatch, an
//      error result or an admission refusal counts as a failed job.
//   3. with --trace 1, spans around each public call (the per-layer run):
//      traced jobs alternate with untraced ones so the tracing overhead is
//      measured in the same run, then a short decomposition pass runs the
//      workload's specs as chains of in-process public calls.
//
// The last stdout line is the result object the harness reads; the line
// before it is run metadata (host, build, thread budget, control loop,
// digest of every simulated statistic).
#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ro/engine/engine.h"
#include "ro/engine/workloads.h"
#include "ro/sched/run.h"
#include "ro/serve/client.h"
#include "ro/serve/server.h"
#include "ro/util/flatjson.h"

using namespace ro;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Sizes.  Chosen for steadiness on a 4-core host (README.md, "Sizes"):
// every run completes >= kMinJobs jobs so p90 has >= 10 samples beyond it,
// and set-up is seconds of CPU-bound product work.

constexpr int kSetupReps = 3;
constexpr size_t kMinJobs = 100;
constexpr double kHardCapS = 150;  // abort a run that cannot finish

constexpr uint64_t kResidentN = 1 << 13;   // run-resident: ps
constexpr uint32_t kResidentSalts = 48;

constexpr uint64_t kBatchN = 1 << 11;      // batch-stream: sort-spms shards
constexpr uint32_t kBatchShards = 4;
constexpr uint32_t kBatchSalts = 16;
constexpr uint64_t kBatchSegment = 1 << 12;  // records per trace segment
constexpr uint32_t kDecomposeJobs = 4;     // traced per-shard chains

constexpr uint32_t kServeClients = 3;
constexpr uint32_t kServeInflight = 2;     // fewer slots than clients
constexpr uint32_t kServeSalts = 12;
constexpr uint32_t kServeDecomposeReps = 6;

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string scratch;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "run-resident|batch-stream|serve-mixed --seed N --seconds S "
               "--trace 0|1 --scratch DIR\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a.seconds > 0;
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (k == "--scratch") {
      a.scratch = v;
    } else {
      usage("unknown argument");
    }
  }
  if (a.workload != "run-resident" && a.workload != "batch-stream" &&
      a.workload != "serve-mixed")
    usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace || a.scratch.empty())
    usage("--seed, --seconds, --trace and --scratch are required");
  return a;
}

// ---------------------------------------------------------------------------
// Host controls: the build guard and the pure-arithmetic control loop.

struct BuildInfo {
  bool optimized = false;
  bool sanitized = false;
};

BuildInfo build_guard() {
  BuildInfo b;
#ifdef __OPTIMIZE__
  b.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  b.sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  b.sanitized = true;
#endif
#endif
  return b;
}

/// A fixed integer recurrence that touches no memory: its time moves only
/// with the host (frequency, co-tenants), never with the product.  Median
/// of 7 samples of ~50 ms.
double control_loop_ms() {
  std::vector<double> samples;
  volatile uint64_t sink = 0;
  for (int s = 0; s < 7; ++s) {
    const auto t0 = Clock::now();
    uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(s);
    for (uint32_t i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = sink + x;
    samples.push_back(ms_between(t0, Clock::now()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// The memory-side control: first-touch writes over fresh pages, as every
/// job's trace buffers do.  It moves with the host's page-fault and memory
/// bandwidth costs, which the arithmetic loop cannot see.  Median of 7
/// samples over 16 MiB.
double control_fault_ms() {
  std::vector<double> samples;
  for (int s = 0; s < 7; ++s) {
    constexpr size_t kBytes = 16u << 20;
    const auto t0 = Clock::now();
    // mmap, not new: the allocator would hand back already-faulted pages.
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return 0;
    char* buf = static_cast<char*>(p);
    for (size_t i = 0; i < kBytes; i += 4096) buf[i] = 1;
    munmap(p, kBytes);
    samples.push_back(ms_between(t0, Clock::now()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the value at rank ceil(q * n).  For q = 0.9
/// and n >= 100 at least 10 samples lie beyond it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

uint64_t splitmix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The workload's JobSpec::seed salts: a fixed small set derived from
/// --seed, so every distinct (spec, salt) gets one golden in set-up.
std::vector<uint64_t> make_salts(uint64_t seed, uint32_t count) {
  std::vector<uint64_t> s;
  for (uint32_t k = 0; k < count; ++k)
    s.push_back(splitmix(seed * 131 + k) % (1u << 20));
  return s;
}

// ---------------------------------------------------------------------------
// Spans (the traced run).  Kept in memory, written at exit.

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int64_t parent = -1;
  uint64_t job = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point t0) : t0_(t0) {}

  int64_t open(const std::string& name, int64_t parent, uint64_t job) {
    const double now = ms_between(t0_, Clock::now());
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, now, now, parent, job});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void close(int64_t id) {
    const double now = ms_between(t0_, Clock::now());
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(id)].end_ms = now;
  }
  /// A span the program timed itself (queue_ms, exec_ms): placed inside
  /// its parent from `start_ms` for `dur_ms`.
  void add(const std::string& name, double start_ms, double dur_ms,
           int64_t parent, uint64_t job) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, start_ms, start_ms + dur_ms, parent, job});
  }
  double start_of(int64_t id) {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_[static_cast<size_t>(id)].start_ms;
  }

  /// Self time: duration minus the part of it covered by child spans.
  std::vector<double> self_times() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
    std::vector<double> out(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      double covered = 0, cur_a = 0, cur_b = -1;
      for (auto [a, b] : k) {
        a = std::max(a, spans_[i].start_ms);
        b = std::min(b, spans_[i].end_ms);
        if (b <= a) continue;
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
      out[i] = (spans_[i].end_ms - spans_[i].start_ms) - covered;
    }
    return out;
  }

  /// Per-job sums of a span name's self time, one entry per job that has
  /// the span.
  std::vector<double> per_job(const std::string& name) const {
    const std::vector<double> st = self_times();
    std::map<uint64_t, double> acc;
    for (size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) acc[spans_[i].job] += st[i];
    std::vector<double> v;
    for (const auto& [job, ms] : acc) v.push_back(ms);
    return v;
  }

  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    const std::vector<double> st = self_times();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string line = "{";
      json::kv_str(line, "name", s.name);
      json::kv(line, "job", s.job);
      json::append_kv(line, "parent", std::to_string(s.parent), false);
      json::kv(line, "start_ms", s.start_ms);
      json::kv(line, "end_ms", s.end_ms);
      json::kv(line, "self_ms", st[i]);
      f << line << "}\n";
    }
    return static_cast<bool>(f);
  }

 private:
  Clock::time_point t0_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it free.
class Scope {
 public:
  Scope(Tracer* t, const char* name, int64_t parent, uint64_t job)
      : t_(t), id_(t ? t->open(name, parent, job) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* t_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// Correctness: every timed result against its set-up golden.

bool same_run(const RunReport& a, const RunReport& b) {
  return a.has_sim == b.has_sim && a.sim.makespan == b.sim.makespan &&
         a.sim.cache_misses() == b.sim.cache_misses() &&
         a.sim.block_misses() == b.sim.block_misses() &&
         a.sim.steals() == b.sim.steals() && a.has_baseline == b.has_baseline &&
         a.q_seq == b.q_seq;
}

bool same_doctor(const doctor::DoctorReport& a, const doctor::DoctorReport& b) {
  return same_run(a.before, b.before) && a.has_after == b.has_after &&
         a.before_block_transfers() == b.before_block_transfers() &&
         a.after_block_transfers() == b.after_block_transfers();
}

bool same_result(const JobResult& got, const JobResult& gold) {
  if (!got.ok() || !gold.ok() || got.kind != gold.kind) return false;
  switch (got.kind) {
    case JobKind::kRun:
      return same_run(got.report, gold.report);
    case JobKind::kBatch: {
      if (!got.has_batch || got.batch.runs.size() != gold.batch.runs.size())
        return false;
      for (size_t i = 0; i < got.batch.runs.size(); ++i)
        if (!same_run(got.batch.runs[i], gold.batch.runs[i])) return false;
      return same_run(got.batch.aggregate, gold.batch.aggregate);
    }
    case JobKind::kDiagnose:
      return got.has_doctor && same_doctor(got.doctor, gold.doctor);
  }
  return false;
}

/// FNV-1a over every deterministic statistic of the goldens, so two
/// commits' simulated results compare at a glance.
class Digest {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(const RunReport& r) {
    add(r.graph.work), add(r.graph.span), add(r.graph.activations);
    add(r.graph.accesses), add(r.graph.leaves);
    add(r.sim.makespan), add(r.sim.compute()), add(r.sim.cache_misses());
    add(r.sim.block_misses()), add(r.sim.stack_misses()), add(r.sim.steals());
    add(r.sim.steal_attempts()), add(r.sim.usurpations()), add(r.sim.idle());
    add(r.sim.total_block_transfers), add(r.sim.max_block_transfers);
    add(r.sim.stack_words), add(r.q_seq), add(r.seq_makespan);
  }
  void add(const JobResult& jr) {
    add(static_cast<uint64_t>(jr.kind));
    add(jr.report);
    for (const RunReport& r : jr.batch.runs) add(r);
    add(jr.batch.aggregate);
    add(jr.doctor.before);
    add(jr.doctor.after);
    add(jr.doctor.findings.size());
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

// ---------------------------------------------------------------------------
// Workload specs.

JobSpec resident_spec(uint64_t salt) {
  JobSpec s;
  s.kind = JobKind::kRun;
  s.workload = "ps";
  s.n = kResidentN;
  s.seed = salt;
  s.opt.backend = Backend::kSimPws;
  s.opt.sim.replay_threads = 1;
  s.opt.seq_baseline = true;
  s.opt.label = "run-resident";
  return s;
}

JobSpec batch_spec(uint64_t salt, const std::string& spill_dir) {
  JobSpec s;
  s.kind = JobKind::kBatch;
  s.workload = "sort-spms";
  s.n = kBatchN;
  s.seed = salt;
  s.shards = kBatchShards;
  s.opt.backend = Backend::kSimPws;
  s.opt.seq_baseline = true;
  s.opt.pipeline = true;
  // One shard chain at a time, so at most 2 busy threads (the chain and
  // its store's spill worker).  Two chains kept all 4 vCPUs busy and the
  // job latency tracked the hypervisor's steal (README.md, "Steadiness").
  s.opt.sim.replay_threads = 1;
  s.opt.trace.segment_tasks = kBatchSegment;
  s.opt.trace.max_resident_segments = 4;
  s.opt.trace.compress = true;
  s.opt.trace.spill_dir = spill_dir;
  s.opt.label = "batch-stream";
  return s;
}

/// The golden of any spec: one-shot, resident, serial, replay_threads=1.
JobSpec golden_of(JobSpec s) {
  s.opt.pipeline = false;
  s.opt.trace = StreamOptions{};
  s.opt.sim.replay_threads = 1;
  return s;
}

alg::SpmsTuning tuned_spms() {
  alg::SpmsTuning t;  // the defaults, with two knobs moved
  t.merge_base = 64;
  t.multisearch_leaf = 96;
  return t;
}

enum ServeClass : int { kSmallPs, kSmallMsum, kDiag, kTuned, kPar, kClasses };
const char* const kClassName[kClasses] = {"small", "small", "diagnose",
                                          "tuned", "par"};

JobSpec serve_spec(int cls, uint64_t salt) {
  JobSpec s;
  s.kind = JobKind::kRun;
  s.seed = salt;
  s.opt.backend = Backend::kSimPws;
  s.opt.sim.replay_threads = 1;
  switch (cls) {
    case kSmallPs:
      s.workload = "ps";
      s.n = 1 << 12;
      break;
    case kSmallMsum:
      s.workload = "msum";
      s.n = 1 << 12;
      break;
    case kDiag:
      s.kind = JobKind::kDiagnose;
      s.workload = "counters-packed";
      s.n = 1 << 11;
      break;
    case kTuned:
      s.workload = "sort-spms";
      s.n = 1 << 12;
      s.opt.spms = tuned_spms();
      break;
    case kPar:
      s.workload = "sort-spms";
      s.n = 1 << 17;
      s.opt.backend = Backend::kParPriority;
      s.opt.threads = 2;
      break;
  }
  s.opt.label = std::string("serve-") + kClassName[cls];
  return s;
}

/// One client's fixed job sequence.  Proportions (README.md, "Class
/// proportions") keep p50 and p90 >= 5 percentile points from every
/// boundary between classes in the cumulative latency order.
const int kServeSequence[] = {kSmallPs, kDiag,  kSmallMsum, kPar, kSmallPs,
                              kTuned,   kDiag,  kSmallMsum, kPar, kTuned};
constexpr size_t kServeSeqLen = sizeof(kServeSequence) / sizeof(int);

// ---------------------------------------------------------------------------
// The run.

struct Sample {
  double latency_ms = 0;
  bool traced = false;
  int cls = -1;  // serve-mixed job class
};

struct Run {
  Args args;
  Clock::time_point t_start;
  std::string spill_dir;
  std::unique_ptr<Tracer> tracer;

  // set-up
  std::vector<double> setup_ms;
  std::map<std::string, JobResult> goldens;  // key: spec JSON
  std::map<std::string, double> golden_exec_ms;
  uint64_t golden_mismatch = 0;

  // timed phase
  std::mutex mu;
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double timed_wall_s = 0;

  std::map<std::string, double> layer;  // per-layer metrics (trace run)

  /// Books one job.  Warm-up jobs are checked but give no latency sample.
  void record(double ms, bool traced, bool ok, int cls = -1,
              bool warm = false) {
    std::lock_guard<std::mutex> lk(mu);
    ++attempted;
    if (!ok) ++failed;
    if (ok && !warm) samples.push_back(Sample{ms, traced, cls});
  }
  size_t completed() {
    std::lock_guard<std::mutex> lk(mu);
    return samples.size() + failed;
  }
  /// The timed phase that began at `t0` has run --seconds and kMinJobs
  /// jobs (or the run hit its hard cap).
  bool done(Clock::time_point t0) {
    const double run_s =
        std::chrono::duration<double>(Clock::now() - t_start).count();
    return run_s > kHardCapS ||
           (ms_between(t0, Clock::now()) >= args.seconds * 1000 &&
            completed() >= kMinJobs);
  }
  void set(const std::string& name, double v) { layer[name] = v; }
};

std::string key_of(const JobSpec& s) { return s.to_json(); }

/// Computes (or, in later set-up reps, re-computes and cross-checks) the
/// golden of `spec`.
void make_golden(Run& run, Engine& eng, const JobSpec& spec, bool first_rep) {
  const JobSpec g = golden_of(spec);
  JobResult jr = eng.submit(g);
  const std::string k = key_of(spec);
  if (!jr.ok()) {
    std::fprintf(stderr, "perfbench: golden %s failed: %s\n",
                 spec.opt.label.c_str(), jr.error.c_str());
    ++run.golden_mismatch;
    return;
  }
  run.golden_exec_ms[k] = jr.exec_ms;
  if (first_rep) {
    run.goldens[k] = std::move(jr);
  } else if (!same_result(jr, run.goldens[k])) {
    std::fprintf(stderr, "perfbench: golden %s differs between set-up reps\n",
                 spec.opt.label.c_str());
    ++run.golden_mismatch;
  }
}

const JobResult* golden(Run& run, const JobSpec& spec) {
  auto it = run.goldens.find(key_of(spec));
  return it == run.goldens.end() ? nullptr : &it->second;
}

/// Host counters around the timed phase: this process's CPU time and
/// minor faults, and the share of all CPU time the hypervisor stole.
struct HostCounters {
  double user_s = 0, sys_s = 0, minflt = 0;
  double steal = 0, total = 0;  // /proc/stat ticks, all CPUs

  static HostCounters now() {
    HostCounters h;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    h.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
    h.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    h.minflt = static_cast<double>(ru.ru_minflt);
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    for (int i = 0; i < 8 && f; ++i) {
      double v = 0;
      f >> v;
      h.total += v;
      if (i == 7) h.steal = v;
    }
    return h;
  }
};

/// Drops set-up's allocations and resets the process RSS high-water mark,
/// so peak_rss_mb measures the timed phase rather than the resident
/// goldens (which would otherwise pin it at the unstreamed footprint).
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// The deterministic work counts of the goldens (per-layer "none" rows:
/// a host-only change must leave them bit-identical).
void set_work_counts(Run& run) {
  uint64_t acc = 0, acts = 0, cm = 0, bm = 0, steals = 0, q = 0;
  auto add = [&](const RunReport& r) {
    acc += r.graph.accesses;
    acts += r.graph.activations;
    cm += r.sim.cache_misses();
    bm += r.sim.block_misses();
    steals += r.sim.steals();
    q += r.q_seq;
  };
  for (const auto& [k, jr] : run.goldens) {
    if (jr.kind == JobKind::kBatch) add(jr.batch.aggregate);
    else if (jr.kind == JobKind::kDiagnose) add(jr.doctor.before);
    else add(jr.report);
  }
  run.set("core.accesses", static_cast<double>(acc));
  run.set("core.activations", static_cast<double>(acts));
  run.set("sim.cache_misses", static_cast<double>(cm));
  run.set("sim.block_misses", static_cast<double>(bm));
  run.set("sim.steals", static_cast<double>(steals));
  run.set("sim.q_seq", static_cast<double>(q));
}

// ---- in-process chains of public calls (traced decomposition) -----------

struct ChainOut {
  RunReport report;  // what submit would have reported
  GraphStats stats;
};

/// record (TraceCtx) -> analyze -> simulate(PWS) -> simulate(Seq): the
/// calls Engine::submit makes for a resident kRun sim-pws job.
ChainOut resident_chain(const JobSpec& spec, Tracer* t, int64_t parent,
                        uint64_t job) {
  const AnyProg prog = make_workload(spec.workload, spec.n, spec.seed);
  TaskGraph g;
  {
    Scope s(t, "core.record", parent, job);
    TraceCtx::Options topt;
    topt.padded = spec.opt.padded;
    topt.align_words = spec.opt.align_words;
    TraceCtx cx(topt);
    detail::EngineCtx<TraceCtx> ec(cx);
    prog(ec);
    g = std::move(ec.graph());
  }
  ChainOut out;
  {
    Scope s(t, "core.analyze", parent, job);
    out.stats = g.analyze();
  }
  RunReport& r = out.report;
  r.has_graph = true;
  r.graph = out.stats;
  r.has_sim = true;
  r.p = spec.opt.sim.p;
  r.M = spec.opt.sim.M;
  r.B = spec.opt.sim.B;
  {
    Scope s(t, "sched.replay", parent, job);
    r.sim = simulate(g, SchedKind::kPws, spec.opt.sim);
  }
  {
    Scope s(t, "sched.baseline", parent, job);
    const Metrics seq = simulate(g, SchedKind::kSeq, spec.opt.sim);
    r.has_baseline = true;
    r.q_seq = seq.cache_misses();
    r.seq_makespan = seq.makespan;
    r.cache_excess = excess(r.sim.cache_misses(), r.q_seq);
  }
  return out;
}

/// JobResult::to_json + jobresult_from_json: the report layer.
bool report_roundtrip(const JobResult& jr, JobResult& back, Tracer* t,
                      int64_t parent, uint64_t job) {
  Scope s(t, "engine.report", parent, job);
  return jobresult_from_json(jr.to_json(), back);
}

/// The resident-chain layers (record, analyze, PWS replay, p=1 baseline)
/// from the spans: medians per job, divided by `chains` when one job id
/// ran several chains; rates use `accesses` per chain.
void set_chain_layers(Run& run, const Tracer& t, double accesses,
                      double chains) {
  auto med = [&](const char* name) {
    return median(t.per_job(name)) / chains;
  };
  const double rec = med("core.record"), rep = med("sched.replay");
  run.set("core.record_ms", rec);
  run.set("core.record_macc_s", rec > 0 ? accesses / rec / 1e3 : 0);
  run.set("core.analyze_ms", med("core.analyze"));
  run.set("sched.replay_ms", rep);
  run.set("sched.replay_macc_s", rep > 0 ? accesses / rep / 1e3 : 0);
  run.set("sched.baseline_ms", med("sched.baseline"));
}

// ---- run-resident ---------------------------------------------------------

void setup_resident(Run& run, Engine& eng, bool first_rep) {
  for (uint64_t salt : make_salts(run.args.seed, kResidentSalts))
    make_golden(run, eng, resident_spec(salt), first_rep);
}

void timed_resident(Run& run, Engine& eng) {
  const std::vector<uint64_t> salts =
      make_salts(run.args.seed, kResidentSalts);
  Tracer* t = run.tracer.get();
  auto t0 = Clock::now();
  for (uint64_t j = 0;; ++j) {
    // One untimed pass over the salts first: the first jobs after set-up
    // re-fault the memory reset_peak_rss returned to the system.
    const bool warm = j < salts.size();
    if (j == salts.size()) t0 = Clock::now();
    if (!warm && run.done(t0)) break;
    const JobSpec spec = resident_spec(salts[j % salts.size()]);
    const JobResult* gold = golden(run, spec);
    if (t != nullptr && j % 2 == 1) {
      // Traced job: the same work as submit, as its chain of public calls.
      const uint64_t id = j;
      const auto s0 = Clock::now();
      ChainOut c;
      {
        Scope job(t, "job", -1, id);
        c = resident_chain(spec, t, job.id(), id);
      }
      const double ms = ms_between(s0, Clock::now());
      JobResult jr;
      jr.kind = JobKind::kRun;
      jr.report = std::move(c.report);
      JobResult back;
      const bool ok = report_roundtrip(jr, back, t, -1, id) &&
                      gold != nullptr && same_result(back, *gold);
      run.record(ms, true, ok, -1, warm);
      continue;
    }
    const auto s0 = Clock::now();
    const JobResult jr = eng.submit(spec);
    const double ms = ms_between(s0, Clock::now());
    run.record(ms, false, gold != nullptr && same_result(jr, *gold), -1,
               warm);
  }
  run.timed_wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (t == nullptr) return;

  // ps does the same accesses for every salt.
  const double acc = static_cast<double>(
      run.goldens.begin()->second.report.graph.accesses);
  set_chain_layers(run, *t, acc, 1);
  run.set("engine.report_ms", median(t->per_job("engine.report")));
}

// ---- batch-stream ---------------------------------------------------------

void setup_batch(Run& run, Engine& eng, bool first_rep) {
  for (uint64_t salt : make_salts(run.args.seed, kBatchSalts))
    make_golden(run, eng, batch_spec(salt, run.spill_dir), first_rep);
}

/// Per-shard chains of public calls for one batch spec: resident record /
/// analyze / PWS replay / p=1 baseline, then Engine::record_stream and the
/// PWS replay of the streamed graph.  Checks streamed == resident == the
/// golden's shard row.
bool batch_decompose(Run& run, Engine& eng, const JobSpec& spec, Tracer* t,
                     uint64_t job) {
  const JobResult* gold = golden(run, spec);
  bool ok = gold != nullptr;
  StreamOptions st = spec.opt.trace;
  st.async_spill = true;  // as the pipelined batch records
  Scope root(t, "decompose", -1, job);
  for (uint32_t i = 0; i < spec.shards; ++i) {
    JobSpec shard = spec;
    shard.seed = spec.seed + i;  // the batch's per-shard salt
    shard.opt.sim.replay_threads = 1;
    const ChainOut c = resident_chain(shard, t, root.id(), job);
    const AnyProg prog = make_workload(shard.workload, shard.n, shard.seed);
    Recording rec;
    {
      Scope s(t, "core.record_stream", root.id(), job);
      rec = eng.record_stream(prog, st);
    }
    GraphStats again;
    {
      Scope s(t, "core.analyze_stream", root.id(), job);
      again = rec.graph.analyze();
    }
    Metrics streamed;
    {
      Scope s(t, "sched.stream_replay", root.id(), job);
      streamed = simulate(rec.graph, SchedKind::kPws, shard.opt.sim);
    }
    RunReport sr = c.report;
    sr.sim = streamed;
    ok = ok && i < gold->batch.runs.size() &&
         same_run(c.report, gold->batch.runs[i]) &&
         same_run(sr, gold->batch.runs[i]) &&
         again.accesses == c.stats.accesses;
  }
  return ok;
}

void timed_batch(Run& run, Engine& eng) {
  const std::vector<uint64_t> salts = make_salts(run.args.seed, kBatchSalts);
  Tracer* t = run.tracer.get();
  std::vector<double> rec_busy, rep_busy, overlap, spilled, compressed, peak,
      segs;
  auto t0 = Clock::now();
  for (uint64_t j = 0;; ++j) {
    const bool warm = j < salts.size();  // as in timed_resident
    if (j == salts.size()) t0 = Clock::now();
    if (!warm && run.done(t0)) break;
    const JobSpec spec = batch_spec(salts[j % salts.size()], run.spill_dir);
    const JobResult* gold = golden(run, spec);
    const bool traced = t != nullptr && j % 2 == 1;
    const auto s0 = Clock::now();
    JobResult jr;
    {
      Scope job(traced ? t : nullptr, "job", -1, j);
      jr = eng.submit(spec);
    }
    const double ms = ms_between(s0, Clock::now());
    const bool ok = gold != nullptr && same_result(jr, *gold);
    run.record(ms, traced, ok, -1, warm);
    if (warm || !traced || !ok) continue;
    const BatchReport& b = jr.batch;
    rec_busy.push_back(b.record_ms);
    rep_busy.push_back(b.replay_ms);
    overlap.push_back(b.wall_ms > 0 ? (b.record_ms + b.replay_ms) / b.wall_ms
                                    : 0);
    spilled.push_back(static_cast<double>(b.aggregate.trace_spilled_bytes));
    compressed.push_back(
        static_cast<double>(b.aggregate.trace_compressed_bytes));
    peak.push_back(static_cast<double>(b.aggregate.trace_peak_resident_bytes));
    segs.push_back(static_cast<double>(b.aggregate.trace_segments));
    JobResult back;
    report_roundtrip(jr, back, t, -1, j);
  }
  run.timed_wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (t == nullptr) return;

  // Decomposition: the batch's shards as chains of public calls.
  for (uint32_t k = 0; k < kDecomposeJobs; ++k) {
    const JobSpec spec = batch_spec(salts[k % salts.size()], run.spill_dir);
    const bool ok = batch_decompose(run, eng, spec, t, 1'000'000 + k);
    std::lock_guard<std::mutex> lk(run.mu);
    ++run.attempted;
    if (!ok) ++run.failed;
  }
  double acc = 0;  // mean accesses of the decomposed batches
  for (uint32_t k = 0; k < kDecomposeJobs; ++k)
    acc += static_cast<double>(
        golden(run, batch_spec(salts[k % salts.size()], run.spill_dir))
            ->batch.aggregate.graph.accesses);
  set_chain_layers(run, *t, acc / kDecomposeJobs, 1);
  auto med = [&](const char* name) { return median(t->per_job(name)); };
  constexpr double kMB = 1024.0 * 1024.0;
  run.set("core.store_record_ms", med("core.record_stream") -
                                      med("core.analyze_stream") -
                                      med("core.record"));
  run.set("core.store_spilled_mb", median(spilled) / kMB);
  run.set("core.store_compressed_mb", median(compressed) / kMB);
  run.set("core.store_peak_resident_mb", median(peak) / kMB);
  run.set("core.store_segments", median(segs));
  run.set("sched.stream_replay_ms", med("sched.stream_replay"));
  run.set("engine.batch_record_busy_ms", median(rec_busy));
  run.set("engine.batch_replay_busy_ms", median(rep_busy));
  run.set("engine.batch_overlap", median(overlap));
  run.set("engine.report_ms", med("engine.report"));
}

// ---- serve-mixed ----------------------------------------------------------

constexpr auto kPoll = std::chrono::milliseconds(1);

struct ServeState {
  std::unique_ptr<serve::Server> server;
  std::string socket;
  serve::Admission::Stats before;
};

std::vector<std::pair<int, uint64_t>> serve_keys(uint64_t seed) {
  std::vector<std::pair<int, uint64_t>> keys;
  for (uint64_t salt : make_salts(seed, kServeSalts))
    for (int c = 0; c < kClasses; ++c) keys.push_back({c, salt});
  return keys;
}

void setup_serve(Run& run, Engine& eng, ServeState& st, int rep) {
  for (const auto& [cls, salt] : serve_keys(run.args.seed))
    if (cls != kPar) make_golden(run, eng, serve_spec(cls, salt), rep == 0);
  // The par class has no deterministic report and no golden: a pool in
  // this engine would keep a yield-spinning worker busy through the timed
  // phase, outside the thread budget.

  st.server.reset();  // an earlier rep's server, stopped and joined
  serve::Server::Options so;
  so.socket_path = st.socket;
  so.admission.max_inflight = kServeInflight;
  st.server = std::make_unique<serve::Server>(so);
  std::string err;
  if (!st.server->start(&err)) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n", err.c_str());
    std::exit(1);
  }
  // Warm-up: every client runs one par job at once, so the server's pool
  // cache holds the sibling pools the timed phase leases.  This is also
  // the par class's set-up check.
  std::vector<std::thread> warm;
  std::atomic<int> bad{0};
  for (uint32_t c = 0; c < kServeClients; ++c) {
    warm.emplace_back([&] {
      serve::Client cl;
      JobResult jr;
      if (!cl.connect(st.socket) || !cl.submit(serve_spec(kPar, 0), jr) ||
          !jr.ok())
        bad.fetch_add(1);
    });
  }
  for (std::thread& th : warm) th.join();
  if (bad.load() != 0) ++run.golden_mismatch;
}

void timed_serve(Run& run, Engine& eng, ServeState& st) {
  const std::vector<uint64_t> salts = make_salts(run.args.seed, kServeSalts);
  Tracer* t = run.tracer.get();
  std::mutex vmu;
  std::vector<double> queue_ms, report_ms, steals, steal_fail;
  std::vector<double> exec_ms[kClasses];
  std::atomic<bool> stop{false}, go{false};
  std::atomic<uint32_t> warmed{0};
  std::atomic<uint64_t> next_id{1};
  auto t0 = Clock::now();

  auto client = [&](uint32_t c) {
    serve::Client cl;
    if (!cl.connect(st.socket)) {
      run.record(0, false, false);
      warmed.fetch_add(1);
      return;
    }
    for (uint64_t j = 0; !stop.load(); ++j) {
      // One untimed sequence cycle per client (as in timed_resident), then
      // all clients start the timed phase together.
      const bool warm = j < kServeSeqLen;
      if (j == kServeSeqLen) {
        warmed.fetch_add(1);
        while (!go.load()) std::this_thread::sleep_for(kPoll);
      }
      const size_t pos = (j + c * 3) % kServeSeqLen;
      const int cls = kServeSequence[pos];
      const JobSpec base = serve_spec(cls, salts[(j + c) % salts.size()]);
      const JobResult* gold = cls == kPar ? nullptr : golden(run, base);
      JobSpec spec = base;
      spec.tenant = "tenant" + std::to_string(c);
      // Whole sequence cycles alternate, so traced and untraced jobs have
      // the same class mix.
      const bool traced = t != nullptr && (j / kServeSeqLen) % 2 == 1;
      const uint64_t id = next_id.fetch_add(1);
      JobResult jr;
      bool sent = false;
      const auto s0 = Clock::now();
      int64_t job_span = -1;
      {
        Scope job(traced ? t : nullptr, "job", -1, id);
        job_span = job.id();
        sent = cl.submit(spec, jr);
      }
      const double ms = ms_between(s0, Clock::now());
      const bool ok =
          sent && jr.ok() &&
          (cls == kPar ? jr.report.has_pool && jr.report.threads == 2
                       : gold != nullptr && same_result(jr, *gold));
      run.record(ms, traced, ok, cls, warm);
      if (warm) continue;
      if (ok && traced) {
        // The wire hides the server's layers: place the times the program
        // returns inside the client's span; its self time is the wire.
        const double a = t->start_of(job_span);
        t->add("serve.queue", a, jr.queue_ms, job_span, id);
        t->add("engine.exec", a + jr.queue_ms, jr.exec_ms, job_span, id);
        JobResult back;
        const auto r0 = Clock::now();
        report_roundtrip(jr, back, t, -1, id);
        const double rms = ms_between(r0, Clock::now());
        std::lock_guard<std::mutex> lk(vmu);
        if (cls == kSmallPs || cls == kSmallMsum) report_ms.push_back(rms);
      }
      if (ok) {
        std::lock_guard<std::mutex> lk(vmu);
        queue_ms.push_back(jr.queue_ms);
        exec_ms[cls].push_back(jr.exec_ms);
        if (cls == kPar) {
          steals.push_back(static_cast<double>(jr.report.pool_steals));
          steal_fail.push_back(
              static_cast<double>(jr.report.pool_failed_steals));
        }
      }
    }
  };

  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kServeClients; ++c) clients.emplace_back(client, c);
  while (warmed.load() < kServeClients) std::this_thread::sleep_for(kPoll);
  st.before = st.server->admission_stats();
  t0 = Clock::now();
  go.store(true);
  while (!run.done(t0)) std::this_thread::sleep_for(kPoll);
  stop.store(true);
  for (std::thread& th : clients) th.join();
  run.timed_wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  const serve::Admission::Stats after = st.server->admission_stats();
  st.server->stop();
  if (after.rejected != st.before.rejected) {
    std::lock_guard<std::mutex> lk(run.mu);
    run.failed += after.rejected - st.before.rejected;  // already attempted
  }
  if (t == nullptr) return;

  // Decomposition: the sim classes as in-process chains of public calls.
  // The tuned class is left out: recording it in-process would have to
  // swap the process-wide SPMS tuning outside the engine's gate.
  std::vector<double> diag_ms, before_tr, after_tr;
  for (uint32_t k = 0; k < kServeDecomposeReps; ++k) {
    const uint64_t salt = salts[k % salts.size()];
    const uint64_t id = 2'000'000 + k;
    bool ok = true;
    for (int cls : {kSmallPs, kSmallMsum}) {
      const JobSpec spec = serve_spec(cls, salt);
      const JobResult* gold = golden(run, spec);
      Scope root(t, "decompose", -1, id);
      const ChainOut c = resident_chain(spec, t, root.id(), id);
      ok = ok && gold != nullptr && same_run(c.report, gold->report);
    }
    const JobSpec dspec = serve_spec(kDiag, salt);
    const JobResult* dgold = golden(run, dspec);
    const AnyProg prog = make_workload(dspec.workload, dspec.n, dspec.seed);
    const Recording rec = eng.record(prog);
    const auto d0 = Clock::now();
    doctor::DoctorReport d;
    {
      Scope s(t, "doctor.diagnose", -1, id);
      d = eng.diagnose(rec, dspec.opt.backend, dspec.opt.sim, dspec.doc,
                       dspec.opt.label);
    }
    diag_ms.push_back(ms_between(d0, Clock::now()));
    before_tr.push_back(static_cast<double>(d.before_block_transfers()));
    after_tr.push_back(static_cast<double>(d.after_block_transfers()));
    ok = ok && dgold != nullptr && same_doctor(d, dgold->doctor);
    std::lock_guard<std::mutex> lk(run.mu);
    ++run.attempted;
    if (!ok) ++run.failed;
  }

  // Per small job: each decomposition id ran one ps and one msum chain.
  const double acc =
      0.5 * static_cast<double>(
                golden(run, serve_spec(kSmallPs, salts[0]))
                    ->report.graph.accesses +
                golden(run, serve_spec(kSmallMsum, salts[0]))
                    ->report.graph.accesses);
  set_chain_layers(run, *t, acc, 2);
  run.set("engine.report_ms", median(report_ms));
  run.set("serve.wire_ms", median(t->per_job("job")));
  run.set("serve.queue_p50_ms", percentile(queue_ms, 0.5));
  run.set("serve.queue_p90_ms", percentile(queue_ms, 0.9));
  const uint64_t admitted = after.admitted - st.before.admitted;
  run.set("serve.queued_share",
          admitted ? static_cast<double>(after.queued - st.before.queued) /
                         static_cast<double>(admitted)
                   : 0);
  run.set("serve.inflight_peak", after.inflight_peak);
  std::vector<double> small = exec_ms[kSmallPs];
  small.insert(small.end(), exec_ms[kSmallMsum].begin(),
               exec_ms[kSmallMsum].end());
  run.set("engine.exec_ms.small", median(small));
  run.set("engine.exec_ms.diagnose", median(exec_ms[kDiag]));
  run.set("engine.exec_ms.tuned", median(exec_ms[kTuned]));
  run.set("engine.exec_ms.par", median(exec_ms[kPar]));
  std::vector<double> solo;
  for (uint64_t salt : salts)
    solo.push_back(run.golden_exec_ms[key_of(serve_spec(kTuned, salt))]);
  const double solo_med = median(solo);
  run.set("engine.tuned_exec_ratio",
          solo_med > 0 ? median(exec_ms[kTuned]) / solo_med : 0);
  run.set("doctor.diagnose_ms", median(diag_ms));
  run.set("doctor.transfers_before", median(before_tr));
  run.set("doctor.transfers_after", median(after_tr));
  double ok_sum = 0, fail_sum = 0;
  for (double v : steals) ok_sum += v;
  for (double v : steal_fail) fail_sum += v;
  run.set("rt.pool_steals", median(steals));
  run.set("rt.failed_steal_share",
          ok_sum + fail_sum > 0 ? fail_sum / (ok_sum + fail_sum) : 0);
}

/// serve-mixed: the job classes in order of their median latency, each with
/// its share of the samples.  The cumulative shares are the class
/// boundaries of the latency order; a percentile within 5 points of one
/// jumps between classes from run to run.  Returns the smallest distance,
/// in percentile points, from p50 or p90 to a boundary, and fills `desc`
/// with "class:share%:p50ms" entries in latency order.
double class_margin(const std::vector<Sample>& samples, std::string& desc) {
  std::map<std::string, std::vector<double>> by;
  for (const Sample& s : samples)
    if (s.cls >= 0) by[kClassName[s.cls]].push_back(s.latency_ms);
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, v] : by) order.push_back({median(v), name});
  std::sort(order.begin(), order.end());
  double cum = 0, margin = 100;
  for (size_t i = 0; i < order.size(); ++i) {
    const std::string& name = order[i].second;
    const double share =
        100.0 * static_cast<double>(by[name].size()) /
        static_cast<double>(samples.size());
    cum += share;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s%s:%.1f%%:%.2fms", i ? " " : "",
                  name.c_str(), share, order[i].first);
    desc += buf;
    if (i + 1 < order.size())
      margin = std::min({margin, std::abs(cum - 50), std::abs(cum - 90)});
  }
  return margin;
}

// ---------------------------------------------------------------------------
// Output.

/// Every per-layer metric, in BENCHMARK.json's order.  A layer the workload
/// bypasses reports 0: that is the "should not move" prediction.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.record_ms", "ms"},
    {"core.record_macc_s", "Macc/s"},
    {"core.analyze_ms", "ms"},
    {"core.store_record_ms", "ms"},
    {"core.store_spilled_mb", "MB"},
    {"core.store_compressed_mb", "MB"},
    {"core.store_peak_resident_mb", "MB"},
    {"core.store_segments", "count"},
    {"sched.replay_ms", "ms"},
    {"sched.replay_macc_s", "Macc/s"},
    {"sched.baseline_ms", "ms"},
    {"sched.stream_replay_ms", "ms"},
    {"engine.batch_record_busy_ms", "ms"},
    {"engine.batch_replay_busy_ms", "ms"},
    {"engine.batch_overlap", "ratio"},
    {"engine.report_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"serve.queue_p50_ms", "ms"},
    {"serve.queue_p90_ms", "ms"},
    {"serve.queued_share", "ratio"},
    {"serve.inflight_peak", "count"},
    {"engine.exec_ms.small", "ms"},
    {"engine.exec_ms.diagnose", "ms"},
    {"engine.exec_ms.tuned", "ms"},
    {"engine.exec_ms.par", "ms"},
    {"engine.tuned_exec_ratio", "ratio"},
    {"doctor.diagnose_ms", "ms"},
    {"doctor.transfers_before", "count"},
    {"doctor.transfers_after", "count"},
    {"rt.pool_steals", "count"},
    {"rt.failed_steal_share", "ratio"},
    {"core.accesses", "count"},
    {"core.activations", "count"},
    {"sim.cache_misses", "count"},
    {"sim.block_misses", "count"},
    {"sim.steals", "count"},
    {"sim.q_seq", "count"},
    {"trace.job_p50_ms", "ms"},
    {"trace.untraced_job_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

void add_metric(std::string& s, const std::string& name, double v,
                const std::string& unit) {
  if (s.size() > 1) s += ",";
  s += "\"" + name + "\":{\"value\":" + num(v) + ",\"unit\":\"" + unit + "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  run.args = parse_args(argc, argv);
  const Args& a = run.args;
  const double control_setup = control_loop_ms();
  const double fault_setup = control_fault_ms();
  run.t_start = Clock::now();
  std::filesystem::create_directories(a.scratch);
  run.spill_dir = a.scratch + "/spill";
  std::filesystem::create_directories(run.spill_dir);
  if (a.trace) run.tracer = std::make_unique<Tracer>(run.t_start);

  const BuildInfo build = build_guard();
  const bool valid = build.optimized && !build.sanitized;

  // ---- set-up, kSetupReps times; the last rep's objects are timed ----
  std::unique_ptr<Engine> eng;
  ServeState st;
  st.socket = a.scratch + "/pb" + std::to_string(::getpid()) + ".sock";
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto r0 = Clock::now();
    eng.reset();
    eng = std::make_unique<Engine>();
    if (a.workload == "run-resident") setup_resident(run, *eng, rep == 0);
    else if (a.workload == "batch-stream") setup_batch(run, *eng, rep == 0);
    else setup_serve(run, *eng, st, rep);
    run.setup_ms.push_back(ms_between(r0, Clock::now()));
  }
  const bool rss_reset = reset_peak_rss();
  const HostCounters h0 = HostCounters::now();

  // ---- timed phase ----
  if (a.workload == "run-resident") timed_resident(run, *eng);
  else if (a.workload == "batch-stream") timed_batch(run, *eng);
  else timed_serve(run, *eng, st);

  const double rss = peak_rss_mb();
  const HostCounters h1 = HostCounters::now();
  const double control_exit = control_loop_ms();
  const double fault_exit = control_fault_ms();
  st.server.reset();

  std::vector<double> all, traced, untraced;
  for (const Sample& s : run.samples) {
    all.push_back(s.latency_ms);
    (s.traced ? traced : untraced).push_back(s.latency_ms);
  }
  Digest digest;
  for (const auto& [k, jr] : run.goldens) digest.add(jr);

  const bool correct = valid && run.failed == 0 && run.golden_mismatch == 0 &&
                       run.attempted > 0 && all.size() >= kMinJobs;

  // ---- metadata line ----
  const unsigned nproc = std::thread::hardware_concurrency();
  const char* budget = a.workload == "run-resident"
                           ? "1: the caller thread"
                       : a.workload == "batch-stream"
                           ? "2: the pipelined shard chain on the caller + "
                             "its store's async spill worker"
                           : "4: 2 admitted jobs; a par job is its "
                             "connection thread + 1 pool worker, idle "
                             "pool workers yield-spin (clients blocked)";
  std::string m = "{";
  json::kv_str(m, "workload", a.workload);
  json::kv(m, "seed", a.seed);
  json::kv(m, "trace", static_cast<uint64_t>(a.trace));
  json::kv(m, "nproc", static_cast<uint64_t>(nproc));
  json::kv_str(m, "compiler", PERFBENCH_COMPILER);
  json::kv_str(m, "build_type", PERFBENCH_BUILD_TYPE);
  json::kv(m, "optimized", static_cast<uint64_t>(build.optimized));
  json::kv(m, "sanitized", static_cast<uint64_t>(build.sanitized));
  json::kv(m, "valid", static_cast<uint64_t>(valid));
  json::kv_str(m, "thread_budget", budget);
  json::kv(m, "jobs", static_cast<uint64_t>(all.size()));
  json::kv(m, "p90_samples_beyond",
           static_cast<uint64_t>(
               all.size() - static_cast<size_t>(std::ceil(
                                0.9 * static_cast<double>(all.size())))));
  json::kv(m, "timed_wall_s", run.timed_wall_s);
  if (a.workload == "serve-mixed") {
    std::string classes;
    json::kv(m, "class_boundary_margin_pts", class_margin(run.samples, classes));
    json::kv_str(m, "classes", classes);
  }
  std::string reps;
  for (double r : run.setup_ms) reps += (reps.empty() ? "" : ",") + num(r / 1e3);
  json::append_kv(m, "setup_reps_s", "[" + reps + "]", false);
  json::kv(m, "control_ms_setup", control_setup);
  json::kv(m, "control_ms_exit", control_exit);
  json::kv(m, "control_fault_ms_setup", fault_setup);
  json::kv(m, "control_fault_ms_exit", fault_exit);
  // The timed phase (warm-up and traced decomposition included).
  json::kv(m, "cpu_user_s", h1.user_s - h0.user_s);
  json::kv(m, "cpu_sys_s", h1.sys_s - h0.sys_s);
  json::kv(m, "minor_faults", static_cast<uint64_t>(h1.minflt - h0.minflt));
  json::kv(m, "host_steal_share",
           h1.total > h0.total ? (h1.steal - h0.steal) / (h1.total - h0.total)
                               : 0.0);
  json::kv(m, "rss_highwater_reset", static_cast<uint64_t>(rss_reset));
  json::kv(m, "goldens", static_cast<uint64_t>(run.goldens.size()));
  json::kv(m, "golden_mismatch", run.golden_mismatch);
  json::kv_str(m, "digest", digest.hex());
  m += "}";
  std::printf("perfbench-meta %s\n", m.c_str());

  {
    // Per-job latencies in completion order, for looking at a run's tail.
    std::ofstream f(a.scratch + "/samples-" + a.workload + "-seed" +
                    std::to_string(a.seed) + ".txt");
    for (const Sample& s : run.samples)
      f << (s.cls >= 0 ? kClassName[s.cls] : "job") << ' ' << s.traced << ' '
        << num(s.latency_ms) << '\n';
  }
  if (run.tracer) {
    const std::string path = a.scratch + "/spans-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    if (!run.tracer->write(path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  // ---- result line ----
  std::string metrics = "{";
  if (!a.trace) {
    add_metric(metrics, "job_p50_ms", median(all), "ms");
    add_metric(metrics, "job_p90_ms", percentile(all, 0.9), "ms");
    add_metric(metrics, "throughput_jobs_s",
               run.timed_wall_s > 0
                   ? static_cast<double>(all.size()) / run.timed_wall_s
                   : 0,
               "jobs/s");
    add_metric(metrics, "setup_s", median(run.setup_ms) / 1e3, "s");
    add_metric(metrics, "peak_rss_mb", rss, "MB");
  } else {
    set_work_counts(run);
    const double tp = median(traced), up = median(untraced);
    run.set("trace.job_p50_ms", tp);
    run.set("trace.untraced_job_p50_ms", up);
    run.set("trace.overhead_ms", tp - up);
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = run.layer.find(name);
      add_metric(metrics, name, it == run.layer.end() ? 0 : it->second, unit);
    }
  }
  metrics += "}";
  std::fflush(stdout);
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(run.attempted),
      static_cast<unsigned long long>(run.failed), metrics.c_str());
  return 0;
}
