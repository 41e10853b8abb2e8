// One side of the A/B driver, compiled once per build of the library:
// CMakeLists.txt passes -Dro=ro_a -DAB_SIDE=side_a for the revision under
// test and -Dro=ro_b -DAB_SIDE=side_b for the working tree, so both
// builds link into one binary.
#include "side.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ro/engine/engine.h"
#include "ro/engine/workloads.h"

namespace {

class Fnv1a {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(const std::string& bytes) {
    add(bytes.size());
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Every field of the Metrics (the field order of tests/golden.h).
void add(Fnv1a& f, const ro::Metrics& m) {
  f.add(m.core.size());
  for (const ro::CoreMetrics& c : m.core) {
    f.add(c.compute);
    for (const auto& space : c.miss) {
      for (const uint64_t v : space) f.add(v);
    }
    f.add(c.steals);
    f.add(c.steal_attempts);
    f.add(c.usurpations);
    f.add(c.idle);
    f.add(c.steal_cycles);
    f.add(c.finish);
    f.add(c.l2_hits);
    f.add(c.hold_waits);
  }
  f.add(m.makespan);
  f.add(m.steals_per_priority.size());
  for (const auto& [depth, steals] : m.steals_per_priority) {
    f.add(depth);
    f.add(steals);
  }
  f.add(m.max_block_transfers);
  f.add(m.total_block_transfers);
  f.add(m.stack_words);
}

/// Zeroes every host time a result carries, so its JSON is fixed.
void zero_host_times(ro::JobResult& jr) {
  jr.queue_ms = jr.exec_ms = 0;
  jr.report.wall_ms = 0;
  jr.batch.wall_ms = jr.batch.record_ms = jr.batch.replay_ms = 0;
  jr.batch.aggregate.wall_ms = 0;
  for (ro::RunReport& r : jr.batch.runs) r.wall_ms = 0;
  jr.doctor.before.wall_ms = jr.doctor.after.wall_ms = 0;
}

/// Round trips per timed wire call: one takes about 0.1 ms, too short for
/// a ratio of two timings to resolve a few percent.
constexpr int kWireTrips = 64;

class Impl final : public ab::Side {
 public:
  explicit Impl(const ab::Options& o)
      : graph_(eng_.record(ro::make_workload(o.workload, o.n, 0)).graph) {
    cfg_.p = o.p;
    spec_.kind = ro::JobKind::kRun;
    spec_.workload = o.workload;
    spec_.n = o.n;
    spec_.opt.backend = ro::Backend::kSimPws;
    spec_.opt.sim.p = o.p;
    spec_.opt.sim.replay_threads = 1;
    spec_.opt.seq_baseline = true;

    // The wire layer's three results: a run, a capacity-shared batch and
    // a diagnose job, each submitted once here.
    ro::JobSpec batch = spec_;
    batch.kind = ro::JobKind::kBatch;
    batch.shards = 2;
    batch.opt.capacity_shared = true;
    ro::JobSpec diag = spec_;
    diag.kind = ro::JobKind::kDiagnose;
    diag.workload = "counters-packed";
    diag.n = 16;
    for (const ro::JobSpec& s : {spec_, batch, diag}) {
      wire_.push_back(submit(s));
      zero_host_times(wire_.back());
    }
  }

  uint64_t run(ab::Layer layer) override {
    Fnv1a f;
    switch (layer) {
      case ab::Layer::kPws:
        add(f, ro::simulate(graph_, ro::SchedKind::kPws, cfg_));
        break;
      case ab::Layer::kRws:
        add(f, ro::simulate(graph_, ro::SchedKind::kRws, cfg_));
        break;
      case ab::Layer::kSubmit: {
        const ro::JobResult jr = submit(spec_);
        add(f, jr.report.sim);
        f.add(jr.report.q_seq);
        f.add(jr.report.seq_makespan);
        break;
      }
      case ab::Layer::kWire:
        for (int trip = 0; trip < kWireTrips; ++trip) {
          for (const ro::JobResult& jr : wire_) {
            const std::string j = jr.to_json();
            ro::JobResult back;
            if (!ro::jobresult_from_json(j, back)) {
              std::fprintf(stderr, "ab: jobresult_from_json refused %s\n",
                           j.c_str());
              std::exit(2);
            }
            f.add(j);
            f.add(back.to_json());
          }
        }
        break;
    }
    return f.value();
  }

 private:
  ro::JobResult submit(const ro::JobSpec& s) {
    ro::JobResult jr = eng_.submit(s);
    if (!jr.ok()) {
      std::fprintf(stderr, "ab: submit failed: %s\n", jr.error.c_str());
      std::exit(2);
    }
    return jr;
  }

  ro::Engine eng_;
  ro::TaskGraph graph_;
  ro::SimConfig cfg_;
  ro::JobSpec spec_;
  std::vector<ro::JobResult> wire_;
};

}  // namespace

std::unique_ptr<ab::Side> ab::AB_SIDE(const Options& o) {
  return std::make_unique<Impl>(o);
}
