// ro-doctor — command-line front end for the closed false-sharing loop
// (src/ro/doctor).  Records a workload once, replays it under the simulator
// with a ContentionProfile attached, classifies the contended lines, plans
// a padding AddressRemap, and re-replays the *same* stored trace under the
// remap so the repair's effect is measured, not estimated.
//
//   ro-doctor diagnose [flags]   profile + ranked findings
//   ro-doctor repair   [flags]   diagnose + repair plan + verified re-replay
//   ro-doctor verify   [flags]   repair, then exit 1 unless the measured
//                                block-transfer reduction >= --require
//
// Workloads (recorded fresh each run, deterministic for a given size):
//   --workload=packed   k counters packed into adjacent words (stride 1) —
//                       the canonical false-sharing victim (SNIPPETS #1)
//   --workload=padded   the same counters at stride B — the healthy control
//   --workload=msum     divide-and-conquer sum — incidental sharing only
//
// Flags: --counters=N --iters=N --stride=N (overrides the workload default)
//        --n=N (msum size)  --p --M --B  --backend=sim-pws|sim-rws
//        --max-lines --min-events  --out=FILE (DoctorReport JSON)
//        --require=X (verify: required before/after transfer ratio)
#include <cstdio>
#include <fstream>
#include <string>

#include "ro/engine/engine.h"
#include "ro/engine/workloads.h"
#include "ro/util/check.h"
#include "ro/util/cli.h"

namespace {

using namespace ro;

void print_findings(const doctor::DoctorReport& d) {
  if (d.findings.empty()) {
    std::printf("findings: none (no coherence invalidations recorded)\n");
    return;
  }
  std::printf("findings: %zu contended line(s)\n", d.findings.size());
  for (const doctor::LineFinding& f : d.findings) {
    std::printf(
        "  line 0x%llx  %-13s false=%llu true=%llu transfers=%llu "
        "coh_misses=%llu tasks=%u words=%zu\n",
        static_cast<unsigned long long>(f.line), pattern_name(f.pattern),
        static_cast<unsigned long long>(f.false_events),
        static_cast<unsigned long long>(f.true_events),
        static_cast<unsigned long long>(f.transfers),
        static_cast<unsigned long long>(f.coherence_misses), f.tasks,
        f.hot_words.size());
  }
}

void print_plan(const doctor::DoctorReport& d) {
  std::printf("plan: %llu line(s) padded, %llu false event(s) targeted\n",
              static_cast<unsigned long long>(d.plan.lines_padded),
              static_cast<unsigned long long>(d.plan.predicted_avoided_events));
  for (const RemapRule& r : d.plan.remap.rules()) {
    std::printf("  remap [0x%llx, +%llu) -> 0x%llx stride %llu\n",
                static_cast<unsigned long long>(r.src),
                static_cast<unsigned long long>(r.len),
                static_cast<unsigned long long>(r.dst),
                static_cast<unsigned long long>(r.stride));
  }
}

void print_verdict(const doctor::DoctorReport& d) {
  std::printf("before: block_transfers=%llu block_misses=%llu makespan=%llu\n",
              static_cast<unsigned long long>(d.before_block_transfers()),
              static_cast<unsigned long long>(d.before.sim.block_misses()),
              static_cast<unsigned long long>(d.before.sim.makespan));
  if (!d.has_after) {
    std::printf("after:  (no repair applied)\n");
    return;
  }
  std::printf(
      "after:  block_transfers=%llu block_misses=%llu makespan=%llu "
      "(%.2fx transfer reduction)\n",
      static_cast<unsigned long long>(d.after_block_transfers()),
      static_cast<unsigned long long>(d.after.sim.block_misses()),
      static_cast<unsigned long long>(d.after.sim.makespan),
      d.transfer_reduction());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  std::string cmd =
      cli.positional().empty() ? "diagnose" : cli.positional()[0];
  if (cmd != "diagnose" && cmd != "repair" && cmd != "verify") {
    std::fprintf(stderr,
                 "usage: ro-doctor [diagnose|repair|verify] [--workload=...] "
                 "[--p=] [--M=] [--B=] [--out=FILE] [--require=X]\n");
    return 2;
  }

  SimConfig cfg;
  cfg.p = static_cast<uint32_t>(cli.get_int("p", 4));
  cfg.M = static_cast<uint64_t>(cli.get_int("M", 1 << 12));
  cfg.B = static_cast<uint32_t>(cli.get_int("B", 32));

  Backend backend = Backend::kSimPws;
  const std::string bname = cli.get_str("backend", "sim-pws");
  RO_CHECK_MSG(parse_backend(bname, backend) && backend_is_sim(backend),
               "ro-doctor replays traces: --backend must be sim-pws/sim-rws");

  doctor::DoctorOptions opt;
  opt.max_lines = static_cast<uint32_t>(cli.get_int("max-lines", 64));
  opt.min_false_events =
      static_cast<uint64_t>(cli.get_int("min-events", 1));

  const std::string workload = cli.get_str("workload", "packed");
  const uint32_t k = static_cast<uint32_t>(cli.get_int("counters", 8));
  const uint64_t iters = static_cast<uint64_t>(cli.get_int("iters", 64));
  const uint64_t n = static_cast<uint64_t>(cli.get_int("n", 1 << 12));

  // The doctor loop goes through the concurrent-caller submit API: one
  // JobSpec (kind=diagnose) plus the program, one JobResult back — the
  // same path a serve daemon or a programmatic caller takes.
  JobSpec spec;
  spec.kind = JobKind::kDiagnose;
  spec.opt.backend = backend;
  spec.opt.sim = cfg;
  spec.opt.label = "doctor-" + workload;
  spec.doc = opt;

  Engine eng;
  AnyProg prog;
  if (workload == "packed" || workload == "padded") {
    const uint64_t stride = static_cast<uint64_t>(
        cli.get_int("stride", workload == "packed" ? 1 : cfg.B));
    prog = counters_program(k, iters, stride);
  } else if (workload == "msum") {
    prog = make_workload("msum", n, 0);
  } else {
    std::fprintf(stderr, "unknown --workload=%s (packed|padded|msum)\n",
                 workload.c_str());
    return 2;
  }
  const JobResult jr = eng.submit(spec, prog);
  if (!jr.ok()) {
    std::fprintf(stderr, "ro-doctor: %s\n", jr.error.c_str());
    return 2;
  }
  const doctor::DoctorReport& d = jr.doctor;

  std::printf("ro-doctor %s: workload=%s backend=%s p=%u M=%llu B=%u\n",
              cmd.c_str(), workload.c_str(), backend_name(backend), cfg.p,
              static_cast<unsigned long long>(cfg.M), cfg.B);
  print_findings(d);
  if (cmd != "diagnose") {
    print_plan(d);
    print_verdict(d);
  }

  const std::string out = cli.get_str("out", "");
  if (!out.empty()) {
    std::ofstream f(out);
    RO_CHECK_MSG(f.good(), "cannot open --out file");
    f << d.to_json() << "\n";
    std::printf("wrote %s\n", out.c_str());
  }

  if (cmd == "verify") {
    const double require = cli.get_double("require", 2.0);
    if (d.plan.remap.empty()) {
      // Nothing repairable: healthy layouts pass verify trivially, but a
      // line the doctor saw yet could not fix is a failed verification.
      const bool healthy = d.findings.empty();
      std::printf("verify: %s (no repairable false sharing)\n",
                  healthy ? "PASS" : "FAIL");
      return healthy ? 0 : 1;
    }
    const double got = d.transfer_reduction();
    const bool pass = d.has_after && got >= require;
    std::printf("verify: %s (%.2fx transfer reduction, required %.2fx)\n",
                pass ? "PASS" : "FAIL", got, require);
    return pass ? 0 : 1;
  }
  return 0;
}
