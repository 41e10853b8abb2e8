// Streaming trace pipeline bench: record + replay through the chunked
// TraceStore (ro::StreamOptions) at resident windows far smaller than the
// trace, against the classic in-memory pipeline on the same workload.
// Demonstrates — and RO_CHECKs, not just prints — the acceptance
// properties of the streaming pipeline:
//
//   * scale:      the recorded trace is >= 4x larger than the resident
//                 window allows in memory (default config: ~100x);
//   * exactness:  streaming replay Metrics and the p=1 baseline are
//                 bit-identical to the in-memory walk at every window;
//   * boundedness: trace_peak_resident_bytes stays within the window plus
//                 a constant slack (open segment + cursor pins), never
//                 tracking the trace size;
//   * compression: spilled segments shrink >= 4x under the delta/varint
//                 codec (trace_codec.h), and a raw-mode run spills exactly
//                 16 bytes per record;
//   * pipelining:  a pipelined batch (RunOptions::pipeline) finishes no
//                 slower than a phase-barrier reference (record every
//                 shard, then replay them) while producing bit-identical
//                 Metrics.
//
//   $ ./bench_stream [--n=32768] [--p=8] [--M=4096] [--B=32]
//                    [--segment=4096]      # records per trace segment
//                    [--windows=1,4,16]    # max_resident_segments sweep
//                    [--replay-threads=1]  # host replay parallelism
//                    [--pipeline=1]        # barrier-vs-pipelined batch leg
//                    [--pipeline-threads=4]
//                    [--out=BENCH_stream.json]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common.h"

using namespace ro;
using namespace ro::bench;

namespace {

std::string mb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", bytes / 1048576.0);
  return buf;
}

std::string ratio_str(uint64_t raw, uint64_t compressed) {
  if (compressed == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1fx",
                static_cast<double>(raw) / static_cast<double>(compressed));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 15));
  const uint64_t segment =
      static_cast<uint64_t>(cli.get_int("segment", 1 << 12));
  const std::vector<uint32_t> windows =
      u32_list_from_cli(cli, "windows", "1,4,16");

  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "stream-mem";
  opt.sim.p = static_cast<uint32_t>(cli.get_int("p", 8));
  opt.sim.M = static_cast<uint64_t>(cli.get_int("M", 1 << 12));
  opt.sim.B = static_cast<uint32_t>(cli.get_int("B", 32));
  opt.sim.replay_threads =
      static_cast<uint32_t>(cli.get_int("replay-threads", 1));

  // The SPMS sort trace: the access-heaviest Table-1 family per input
  // word, so the stream dwarfs any reasonable window.
  auto prog = prog_sort(n, 1, SortKind::kSpms);

  Table t("Streaming trace pipeline: bounded-memory record + replay");
  t.header({"pipeline", "window", "trace-MB", "resident-peak-MB", "spilled-MB",
            "compressed-MB", "ratio", "segments", "makespan", "wall-ms"});

  const RunReport mem = engine().run(prog, opt);
  const uint64_t trace_bytes = mem.graph.accesses * sizeof(Access);
  t.row({"in-memory", "-", mb(trace_bytes), mb(trace_bytes), "0.00", "0.00",
         "-", "0", std::to_string(mem.sim.makespan), Table::num(mem.wall_ms)});

  std::vector<RunReport> reports;
  reports.push_back(mem);
  for (const uint32_t w : windows) {
    RunOptions sopt = opt;
    sopt.label = "stream-w" + std::to_string(w);
    sopt.trace.segment_tasks = segment;
    sopt.trace.max_resident_segments = w;
    const RunReport r = engine().run(prog, sopt);
    RO_CHECK_MSG(r.has_stream, "streaming run must report store stats");

    // Exactness: scheduling decisions consume identical records, so the
    // simulated machine cannot tell the representations apart.
    RO_CHECK_MSG(r.sim == mem.sim,
                 "streaming replay diverged from the in-memory walk");
    RO_CHECK_MSG(r.q_seq == mem.q_seq,
                 "streaming baseline diverged from the in-memory walk");

    // Scale: the trace must dwarf what the window can hold.
    const uint64_t window_bytes = uint64_t{w} * segment * sizeof(Access);
    RO_CHECK_MSG(trace_bytes >= 4 * window_bytes,
                 "trace too small to demonstrate bounded-memory replay; "
                 "raise --n or shrink --windows/--segment");

    // Boundedness: window + open segment + one pinned segment per
    // simulated core (and analysis pass) — never the trace itself.
    const uint64_t slack = (uint64_t{opt.sim.p} + 4) * segment * sizeof(Access);
    RO_CHECK_MSG(r.trace_peak_resident_bytes <= window_bytes + slack,
                 "resident high-water exceeded the configured window");

    // Compression: a real SPMS trace must shrink >= 4x on disk.
    RO_CHECK_MSG(r.trace_compressed_bytes > 0,
                 "compressed spill reported zero physical bytes");
    RO_CHECK_MSG(4 * r.trace_compressed_bytes <= r.trace_spilled_bytes,
                 "spilled segments compressed below 4x; codec regressed");

    t.row({"streaming", std::to_string(w), mb(trace_bytes),
           mb(r.trace_peak_resident_bytes), mb(r.trace_spilled_bytes),
           mb(r.trace_compressed_bytes),
           ratio_str(r.trace_spilled_bytes, r.trace_compressed_bytes),
           std::to_string(r.trace_segments), std::to_string(r.sim.makespan),
           Table::num(r.wall_ms)});
    reports.push_back(r);
  }

  // Raw-mode control: compression off spills the 16-byte resident layout
  // verbatim, so physical bytes == raw bytes.  Anchors the ratio column
  // (and catches a codec that silently stops being applied).
  const uint32_t w0 = windows.empty() ? 1 : windows[0];
  {
    RunOptions ropt = opt;
    ropt.label = "stream-raw-w" + std::to_string(w0);
    ropt.trace.segment_tasks = segment;
    ropt.trace.max_resident_segments = w0;
    ropt.trace.compress = false;
    const RunReport r = engine().run(prog, ropt);
    RO_CHECK_MSG(r.sim == mem.sim,
                 "raw-mode replay diverged from the in-memory walk");
    RO_CHECK_MSG(r.trace_compressed_bytes == r.trace_spilled_bytes,
                 "raw mode must spill exactly the 16-byte record layout");
    t.row({"raw", std::to_string(w0), mb(trace_bytes),
           mb(r.trace_peak_resident_bytes), mb(r.trace_spilled_bytes),
           mb(r.trace_compressed_bytes),
           ratio_str(r.trace_spilled_bytes, r.trace_compressed_bytes),
           std::to_string(r.trace_segments), std::to_string(r.sim.makespan),
           Table::num(r.wall_ms)});
    reports.push_back(r);
  }
  t.print();

  std::printf("\nstreamed %zu windows bit-identically: trace=%.2f MB, "
              "smallest window=%.2f MB (%.0fx smaller)\n",
              windows.size(), trace_bytes / 1048576.0,
              w0 * segment * sizeof(Access) / 1048576.0,
              static_cast<double>(trace_bytes) /
                  (w0 * segment * sizeof(Access)));

  // ---- record-while-replay pipelining: barrier vs pipelined batch ----
  //
  // A heterogeneous sort batch (SPMS + merge sort at two sizes) run twice:
  // pipelined through run_batch (per-shard record -> analyze -> replay
  // chains, stores spilling compressed segments behind their recorders),
  // and as a phase-barrier reference built from public calls (record
  // every shard, then replay every shard and its p=1 baseline, each phase
  // spread over the same host threads).  Metrics must be bit-identical;
  // the pipelined wall must not lose to the barrier schedule (checked
  // after the JSON is written: a slow host must not hide the exact rows).
  double piped_wall_ms = 0, barrier_wall_ms = 0;
  if (cli.get_int("pipeline", 1) != 0) {
    using Prog = std::function<void(detail::EngineCtx<TraceCtx>&)>;
    std::vector<Prog> progs;
    progs.emplace_back(prog_sort(n, 1, SortKind::kSpms));
    progs.emplace_back(prog_sort(n, 1, SortKind::kMsort));
    progs.emplace_back(prog_sort(n / 2, 1, SortKind::kSpms));
    progs.emplace_back(prog_sort(n / 2, 1, SortKind::kMsort));
    const size_t shards = progs.size();

    RunOptions popt = opt;
    popt.label = "stream-pipelined";
    popt.sim.replay_threads =
        static_cast<uint32_t>(cli.get_int("pipeline-threads", 4));
    popt.trace.segment_tasks = segment;
    popt.trace.max_resident_segments = w0;
    popt.pipeline = true;

    // The barrier reference, each phase spread over the batch's host
    // threads; its pool and recordings are gone before the batch runs.
    double record_ms = 0, replay_ms = 0;
    std::vector<Metrics> walks(2 * shards);  // replays, then p=1 baselines
    {
      rt::Pool pool(replay_host_threads(popt.sim.replay_threads, 2 * shards));
      auto phase_ms = [&](size_t count, auto&& fn) {
        const auto t0 = std::chrono::steady_clock::now();
        rt::parallel_index(pool, count, fn);
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
      };
      std::vector<Recording> recs(shards);
      record_ms = phase_ms(shards, [&](size_t i) {
        recs[i] = engine().record_stream(progs[i], popt.trace, popt.padded,
                                         popt.align_words,
                                         static_cast<uint32_t>(i));
      });
      replay_ms = phase_ms(2 * shards, [&](size_t i) {
        walks[i] = simulate(recs[i % shards].graph,
                            i < shards ? SchedKind::kPws : SchedKind::kSeq,
                            popt.sim);
      });
    }
    const double barrier_ms = record_ms + replay_ms;
    const std::vector<Metrics> mains(walks.begin(), walks.begin() + shards);

    const BatchReport piped = engine().run_batch(progs, popt);
    RO_CHECK_MSG(piped.pipelined, "pipelined batch must set the report flag");
    RO_CHECK_MSG(piped.runs.size() == shards, "pipelined batch lost shards");
    for (size_t i = 0; i < shards; ++i) {
      RO_CHECK_MSG(piped.runs[i].sim == walks[i],
                   "pipelined shard replay diverged from the barrier run");
      RO_CHECK_MSG(piped.runs[i].q_seq == walks[shards + i].cache_misses(),
                   "pipelined shard baseline diverged from the barrier run");
    }
    RO_CHECK_MSG(piped.aggregate.sim == merge_shard_metrics(mains),
                 "pipelined aggregate diverged from the barrier run");
    // Write-behind spilling reaches every sealed record exactly once, so
    // the pipelined byte counts are deterministic — and still >= 4x.
    RO_CHECK_MSG(piped.aggregate.trace_spilled_bytes ==
                     piped.aggregate.graph.accesses * sizeof(Access),
                 "write-behind spill must cover the whole stream");
    RO_CHECK_MSG(4 * piped.aggregate.trace_compressed_bytes <=
                     piped.aggregate.trace_spilled_bytes,
                 "pipelined spill compressed below 4x; codec regressed");
    piped_wall_ms = piped.wall_ms;
    barrier_wall_ms = barrier_ms;

    Table pt("Record-while-replay pipelining (4-shard sort batch)");
    pt.header({"schedule", "record-ms", "replay-ms", "wall-ms", "speedup"});
    pt.row({"record-only", Table::num(record_ms), "-", "-", "-"});
    pt.row({"replay-only", "-", Table::num(replay_ms), "-", "-"});
    pt.row({"barrier", Table::num(record_ms), Table::num(replay_ms),
            Table::num(barrier_ms), "1.00x"});
    char sp[32];
    std::snprintf(sp, sizeof sp, "%.2fx",
                  piped.wall_ms > 0 ? barrier_ms / piped.wall_ms : 0.0);
    pt.row({"pipelined", Table::num(piped.record_ms),
            Table::num(piped.replay_ms), Table::num(piped.wall_ms), sp});
    pt.print();
    std::printf("(pipelined record/replay-ms are cumulative per-shard busy "
                "times; their sum exceeding wall-ms is the overlap)\n");

    // The JSON row for the CI gate: simulated metrics and spill byte
    // counts are deterministic under pipelining, the resident high-water
    // is not (it depends on record/replay interleaving) — zero it so the
    // exact gate only sees reproducible fields.
    RunReport agg = piped.aggregate;
    agg.label = "stream-pipelined";
    agg.trace_peak_resident_bytes = 0;
    reports.push_back(agg);
  }

  const std::string out = cli.get_str("out", "BENCH_stream.json");
  std::ofstream f(out);
  f << reports_to_json(reports);
  f.close();  // flushed before the schedule gate below may abort
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu RunReports to %s\n", reports.size(), out.c_str());
  // The schedule gate: overlap must not lose to the barrier schedule.
  // Small slack absorbs wall-clock noise on loaded CI runners.
  RO_CHECK_MSG(piped_wall_ms <= 1.10 * barrier_wall_ms + 20.0,
               "pipelined batch slower than the phase-barrier batch");
  return 0;
}
