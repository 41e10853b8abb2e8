// E15b — replay data-plane micro-benchmarks (native, always built): LRU
// cache op rates, trace recording rate, and full-replay rates on the flat
// data plane.  These bound how large the experiment sweeps can go, and
// their rows feed BENCH_history.json so the --trend gate watches each one.
// Exactness is not this bench's job: tests/test_cachesim.cpp checks
// FlatLru op for op against a reference LRU, and the replay goldens in
// tests/ pin the Metrics.
//
// Four op patterns:
//
//   touch-hit   access() over a resident working set (pure hit path)
//   miss-evict  access() over a strided cold stream (every op evicts)
//   invalidate  access() + invalidate() pairs (coherence removal path)
//   mix         replay-shaped: hot-set hits, cold misses with eviction,
//               periodic invalidations (the touch_block op profile)
//
//   $ ./bench_sim_micro [--lines=256] [--ops=4194304] [--reps=3]
//                       [--n=32768] [--p=8] [--out=BENCH_sim_micro.json]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "ro/sim/cache.h"

using namespace ro;
using namespace ro::bench;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accumulates every access outcome so the optimizer cannot drop the loop.
struct Outcome {
  uint64_t sum = 0;
  void fold(const CacheAccess& r) {
    sum = sum * 3 + (r.hit ? 1 : 0) + (r.evicted ? 2 : 0) * (r.victim + 1);
  }
  void fold(bool b) { sum = sum * 3 + (b ? 1 : 0); }
};

/// One timed run of `ops` pattern steps against a fresh cache of `lines`
/// lines; returns wall ms.
template <class Pattern>
double run_pattern(uint32_t lines, uint64_t ops, Pattern&& step) {
  FlatLru c(lines);
  Outcome o;
  const double t0 = now_ms();
  for (uint64_t i = 0; i < ops; ++i) step(c, i, o);
  const double t1 = now_ms();
  volatile uint64_t sink = o.sum;
  (void)sink;
  return t1 - t0;
}

struct Row {
  std::string label;
  double ms = 0;
  uint64_t ops = 0;
  double mops() const { return ms > 0 ? ops / ms / 1e3 : 0; }
};

/// One pattern, min of `reps` timed passes after a warmup.
template <class Pattern>
Row time_pattern(const std::string& label, uint32_t lines, uint64_t ops,
                 int reps, Pattern&& step) {
  Row r;
  r.label = label;
  r.ops = ops;
  run_pattern(lines, ops, step);  // warmup (page-in, branch train)
  for (int i = 0; i < reps; ++i) {
    const double ms = run_pattern(lines, ops, step);
    r.ms = (i == 0 || ms < r.ms) ? ms : r.ms;
  }
  return r;
}

void json_row(std::string& s, const std::string& label,
              const std::string& backend, double wall_ms,
              double items_per_sec) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"label\": \"%s\", \"backend\": \"%s\", "
                "\"wall_ms\": %.3f, \"items_per_sec\": %.0f}",
                label.c_str(), backend.c_str(), wall_ms, items_per_sec);
  if (s.size() > 1) s += ",\n ";
  s += buf;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const uint32_t lines = static_cast<uint32_t>(cli.get_int("lines", 256));
  const uint64_t ops =
      static_cast<uint64_t>(cli.get_int("ops", int64_t{1} << 22));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 15));
  const uint32_t p = static_cast<uint32_t>(cli.get_int("p", 8));
  std::string json = "[";

  // ---- LRU op patterns ---------------------------------------------------
  std::vector<Row> rows;

  // Pure hit path: resident working set, every access touches.
  rows.push_back(time_pattern(
      "sim-lru-hit", lines, ops, reps, [&](auto& c, uint64_t i, Outcome& o) {
        o.fold(c.access(i % lines));
      }));

  // Every access a cold/capacity miss with an eviction once warm.
  rows.push_back(time_pattern("sim-lru-evict", lines, ops, reps,
                              [&](auto& c, uint64_t i, Outcome& o) {
                                o.fold(c.access(i));
                              }));

  // Coherence removal path: insert then invalidate, alternating.
  rows.push_back(time_pattern("sim-lru-inval", lines, ops, reps,
                              [&](auto& c, uint64_t i, Outcome& o) {
                                const uint64_t b = i / 2 % (2 * lines);
                                if ((i & 1) == 0) o.fold(c.access(b));
                                else o.fold(c.invalidate(b));
                              }));

  // Replay-shaped mix (the touch_block op profile): mostly hot-set hits, a
  // cold tail of evicting misses, periodic invalidations of hot blocks.
  // Deterministic Rng.
  {
    Rng rng(0xF1A7);
    std::vector<uint64_t> seq(ops);
    std::vector<uint8_t> kind(ops);
    const uint64_t hot = lines / 2, cold = uint64_t{lines} * 16;
    for (uint64_t i = 0; i < ops; ++i) {
      const uint64_t r = rng.next_below(100);
      if (r < 90) {
        seq[i] = rng.next_below(hot);  // hot hit
        kind[i] = 0;
      } else if (r < 98) {
        seq[i] = hot + rng.next_below(cold);  // cold miss -> evict
        kind[i] = 0;
      } else {
        seq[i] = rng.next_below(hot);  // invalidate a hot block
        kind[i] = 1;
      }
    }
    rows.push_back(time_pattern("sim-lru-mix", lines, ops, reps,
                                [&](auto& c, uint64_t i, Outcome& o) {
                                  if (kind[i] == 0) o.fold(c.access(seq[i]));
                                  else o.fold(c.invalidate(seq[i]));
                                }));
  }

  Table t("LRU data plane (" + std::to_string(lines) + " lines, " +
          std::to_string(ops) + " ops, min of " + std::to_string(reps) + ")");
  t.header({"pattern", "ms", "Mop/s"});
  for (const Row& r : rows) {
    t.row({r.label, Table::num(r.ms), Table::num(r.mops())});
    json_row(json, r.label, "flat", r.ms, r.ops / r.ms * 1e3);
  }
  t.print();

  // ---- trace recording rate --------------------------------------------
  // Min of `reps` recordings, like the replay rows: the steady-state rate
  // of a job path whose buffers are recycled, not the first recording's
  // page faults.
  {
    std::optional<TaskGraph> rec;
    double rec_ms = 0;
    for (int i = 0; i == 0 || i < reps; ++i) {
      rec.reset();  // the previous recording is released before timing
      const double t0 = now_ms();
      rec.emplace(rec_msum(n));
      const double f = now_ms() - t0;
      rec_ms = (i == 0 || f < rec_ms) ? f : rec_ms;
    }
    const TaskGraph& g = *rec;
    const uint64_t accs = g.acc_count();
    const double rate = accs / rec_ms * 1e3;
    std::printf("\nrecord: %llu accesses in %.2f ms, min of %d (%.2f Macc/s)\n",
                static_cast<unsigned long long>(accs), rec_ms, reps,
                rate / 1e6);
    json_row(json, "sim-record", "native", rec_ms, rate);

    // ---- full replay ----------------------------------------------------
    Table rt("Replay on the flat data plane");
    rt.header({"scheduler", "ms", "Macc/s"});
    struct Leg {
      const char* label;
      SchedKind kind;
      uint32_t p;
    };
    for (const Leg& leg : {Leg{"sim-replay-seq", SchedKind::kSeq, 1},
                           Leg{"sim-replay-pws", SchedKind::kPws, p}}) {
      const SimConfig c = cfg(leg.p, 1 << 12, 32);
      double ms = 0;
      for (int i = 0; i < reps; ++i) {
        const double t1 = now_ms();
        simulate(g, leg.kind, c);
        const double f = now_ms() - t1;
        ms = (i == 0 || f < ms) ? f : ms;
      }
      const double rate = accs / ms * 1e3;
      rt.row({leg.label, Table::num(ms), Table::num(rate / 1e6)});
      json_row(json, leg.label, "flat", ms, rate);
    }
    rt.print();
  }

  json += "]\n";
  const std::string out = cli.get_str("out", "BENCH_sim_micro.json");
  std::ofstream f(out);
  f << json;
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote bench rows to %s\n", out.c_str());
  return 0;
}
