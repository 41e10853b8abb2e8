// Streaming trace pipeline tests: TraceStore segment encode/decode with
// adversarial seal boundaries, spill -> reload integrity, and the tentpole
// acceptance matrix — streaming replay bit-identical to the in-memory walk
// for route / listrank / SPMS x PWS / RWS x replay threads {1,2,8} x
// resident windows {1,2,unbounded}.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/route.h"
#include "ro/alg/scan.h"
#include "ro/alg/spms.h"
#include "ro/core/trace_codec.h"
#include "ro/core/trace_store.h"
#include "ro/engine/engine.h"
#include "ro/util/rng.h"
#include "golden.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;

Access rec(uint64_t i) {
  return Access{i * 3, i % 7 == 0 ? kNoAct : static_cast<uint32_t>(i % 5),
                static_cast<uint16_t>(1 + i % 4),
                static_cast<uint16_t>(i % 2)};
}

// ---- TraceStore segment encode/decode ----

TEST(TraceStore, SegmentBoundariesRoundTrip) {
  // Capacity 8 with a bounded window of 1: most segments live on disk by
  // the time they are read back.  257 records = 32 full segments + a
  // single-record trailing segment (the partial-seal adversarial case).
  TraceStore::Options opt;
  opt.segment_tasks = 8;
  opt.max_resident_segments = 1;
  TraceStore st(opt);
  const uint64_t n = 257;
  for (uint64_t i = 0; i < n; ++i) st.append(rec(i));
  st.seal();
  EXPECT_EQ(st.size(), n);
  EXPECT_EQ(st.segment_count(), (n + 7) / 8);

  // Sequential read-back sees every record bit-identically.
  TraceStore::Cursor cur(st);
  for (uint64_t i = 0; i < n; ++i) EXPECT_EQ(cur.at(i), rec(i)) << i;
  // Backwards scan re-loads spilled segments; contents still identical.
  TraceStore::Cursor back(st);
  for (uint64_t i = n; i-- > 0;) EXPECT_EQ(back.at(i), rec(i)) << i;

  const TraceStore::Stats s = st.stats();
  EXPECT_EQ(s.records, n);
  EXPECT_GT(s.spilled_bytes, 0u);
  EXPECT_GT(s.segment_loads, 0u);
  // Window (1) + one pinned segment per live cursor (2) + the open
  // segment: the resident high-water must stay a few segments, never the
  // whole trace.
  EXPECT_LE(s.peak_resident_bytes, 4 * opt.segment_tasks * sizeof(Access));
  EXPECT_LT(s.peak_resident_bytes, n * sizeof(Access));
}

TEST(TraceStore, SingleRecordSegments) {
  // Capacity 1: every record is its own trace segment — the degenerate
  // seal-per-append case.
  TraceStore::Options opt;
  opt.segment_tasks = 1;
  opt.max_resident_segments = 2;
  TraceStore st(opt);
  for (uint64_t i = 0; i < 9; ++i) st.append(rec(i));
  st.seal();
  EXPECT_EQ(st.segment_count(), 9u);
  TraceStore::Cursor cur(st);
  for (uint64_t i = 0; i < 9; ++i) EXPECT_EQ(cur.at(i), rec(i));
}

TEST(TraceStore, EmptyStoreSealsCleanly) {
  TraceStore st;
  st.seal();
  EXPECT_EQ(st.size(), 0u);
  EXPECT_EQ(st.segment_count(), 0u);
  EXPECT_EQ(st.stats().spilled_bytes, 0u);
}

TEST(TraceStore, UnboundedWindowNeverSpills) {
  TraceStore::Options opt;
  opt.segment_tasks = 4;
  opt.max_resident_segments = 0;  // unbounded
  TraceStore st(opt);
  for (uint64_t i = 0; i < 100; ++i) st.append(rec(i));
  st.seal();
  const TraceStore::Stats s = st.stats();
  EXPECT_EQ(s.spilled_bytes, 0u);
  EXPECT_EQ(s.segment_loads, 0u);
  TraceStore::Cursor cur(st);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(cur.at(i), rec(i));
}

// ---- trace codec: delta/varint round trips ----

void expect_codec_round_trip(const std::vector<Access>& recs,
                             const char* what) {
  std::vector<uint8_t> enc;
  const size_t bytes = encode_accesses(recs.data(), recs.size(), enc);
  ASSERT_EQ(bytes, enc.size()) << what;
  std::vector<Access> dec(recs.size());
  decode_accesses(enc.data(), enc.size(), dec.data(), dec.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    ASSERT_EQ(dec[i], recs[i]) << what << " record " << i;
  }
}

TEST(TraceCodec, AdversarialPatternsRoundTrip) {
  std::vector<std::pair<const char*, std::vector<Access>>> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"single", {Access{~uint64_t{0}, kNoAct, 0xFFFF, 0xFFFF}}});

  // Sequential run: the shape the codec is built for.
  std::vector<Access> seq;
  for (uint64_t i = 0; i < 300; ++i)
    seq.push_back(Access{1000 + 4 * i, 7, 4, 0});
  cases.push_back({"sequential", seq});

  // Descending addresses (negative deltas through zigzag).
  std::vector<Access> desc;
  for (uint64_t i = 0; i < 300; ++i)
    desc.push_back(Access{uint64_t{1} << 40, 7, 4, 0});
  for (uint64_t i = 0; i < 300; ++i) desc[i].addr -= 3 * i;
  cases.push_back({"descending", desc});

  // kNoAct <-> act alternation every record (the mapped-act delta path).
  std::vector<Access> alt;
  for (uint64_t i = 0; i < 200; ++i)
    alt.push_back(Access{i, i % 2 ? kNoAct : static_cast<uint32_t>(i),
                         static_cast<uint16_t>(i % 3), 1});
  cases.push_back({"act-alternation", alt});

  // Full-width extremes: max addr jumps, act near 2^32, len/flags edges.
  std::vector<Access> ext;
  ext.push_back(Access{0, 0, 0, 0});
  ext.push_back(Access{~uint64_t{0}, kNoAct - 1, 0xFFFF, 0xFFFF});
  ext.push_back(Access{0, kNoAct, 0, 0});
  ext.push_back(Access{~uint64_t{0} / 2, 1, 1, 2});
  ext.push_back(Access{~uint64_t{0} / 2 + 1, kNoAct - 1, 0xFFFF, 1});
  cases.push_back({"extremes", ext});

  // Random records: every field drawn independently.
  Rng rng(0xC0DEC);
  std::vector<Access> rnd;
  for (int i = 0; i < 1000; ++i) {
    rnd.push_back(Access{rng.next(), static_cast<uint32_t>(rng.next()),
                         static_cast<uint16_t>(rng.next()),
                         static_cast<uint16_t>(rng.next())});
  }
  cases.push_back({"random", rnd});

  for (const auto& [what, recs] : cases) expect_codec_round_trip(recs, what);
}

TEST(TraceCodec, SequentialRunsCostOneBytePerRecord) {
  std::vector<Access> recs;
  for (uint64_t i = 0; i < 4096; ++i)
    recs.push_back(Access{1 << 20 | (4 * i), 3, 4, 0});
  std::vector<uint8_t> enc;
  encode_accesses(recs.data(), recs.size(), enc);
  // First record pays for the initial deltas; every later one is a lone
  // header byte (16x under the 16-byte resident form).
  EXPECT_LE(enc.size(), recs.size() + 16);
  std::vector<Access> dec(recs.size());
  decode_accesses(enc.data(), enc.size(), dec.data(), dec.size());
  EXPECT_EQ(dec, recs);
}

TEST(TraceCodec, RandomRecordsStayBounded) {
  Rng rng(99);
  std::vector<Access> recs;
  for (int i = 0; i < 2000; ++i) {
    recs.push_back(Access{rng.next(), static_cast<uint32_t>(rng.next()),
                          static_cast<uint16_t>(rng.next()),
                          static_cast<uint16_t>(rng.next())});
  }
  std::vector<uint8_t> enc;
  encode_accesses(recs.data(), recs.size(), enc);
  // Worst case per record: header + 10-byte addr varint + 5-byte act +
  // 3-byte len + 3-byte flags.
  EXPECT_LE(enc.size(), recs.size() * 22);
  std::vector<Access> dec(recs.size());
  decode_accesses(enc.data(), enc.size(), dec.data(), dec.size());
  EXPECT_EQ(dec, recs);
}

TEST(TraceCodec, TruncatedBufferDies) {
  std::vector<Access> recs(8);
  for (uint64_t i = 0; i < 8; ++i) recs[i] = rec(i);
  std::vector<uint8_t> enc;
  encode_accesses(recs.data(), recs.size(), enc);
  std::vector<Access> dec(recs.size());
  EXPECT_DEATH(
      decode_accesses(enc.data(), enc.size() - 1, dec.data(), dec.size()),
      "trace codec");
  EXPECT_DEATH(decode_accesses(enc.data(), enc.size(), dec.data(), 7),
               "trace codec");
}

// ---- compressed spills ----

TEST(TraceStore, CompressedSpillRoundTripsRandomRecords) {
  TraceStore::Options opt;
  opt.segment_tasks = 32;
  opt.max_resident_segments = 1;
  TraceStore st(opt);
  Rng rng(0x51111);
  std::vector<Access> recs;
  for (int i = 0; i < 1000; ++i) {
    recs.push_back(Access{rng.next(), static_cast<uint32_t>(rng.next()),
                          static_cast<uint16_t>(rng.next()),
                          static_cast<uint16_t>(rng.next())});
    st.append(recs.back());
  }
  st.seal();
  TraceStore::Cursor cur(st);
  for (uint64_t i = 0; i < recs.size(); ++i)
    ASSERT_EQ(cur.at(i), recs[i]) << i;
  const TraceStore::Stats s = st.stats();
  EXPECT_GT(s.spilled_bytes, 0u);
  EXPECT_GT(s.compressed_bytes, 0u);
  // Even adversarial random records never inflate past the raw layout by
  // much; the regular traces below shrink hard.
  EXPECT_LE(s.compressed_bytes, s.spilled_bytes + s.spilled_bytes / 2);
}

TEST(TraceStore, SequentialishTraceCompressesAtLeastFourX) {
  TraceStore::Options opt;
  opt.segment_tasks = 512;
  opt.max_resident_segments = 1;
  TraceStore st(opt);
  // The shape real recordings have: sequential address runs, an act
  // change every few dozen records, near-constant len/flags.
  uint64_t addr = 1 << 16;
  for (uint64_t i = 0; i < 8192; ++i) {
    addr += 1 + i % 3;
    st.append(Access{addr, static_cast<uint32_t>(i / 48),
                     static_cast<uint16_t>(1 + i % 2),
                     static_cast<uint16_t>(i % 5 == 0)});
  }
  st.seal();
  const TraceStore::Stats s = st.stats();
  ASSERT_GT(s.spilled_bytes, 0u);
  EXPECT_LE(4 * s.compressed_bytes, s.spilled_bytes)
      << "ratio " << double(s.spilled_bytes) / double(s.compressed_bytes);
  TraceStore::Cursor cur(st);
  addr = 1 << 16;
  for (uint64_t i = 0; i < 8192; ++i) {
    addr += 1 + i % 3;
    ASSERT_EQ(cur.at(i),
              (Access{addr, static_cast<uint32_t>(i / 48),
                      static_cast<uint16_t>(1 + i % 2),
                      static_cast<uint16_t>(i % 5 == 0)}))
        << i;
  }
}

TEST(TraceStore, RawModeSpillsSixteenBytesPerRecord) {
  TraceStore::Options opt;
  opt.segment_tasks = 16;
  opt.max_resident_segments = 1;
  opt.compress = false;
  TraceStore st(opt);
  const uint64_t n = 200;
  for (uint64_t i = 0; i < n; ++i) st.append(rec(i));
  st.seal();
  const TraceStore::Stats s = st.stats();
  EXPECT_GT(s.spilled_bytes, 0u);
  EXPECT_EQ(s.compressed_bytes, s.spilled_bytes);  // raw: physical == raw
  TraceStore::Cursor cur(st);
  for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(cur.at(i), rec(i)) << i;
}

// ---- the sealed-segment watermark and write-behind spilling ----

TEST(TraceStore, ReaderConsumesSealedSegmentsWhileRecording) {
  TraceStore::Options opt;
  opt.segment_tasks = 16;
  opt.max_resident_segments = 2;
  TraceStore st(opt);
  const uint64_t n = 1024;  // 64 exact segments
  std::thread writer([&] {
    for (uint64_t i = 0; i < n; ++i) {
      st.append(rec(i));
      if (i % 128 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    st.seal();
  });
  // Cursor faults block on the watermark until the recorder seals the
  // requested segment — the record-while-replay handoff.
  TraceStore::Cursor cur(st);
  for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(cur.at(i), rec(i)) << i;
  writer.join();
  EXPECT_EQ(st.sealed_segment_count(), n / opt.segment_tasks);
  EXPECT_TRUE(st.sealed());
}

TEST(TraceStore, AsyncSpillWritesEverySealedSegment) {
  TraceStore::Options opt;
  opt.segment_tasks = 8;
  opt.max_resident_segments = 2;
  opt.async_spill = true;
  const uint64_t n = 100;  // 12 full segments + a 4-record tail
  auto fill = [&] {
    TraceStore st(opt);
    for (uint64_t i = 0; i < n; ++i) st.append(rec(i));
    st.seal();
    TraceStore::Cursor cur(st);
    for (uint64_t i = 0; i < n; ++i) EXPECT_EQ(cur.at(i), rec(i)) << i;
    return st.stats();
  };
  const TraceStore::Stats s = fill();
  // Write-behind: every sealed record reaches disk exactly once, so the
  // byte counts are deterministic despite the background worker...
  EXPECT_EQ(s.spilled_bytes, n * sizeof(Access));
  EXPECT_GT(s.compressed_bytes, 0u);
  EXPECT_LT(s.compressed_bytes, s.spilled_bytes);
  EXPECT_EQ(s.sealed_segments, (n + opt.segment_tasks - 1) / opt.segment_tasks);
  // ...run to run.
  const TraceStore::Stats t = fill();
  EXPECT_EQ(t.spilled_bytes, s.spilled_bytes);
  EXPECT_EQ(t.compressed_bytes, s.compressed_bytes);
}

// ---- streamed recording vs the in-memory recording ----

/// The three trace families of the acceptance criteria.
auto prog_route(size_t n) {
  return [n](auto& cx) {
    auto idx = cx.template alloc<i64>(n, "idx");
    auto val = cx.template alloc<i64>(n, "val");
    Rng rng(n * 31 + 5);
    for (size_t i = 0; i < n; ++i) {
      idx.raw()[i] = static_cast<i64>(rng.next_below(n));
      val.raw()[i] = static_cast<i64>(rng.next_below(1000));
    }
    auto out = cx.template alloc<i64>(n, "out");
    cx.run(2 * n, [&] {
      alg::gather(cx, alg::StridedView{idx.slice()},
                  alg::StridedView{val.slice()},
                  alg::StridedView{out.slice()}, n);
    });
  };
}

auto prog_listrank(size_t n) {
  const auto succ = alg::random_list(n, n * 7 + 3);
  return [n, succ](auto& cx) {
    auto s = cx.template alloc<i64>(n, "succ");
    std::copy(succ.begin(), succ.end(), s.raw());
    auto r = cx.template alloc<i64>(n, "rank");
    cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
  };
}

auto prog_spms(size_t n) {
  return [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n + 17);
    for (size_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next() >> 1);
    auto o = cx.template alloc<i64>(n, "o");
    cx.run(2 * n, [&] { alg::spms(cx, a.slice(), o.slice()); });
  };
}

StreamOptions tiny_stream(uint32_t window) {
  StreamOptions s;
  s.segment_tasks = 64;  // many seals: task segments straddle constantly
  s.max_resident_segments = window;
  return s;
}

TEST(StreamRecord, MatchesInMemoryRecording) {
  const size_t n = 256;
  Engine& eng = testing::engine();
  const Recording mem = eng.record(prog_route(n));
  const Recording str = eng.record_stream(prog_route(n), tiny_stream(1));

  // Both recordings are stores: the default one never spills, the
  // one-segment window spills every sealed segment but the last.
  ASSERT_NE(mem.graph.store, nullptr);
  ASSERT_NE(str.graph.store, nullptr);
  EXPECT_EQ(mem.graph.store->stats().spilled_bytes, 0u);
  EXPECT_GT(str.graph.store->stats().spilled_bytes, 0u);
  // Identical skeleton...
  EXPECT_EQ(str.graph.acts, mem.graph.acts);
  EXPECT_EQ(str.graph.segments, mem.graph.segments);
  EXPECT_EQ(str.graph.root, mem.graph.root);
  EXPECT_EQ(str.graph.data_base, mem.graph.data_base);
  EXPECT_EQ(str.graph.data_top, mem.graph.data_top);
  // ...identical stream (spilled and reloaded, record by record)...
  ASSERT_EQ(str.graph.acc_count(), mem.graph.acc_count());
  TraceStore::Cursor rd(*str.graph.store), mem_rd(*mem.graph.store);
  for (uint64_t i = 0; i < mem.graph.acc_count(); ++i) {
    ASSERT_EQ(rd.at(i), mem_rd.at(i)) << "access " << i;
  }
  // ...identical analysis.
  EXPECT_EQ(str.stats.work, mem.stats.work);
  EXPECT_EQ(str.stats.span, mem.stats.span);
  EXPECT_EQ(str.stats.accesses, mem.stats.accesses);
  EXPECT_EQ(str.stats.leaves, mem.stats.leaves);
}

TEST(StreamRecord, EmptyAndForkOnlySegmentsSurviveSeals) {
  // A deep fork tree with one access per leaf and capacity 1 exercises
  // fork segments with empty access runs landing exactly on seal
  // boundaries.
  Engine& eng = testing::engine();
  auto prog = [](auto& cx) {
    auto a = cx.template alloc<i64>(16, "a");
    cx.run(16, [&] { alg::prefix_sums(cx, a.slice().first(8),
                                      a.slice().drop(8)); });
  };
  StreamOptions s;
  s.segment_tasks = 1;
  s.max_resident_segments = 1;
  const Recording mem = eng.record(prog);
  const Recording str = eng.record_stream(prog, s);
  EXPECT_EQ(str.graph.acts, mem.graph.acts);
  EXPECT_EQ(str.graph.segments, mem.graph.segments);
  EXPECT_EQ(testing::accesses_of(str.graph), testing::accesses_of(mem.graph));
}

// ---- the acceptance matrix: bit-identical streaming replay ----

SimConfig stream_machine(uint32_t threads) {
  SimConfig cfg;
  cfg.p = 4;
  cfg.M = 1 << 10;
  cfg.B = 16;
  cfg.replay_threads = threads;
  return cfg;
}

TEST(StreamReplay, BitIdenticalAcrossWindowsAndThreads) {
  const size_t n = 160;
  Engine& eng = testing::engine();
  struct Family {
    const char* name;
    std::function<void(detail::EngineCtx<TraceCtx>&)> prog;
  };
  std::vector<Family> fams;
  fams.push_back({"route", prog_route(n)});
  fams.push_back({"listrank", prog_listrank(n)});
  fams.push_back({"spms", prog_spms(4 * n)});

  for (const Family& f : fams) {
    const Recording mem = eng.record(f.prog);
    for (const SchedKind kind : {SchedKind::kPws, SchedKind::kRws}) {
      const Metrics base = simulate(mem.graph, kind, stream_machine(1));
      for (const uint32_t window : {1u, 2u, 0u}) {  // 0 = unbounded
        const Recording str =
            eng.record_stream(f.prog, tiny_stream(window));
        for (const uint32_t threads : {1u, 2u, 8u}) {
          EXPECT_EQ(simulate(str.graph, kind, stream_machine(threads)), base)
              << f.name << " " << sched_name(kind) << " window=" << window
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(StreamReplay, StreamedTracesMatchCommittedGoldens) {
  // The same trace through the chunked TraceStore at resident windows
  // 1 / unbounded replays to committed goldens (captured while the flat
  // cache plane was still checked against the node-based reference LRU):
  // the cursors feed the cache the identical access sequence either way.
  const size_t n = 160;
  Engine& eng = testing::engine();
  const auto prog = prog_route(n);
  testing::GoldenTable golden({
      {"route/PWS/window1", 14071, 531, 166, 100, 0x989ad9eaa3d55342ull},
      {"route/RWS/window1", 12951, 458, 100, 71, 0x9d971ed446391f89ull},
      {"route/PWS/window0", 14071, 531, 166, 100, 0x989ad9eaa3d55342ull},
      {"route/RWS/window0", 12951, 458, 100, 71, 0x9d971ed446391f89ull},
  });
  for (const uint32_t window : {1u, 0u}) {
    const Recording str = eng.record_stream(prog, tiny_stream(window));
    for (const SchedKind kind : {SchedKind::kPws, SchedKind::kRws}) {
      golden.check(testing::golden_of(
          std::string("route/") + sched_name(kind) + "/window" +
              std::to_string(window),
          simulate(str.graph, kind, stream_machine(2))));
    }
  }
}

TEST(StreamReplay, MergedBatchMatchesInMemoryBatch) {
  const size_t n = 128;
  std::vector<std::function<void(detail::EngineCtx<TraceCtx>&)>> progs;
  progs.emplace_back(prog_route(n));
  progs.emplace_back(prog_listrank(n));
  progs.emplace_back(prog_spms(2 * n));

  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "stream-batch";
  opt.sim = stream_machine(2);
  const BatchReport mem = testing::engine().run_batch(progs, opt);

  RunOptions sopt = opt;
  sopt.trace = tiny_stream(2);
  const BatchReport str = testing::engine().run_batch(progs, sopt);

  ASSERT_EQ(str.runs.size(), mem.runs.size());
  for (size_t i = 0; i < mem.runs.size(); ++i) {
    EXPECT_EQ(str.runs[i].sim, mem.runs[i].sim) << "shard " << i;
    EXPECT_EQ(str.runs[i].q_seq, mem.runs[i].q_seq) << "shard " << i;
    EXPECT_TRUE(str.runs[i].has_stream);
    EXPECT_GT(str.runs[i].trace_segments, 0u);
  }
  EXPECT_EQ(str.aggregate.sim, mem.aggregate.sim);
  EXPECT_TRUE(str.aggregate.has_stream);
  EXPECT_GT(str.aggregate.trace_spilled_bytes, 0u);
  EXPECT_FALSE(mem.aggregate.has_stream);
}

// ---- record-while-replay pipelining (RunOptions::pipeline) ----

TEST(Pipeline, EngineRunMatchesSerial) {
  const size_t n = 512;
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "pipe-run";
  opt.sim = stream_machine(2);
  opt.trace = tiny_stream(2);
  const RunReport serial = testing::engine().run(prog_spms(n), opt);

  RunOptions popt = opt;
  popt.pipeline = true;
  const RunReport piped = testing::engine().run(prog_spms(n), popt);

  // Pipelining is a scheduling change only: every observable of the
  // simulated machine and the recorded graph is bit-identical.
  EXPECT_EQ(piped.sim, serial.sim);
  EXPECT_EQ(piped.q_seq, serial.q_seq);
  EXPECT_EQ(piped.graph.work, serial.graph.work);
  EXPECT_EQ(piped.graph.span, serial.graph.span);
  EXPECT_EQ(piped.graph.accesses, serial.graph.accesses);
  EXPECT_EQ(piped.trace_segments, serial.trace_segments);
  // Write-behind spilling puts every sealed record on disk — a
  // deterministic count, unlike the serial LRU's eviction subset.
  ASSERT_TRUE(piped.has_stream);
  EXPECT_EQ(piped.trace_spilled_bytes,
            piped.graph.accesses * sizeof(Access));
  EXPECT_GT(piped.trace_compressed_bytes, 0u);
  EXPECT_LT(piped.trace_compressed_bytes, piped.trace_spilled_bytes);
}

TEST(Pipeline, BatchBitIdenticalAcrossKindsAndThreads) {
  const size_t n = 128;
  std::vector<std::function<void(detail::EngineCtx<TraceCtx>&)>> progs;
  progs.emplace_back(prog_route(n));
  progs.emplace_back(prog_listrank(n));
  progs.emplace_back(prog_spms(2 * n));

  for (const Backend backend : {Backend::kSimPws, Backend::kSimRws}) {
    RunOptions opt;
    opt.backend = backend;
    opt.label = "pipe-batch";
    opt.sim = stream_machine(1);
    opt.trace = tiny_stream(2);
    const BatchReport serial = testing::engine().run_batch(progs, opt);
    ASSERT_FALSE(serial.pipelined);

    for (const uint32_t threads : {1u, 2u, 8u}) {
      RunOptions popt = opt;
      popt.pipeline = true;
      popt.sim.replay_threads = threads;
      const BatchReport piped = testing::engine().run_batch(progs, popt);
      const std::string what =
          std::string(backend == Backend::kSimPws ? "pws" : "rws") +
          " threads=" + std::to_string(threads);
      EXPECT_TRUE(piped.pipelined) << what;
      ASSERT_EQ(piped.runs.size(), serial.runs.size()) << what;
      for (size_t i = 0; i < serial.runs.size(); ++i) {
        EXPECT_EQ(piped.runs[i].sim, serial.runs[i].sim)
            << what << " shard " << i;
        EXPECT_EQ(piped.runs[i].q_seq, serial.runs[i].q_seq)
            << what << " shard " << i;
        EXPECT_EQ(piped.runs[i].graph.work, serial.runs[i].graph.work)
            << what << " shard " << i;
        EXPECT_EQ(piped.runs[i].graph.accesses,
                  serial.runs[i].graph.accesses)
            << what << " shard " << i;
      }
      EXPECT_EQ(piped.aggregate.sim, serial.aggregate.sim) << what;
      EXPECT_EQ(piped.aggregate.q_seq, serial.aggregate.q_seq) << what;
      EXPECT_EQ(piped.aggregate.graph.work, serial.aggregate.graph.work)
          << what;
      // Deterministic write-behind byte counts, independent of thread
      // interleaving.
      ASSERT_TRUE(piped.aggregate.has_stream) << what;
      EXPECT_EQ(piped.aggregate.trace_spilled_bytes,
                piped.aggregate.graph.accesses * sizeof(Access))
          << what;
      EXPECT_GT(piped.aggregate.trace_compressed_bytes, 0u) << what;
      EXPECT_LE(2 * piped.aggregate.trace_compressed_bytes,
                piped.aggregate.trace_spilled_bytes)
          << what;
      // Both settings run the same chains and report builder: every row's
      // JSON is equal once the host time and the byte counts that async
      // write-behind changes (every sealed segment spills) are masked.
      auto masked = [](RunReport r) {
        r.wall_ms = 0;
        r.trace_spilled_bytes = 0;
        r.trace_compressed_bytes = 0;
        r.trace_peak_resident_bytes = 0;
        return r.to_json();
      };
      for (size_t i = 0; i < serial.runs.size(); ++i) {
        EXPECT_EQ(masked(piped.runs[i]), masked(serial.runs[i]))
            << what << " shard " << i;
      }
      EXPECT_EQ(masked(piped.aggregate), masked(serial.aggregate)) << what;
    }
  }
}

TEST(Pipeline, BatchWithoutTraceStoreStillMatches) {
  // pipeline=true without chunking options (each shard records into a
  // default store that never spills): the per-shard chains still run,
  // just without spill write-behind.
  const size_t n = 96;
  std::vector<std::function<void(detail::EngineCtx<TraceCtx>&)>> progs;
  progs.emplace_back(prog_route(n));
  progs.emplace_back(prog_listrank(n));

  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "pipe-mem";
  opt.sim = stream_machine(2);
  const BatchReport serial = testing::engine().run_batch(progs, opt);
  RunOptions popt = opt;
  popt.pipeline = true;
  const BatchReport piped = testing::engine().run_batch(progs, popt);
  ASSERT_EQ(piped.runs.size(), serial.runs.size());
  for (size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(piped.runs[i].sim, serial.runs[i].sim) << "shard " << i;
    EXPECT_EQ(piped.runs[i].q_seq, serial.runs[i].q_seq) << "shard " << i;
  }
  EXPECT_EQ(piped.aggregate.sim, serial.aggregate.sim);
  EXPECT_FALSE(piped.aggregate.has_stream);
}

/// A batch row's store counters (segments, spilled, compressed and peak
/// resident bytes), with its p=1 baseline's q_seq in the digest slot.
testing::Golden store_golden_of(const std::string& name, const RunReport& r) {
  return testing::Golden{name, r.trace_segments, r.trace_spilled_bytes,
                         r.trace_compressed_bytes, r.trace_peak_resident_bytes,
                         r.q_seq};
}

TEST(Pipeline, UnpipelinedBatchRowsMatchCommittedGoldens) {
  // A pipeline=false batch runs the per-shard chains with the caller's
  // StreamOptions (synchronous LRU spilling, no write-behind).  Every
  // row's and the aggregate's Metrics, q_seq and store byte counts are
  // committed goldens, captured at replay_threads=1 when such batches
  // still recorded every shard, merged the graphs and then replayed them:
  // the chains reproduce that schedule exactly, on any thread count.
  const size_t n = 128;
  std::vector<std::function<void(detail::EngineCtx<TraceCtx>&)>> progs;
  progs.emplace_back(prog_route(n));
  progs.emplace_back(prog_listrank(n));
  progs.emplace_back(prog_spms(2 * n));
  const std::vector<testing::Golden> rows{
      {"pws/shard0", 10577, 386, 104, 79, 0x1c8e37af99b9be6dull},
      {"pws/shard0/store", 86, 87200, 17841, 6144, 0x0000000000000051ull},
      {"pws/shard1", 323949, 11307, 5310, 2671, 0xd60663fbd309f59aull},
      {"pws/shard1/store", 1729, 1770128, 418491, 6144, 0x000000000000074bull},
      {"pws/shard2", 4414, 183, 22, 24, 0x81dddbb24a4291cbull},
      {"pws/shard2/store", 58, 58688, 13479, 5120, 0x0000000000000046ull},
      {"pws/aggregate", 323949, 11876, 5436, 2774, 0x4dd7f40e7d38299cull},
      {"pws/aggregate/store", 1873, 1916016, 449811, 17408, 0x00000000000007e2ull},
      {"rws/shard0", 12273, 397, 62, 80, 0x0b924f09616144acull},
      {"rws/shard0/store", 86, 87200, 17841, 5120, 0x0000000000000051ull},
      {"rws/shard1", 318323, 9673, 3090, 2001, 0xd4383a7fcd44cac0ull},
      {"rws/shard1/store", 1729, 1770128, 418491, 6144, 0x000000000000074bull},
      {"rws/shard2", 4851, 192, 18, 23, 0x0b1bcac1a127892bull},
      {"rws/shard2/store", 58, 58688, 13479, 5120, 0x0000000000000046ull},
      {"rws/aggregate", 318323, 10262, 3170, 2104, 0x2fc0a07595068f23ull},
      {"rws/aggregate/store", 1873, 1916016, 449811, 16384, 0x00000000000007e2ull},
  };
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("replay_threads=" + std::to_string(threads));
    testing::GoldenTable golden(rows);
    for (const Backend backend : {Backend::kSimPws, Backend::kSimRws}) {
      RunOptions opt;
      opt.backend = backend;
      opt.label = "batch";
      opt.sim = stream_machine(threads);
      opt.trace = tiny_stream(2);
      const BatchReport br = testing::engine().run_batch(progs, opt);
      ASSERT_FALSE(br.pipelined);
      const std::string b = backend == Backend::kSimPws ? "pws" : "rws";
      for (size_t i = 0; i < br.runs.size(); ++i) {
        const std::string row = b + "/shard" + std::to_string(i);
        golden.check(testing::golden_of(row, br.runs[i].sim));
        golden.check(store_golden_of(row + "/store", br.runs[i]));
      }
      golden.check(testing::golden_of(b + "/aggregate", br.aggregate.sim));
      golden.check(store_golden_of(b + "/aggregate/store", br.aggregate));
    }
  }
}

// ---- report plumbing ----

TEST(StreamReport, EngineRunReportsStoreStats) {
  const size_t n = 512;
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "stream";
  opt.sim = stream_machine(1);
  opt.trace = tiny_stream(1);
  const RunReport r = testing::engine().run(prog_route(n), opt);
  ASSERT_TRUE(r.has_stream);
  EXPECT_GT(r.trace_segments, 1u);
  EXPECT_GT(r.trace_spilled_bytes, 0u);
  EXPECT_GT(r.trace_compressed_bytes, 0u);
  EXPECT_LT(r.trace_compressed_bytes, r.trace_spilled_bytes);
  EXPECT_GT(r.trace_compression_ratio(), 1.0);
  EXPECT_GT(r.trace_peak_resident_bytes, 0u);
  // Bounded: window + open + a pin per simulated core and analysis pass,
  // in segments of segment_tasks records — far below the full trace.
  const uint64_t seg_bytes = opt.trace.segment_tasks * sizeof(Access);
  EXPECT_LE(r.trace_peak_resident_bytes,
            (uint64_t{opt.trace.max_resident_segments} + 8) * seg_bytes);
  EXPECT_LT(r.trace_peak_resident_bytes, r.graph.accesses * sizeof(Access));

  // The trace_* scalars survive the JSON round trip.
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"trace_segments\""), std::string::npos);
  RunReport back;
  ASSERT_TRUE(report_from_json(j, back));
  EXPECT_EQ(back.to_json(), j);
  EXPECT_EQ(back.trace_segments, r.trace_segments);
  EXPECT_EQ(back.trace_spilled_bytes, r.trace_spilled_bytes);
  EXPECT_EQ(back.trace_compressed_bytes, r.trace_compressed_bytes);
  EXPECT_EQ(back.trace_peak_resident_bytes, r.trace_peak_resident_bytes);
  EXPECT_EQ(back.trace_compression_ratio(), r.trace_compression_ratio());
}

}  // namespace
}  // namespace ro
