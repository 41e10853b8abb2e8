// ro-doctor subsystem tests: ContentionProfile determinism across host
// replay parallelism and streamed trace windows, AddressRemap apply/unmap
// round-trips over recorded addresses, the packed-counter closed loop
// (diagnose -> repair -> verified >= 2x transfer reduction), the padded
// control staying clean, DoctorReport JSON round-trips, and the RunReport
// forward-compat contract (unknown / missing fields default, never fail).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ro/alg/counters.h"
#include "ro/alg/scan.h"
#include "ro/core/remap.h"
#include "ro/doctor/doctor.h"
#include "ro/engine/engine.h"
#include "ro/sim/contention.h"
#include "ro/util/rng.h"
#include "golden.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;
using testing::engine;

auto prog_counters(uint32_t k, uint64_t iters, uint64_t stride) {
  return [=](auto& cx) {
    auto slots =
        cx.template alloc<i64>(alg::counter_words(k, stride), "counters");
    for (uint32_t c = 0; c < k; ++c) slots.raw()[c * stride] = 0;
    cx.run(uint64_t{k} * 2 * iters, [&] {
      alg::counter_stripes(cx, slots.slice(), k, iters, stride);
    });
  };
}

auto prog_msum(size_t n) {
  return [=](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n);
    for (size_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next_below(100));
    auto out = cx.template alloc<i64>(1, "out");
    cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice(), 1); });
  };
}

SimConfig doctor_cfg(uint32_t replay_threads = 1) {
  SimConfig cfg;
  cfg.p = 4;
  cfg.M = 1 << 12;
  cfg.B = 32;
  cfg.replay_threads = replay_threads;
  return cfg;
}

// ---- AddressRemap ----

TEST(AddressRemap, IdentityWhenEmpty) {
  AddressRemap rm;
  EXPECT_TRUE(rm.empty());
  EXPECT_EQ(rm.apply(0x1234), 0x1234u);
  vaddr_t back = 0;
  EXPECT_TRUE(rm.unmap(0x1234, &back));
  EXPECT_EQ(back, 0x1234u);
}

TEST(AddressRemap, PaddingRuleSpreadsWords) {
  // The doctor's canonical rule: one line of B=4 words fanned out at
  // stride 4 so each word lands in its own block.
  AddressRemap rm({RemapRule{/*src=*/8, /*len=*/4, /*dst=*/100,
                             /*stride=*/4}});
  EXPECT_EQ(rm.apply(8), 100u);
  EXPECT_EQ(rm.apply(9), 104u);
  EXPECT_EQ(rm.apply(11), 112u);
  EXPECT_EQ(rm.apply(7), 7u);    // below the rule: identity
  EXPECT_EQ(rm.apply(12), 12u);  // past the rule: identity

  // unmap inverts the image and rejects stride gaps (no recorded address
  // maps there) and mapped-away sources.
  vaddr_t back = 0;
  EXPECT_TRUE(rm.unmap(104, &back));
  EXPECT_EQ(back, 9u);
  EXPECT_FALSE(rm.unmap(101, &back));  // gap between images
  EXPECT_FALSE(rm.unmap(9, &back));    // source region vacated
  EXPECT_TRUE(rm.unmap(7, &back));
  EXPECT_EQ(back, 7u);
}

TEST(AddressRemap, RoundTripOverRecordedAddresses) {
  // The property the verify step rests on: remap then unmap is the
  // identity on every *recorded* data address of a real trace.
  const Recording rec = engine().record(prog_counters(8, 16, 1));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "rt");
  ASSERT_FALSE(d.plan.remap.empty());
  const AddressRemap& rm = d.plan.remap;
  size_t data = 0, moved = 0;
  for (const Access& a : rec.graph.accesses) {
    if (a.act != kNoAct) continue;  // frame slots are never remapped
    ++data;
    const vaddr_t to = rm.apply(a.addr);
    if (to != a.addr) ++moved;
    vaddr_t back = 0;
    ASSERT_TRUE(rm.unmap(to, &back)) << "addr " << a.addr;
    EXPECT_EQ(back, a.addr);
  }
  EXPECT_GT(data, 0u);
  EXPECT_GT(moved, 0u);  // the packed counter line really was relocated
}

// ---- ContentionProfile determinism ----

TEST(ContentionProfile, PackedCountersAttribution) {
  const Recording rec = engine().record(prog_counters(8, 16, 1));
  ContentionProfile prof;
  SimConfig cfg = doctor_cfg();
  cfg.profile = &prof;
  engine().replay(rec, Backend::kSimPws, cfg, /*seq_baseline=*/false);
  ASSERT_FALSE(prof.empty());
  EXPECT_GT(prof.false_events(), 0u);
  // Task-private counters: every invalidation is at distinct words.
  EXPECT_EQ(prof.true_events(), 0u);
  EXPECT_GE(prof.hot_lines(1), 1u);
}

TEST(ContentionProfile, DeterministicAcrossReplayThreads) {
  // A two-shard merged batch exercises the per-unit profile merge path:
  // the host walks shards (and their cores) on 1 / 2 / 8 threads, and the
  // merged attribution must be bit-identical every time.
  std::vector<TaskGraph> parts;
  parts.push_back(engine().record(prog_counters(8, 16, 1), false, 4096, 0)
                      .graph);
  parts.push_back(engine().record(prog_msum(512), false, 4096, 1).graph);
  const TaskGraph merged = merge_shards(std::move(parts));

  ContentionProfile base;
  {
    SimConfig cfg = doctor_cfg(1);
    cfg.profile = &base;
    engine().replay(merged, Backend::kSimPws, cfg, false);
  }
  ASSERT_FALSE(base.empty());
  for (const uint32_t rt : {2u, 8u}) {
    ContentionProfile prof;
    SimConfig cfg = doctor_cfg(rt);
    cfg.profile = &prof;
    engine().replay(merged, Backend::kSimPws, cfg, false);
    EXPECT_EQ(prof, base) << "replay_threads=" << rt;
  }
}

TEST(ContentionProfile, PackedCountersMatchCommittedGolden) {
  // The profile, like Metrics, is exact: every recorded invalidation,
  // coherence miss and transfer on the packed-counter adversary (the
  // doctor's diagnostic input) is pinned by a committed golden, captured
  // while the flat cache plane was still checked against the node-based
  // reference LRU.
  const Recording rec = engine().record(prog_counters(8, 16, 1));
  ContentionProfile prof;
  SimConfig cfg = doctor_cfg();
  cfg.profile = &prof;
  const RunReport r = engine().replay(rec, Backend::kSimPws, cfg, false);
  ASSERT_FALSE(prof.empty());
  testing::GoldenTable golden({
      {"counters8x16/pws/profile", 122, 0, 122, 1, 0x459f7e257b328531ull},
      {"counters8x16/pws/metrics", 1422, 12, 121, 6, 0x1fc9b7a5a901b5c4ull},
  });
  golden.check(testing::golden_of("counters8x16/pws/profile", prof));
  golden.check(testing::golden_of("counters8x16/pws/metrics", r.sim));
}

TEST(ContentionProfile, DeterministicAcrossStreamWindows) {
  // The same trace through the chunked TraceStore at resident windows
  // 1 / 2 / unbounded profiles identically to the in-memory walk.
  ContentionProfile mem;
  {
    const Recording rec = engine().record(prog_counters(8, 32, 1));
    SimConfig cfg = doctor_cfg();
    cfg.profile = &mem;
    engine().replay(rec, Backend::kSimPws, cfg, false);
  }
  ASSERT_FALSE(mem.empty());
  for (const uint32_t w : {1u, 2u, 0u}) {
    StreamOptions stream;
    stream.segment_tasks = 64;
    stream.max_resident_segments = w;
    const Recording rec =
        engine().record_stream(prog_counters(8, 32, 1), stream);
    ContentionProfile prof;
    SimConfig cfg = doctor_cfg();
    cfg.profile = &prof;
    engine().replay(rec, Backend::kSimPws, cfg, false);
    EXPECT_EQ(prof, mem) << "window=" << w;
  }
}

TEST(ContentionProfile, MergeSums) {
  ContentionProfile a, b;
  a.record_invalidation(64, 1, 10, 2, 11);
  b.record_invalidation(64, 1, 10, 2, 11);
  b.record_invalidation(64, 3, 12, 3, 13);  // same word: true sharing
  b.record_transfer(64, 1);
  a.merge(b);
  EXPECT_EQ(a.false_events(), 2u);
  EXPECT_EQ(a.true_events(), 1u);
  EXPECT_EQ(a.total_transfers(), 1u);
}

// ---- the closed loop ----

TEST(Doctor, PackedCountersRepairedAtLeastTwofold) {
  const Recording rec = engine().record(prog_counters(8, 64, 1));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "packed");

  ASSERT_FALSE(d.findings.empty());
  const doctor::LineFinding& top = d.findings[0];
  EXPECT_EQ(top.pattern, doctor::Pattern::kFalseSharing);
  EXPECT_EQ(top.true_events, 0u);
  EXPECT_GE(top.hot_words.size(), 2u);
  EXPECT_GE(top.tasks, 2u);

  ASSERT_TRUE(d.has_after);
  EXPECT_LE(2 * d.after_block_transfers(), d.before_block_transfers());
  EXPECT_LT(d.after.sim.block_misses(), d.before.sim.block_misses());
  // The repaired replay is the same computation on a better layout.
  EXPECT_EQ(d.after.sim.compute(), d.before.sim.compute());

  // Bit-exact repaired metrics at every host replay parallelism.
  for (const uint32_t rt : {2u, 8u}) {
    SimConfig cfg = doctor_cfg(rt);
    cfg.remap = &d.plan.remap;
    EXPECT_EQ(engine().replay(rec, Backend::kSimPws, cfg, false).sim,
              d.after.sim)
        << "replay_threads=" << rt;
  }
}

TEST(Doctor, PaddedControlDiagnosesClean) {
  const Recording rec = engine().record(prog_counters(8, 64, 32));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "padded");
  EXPECT_TRUE(d.findings.empty());
  EXPECT_TRUE(d.plan.remap.empty());
  EXPECT_FALSE(d.has_after);
  EXPECT_EQ(d.transfer_reduction(), 0.0);
}

TEST(Doctor, RepairReproducesPaddedLayout) {
  // The remap is gap.h's StrideLayout as a trace transformation: the
  // repaired packed run must show the padded run's coherence behaviour.
  const doctor::DoctorReport packed = engine().diagnose(
      engine().record(prog_counters(8, 64, 1)), Backend::kSimPws,
      doctor_cfg(), {}, "packed");
  const doctor::DoctorReport padded = engine().diagnose(
      engine().record(prog_counters(8, 64, 32)), Backend::kSimPws,
      doctor_cfg(), {}, "padded");
  ASSERT_TRUE(packed.has_after);
  EXPECT_EQ(packed.after.sim.block_misses(),
            padded.before.sim.block_misses());
  EXPECT_EQ(packed.after.sim.total_block_transfers,
            padded.before.sim.total_block_transfers);
}

// ---- JSON ----

TEST(Doctor, ReportJsonRoundTrips) {
  const Recording rec = engine().record(prog_counters(8, 32, 1));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "json");
  const std::string j = d.to_json();
  doctor::DoctorReport back;
  ASSERT_TRUE(doctor::doctor_report_from_json(j, back));
  EXPECT_EQ(back.to_json(), j);
  EXPECT_EQ(back.findings, d.findings);
  EXPECT_EQ(back.plan, d.plan);
  EXPECT_EQ(back.has_after, d.has_after);

  doctor::DoctorReport junk;
  EXPECT_FALSE(doctor::doctor_report_from_json("not json", junk));
  EXPECT_FALSE(doctor::doctor_report_from_json("[1,2]", junk));
}

TEST(Report, ForwardCompatUnknownAndMissingFields) {
  const Recording rec = engine().record(prog_counters(8, 32, 1));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "fc");
  ASSERT_TRUE(d.before.has_contention);
  std::string j = d.before.to_json();

  // A reader from before the fs_* fields existed: strip them and the
  // report still parses, defaulting the contention section off.
  std::string stripped = j;
  for (const char* key :
       {"\"fs_false_events\":", "\"fs_true_events\":", "\"fs_hot_lines\":"}) {
    const size_t at = stripped.find(key);
    ASSERT_NE(at, std::string::npos);
    const size_t end = stripped.find_first_of(",}", at);
    ASSERT_NE(end, std::string::npos);
    if (stripped[end] == ',') {
      stripped.erase(at, end - at + 1);
    } else {  // last field of the object: drop the preceding comma too
      ASSERT_EQ(stripped[at - 1], ',');
      stripped.erase(at - 1, end - at + 1);
    }
  }
  RunReport old;
  ASSERT_TRUE(report_from_json(stripped, old));
  EXPECT_FALSE(old.has_contention);
  EXPECT_EQ(old.fs_false_events, 0u);
  EXPECT_EQ(old.fs_hot_lines, 0u);
  // Everything else untouched (parsing reconstructs a synthetic core, so
  // compare the derived observables, not the core vectors).
  EXPECT_EQ(old.sim.makespan, d.before.sim.makespan);
  EXPECT_EQ(old.sim.cache_misses(), d.before.sim.cache_misses());
  EXPECT_EQ(old.sim.block_misses(), d.before.sim.block_misses());
  EXPECT_EQ(old.sim.total_block_transfers,
            d.before.sim.total_block_transfers);

  // A reader from *after* this schema: an unknown field is skipped, the
  // known ones still land.
  std::string extended = j;
  const size_t brace = extended.find('{');
  ASSERT_NE(brace, std::string::npos);
  extended.insert(brace + 1, "\"future_field\":123,\"future_str\":\"x\",");
  RunReport next;
  ASSERT_TRUE(report_from_json(extended, next));
  EXPECT_TRUE(next.has_contention);
  EXPECT_EQ(next.fs_false_events, d.before.fs_false_events);
  EXPECT_EQ(next.to_json(), j);
}

}  // namespace
}  // namespace ro
