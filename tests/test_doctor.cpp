// ro-doctor subsystem tests: ContentionProfile determinism across host
// replay parallelism and streamed trace windows, AddressRemap apply/unmap
// round-trips over recorded addresses, the packed-counter closed loop
// (diagnose -> repair -> verified >= 2x transfer reduction), the padded
// control staying clean, DoctorReport JSON round-trips (escaped labels,
// golden bytes, hostile remap rules refused), and the RunReport
// forward-compat contract (unknown / missing fields default, never fail).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ro/core/remap.h"
#include "ro/doctor/doctor.h"
#include "ro/engine/engine.h"
#include "ro/engine/workloads.h"
#include "ro/sim/contention.h"
#include "golden.h"
#include "test_helpers.h"

namespace ro {
namespace {

using testing::engine;

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
  const Recording rec = engine().record(counters_program(8, 16, 1));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "rt");
  ASSERT_FALSE(d.plan.remap.empty());
  const AddressRemap& rm = d.plan.remap;
  size_t data = 0, moved = 0;
  for (const Access& a : testing::accesses_of(rec.graph)) {
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

TEST(AddressRemap, RulesErrorNamesEachViolation) {
  const RemapRule ok{/*src=*/0, /*len=*/32, /*dst=*/64, /*stride=*/32};
  EXPECT_EQ(remap_rules_error({}), nullptr);
  EXPECT_EQ(remap_rules_error({ok}), nullptr);
  RemapRule bad = ok;
  bad.len = 0;
  EXPECT_NE(remap_rules_error({bad}), nullptr);
  bad = ok;
  bad.stride = 0;
  EXPECT_NE(remap_rules_error({bad}), nullptr);
  bad = ok;
  bad.src = ~vaddr_t{0} - 23;  // wraps past 2^64 unless caught first
  EXPECT_NE(remap_rules_error({bad}), nullptr);
  bad = ok;
  bad.dst = shard_base(1);  // lands in another shard
  EXPECT_NE(remap_rules_error({bad}), nullptr);
  bad = ok;
  bad.src = 16;  // overlaps ok's source range
  bad.dst = 2048;
  EXPECT_NE(remap_rules_error({ok, bad}), nullptr);
  bad = ok;
  bad.src = 2048;  // same destination image as ok
  EXPECT_NE(remap_rules_error({ok, bad}), nullptr);
  bad = ok;
  bad.dst = 16;  // destination over its own source range
  EXPECT_NE(remap_rules_error({bad}), nullptr);
}

// ---- ContentionProfile determinism ----

TEST(ContentionProfile, PackedCountersAttribution) {
  const Recording rec = engine().record(counters_program(8, 16, 1));
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
  // A profiled two-shard batch runs its per-shard chains on 1 / 2 / 8 host
  // threads.  Both shards false-share heavily, so chains writing one
  // profile at once would race; each records into its own, merged into
  // the caller's in shard order after the barrier, so the attribution is
  // bit-identical every time — and equals the shard-order merge of each
  // recording's own profiled replay (the p=1 baselines record nothing).
  const std::vector<AnyProg> progs{counters_program(8, 512, 1),
                                   counters_program(8, 512, 2)};
  auto batch_profile = [&](uint32_t rt) {
    ContentionProfile prof;
    RunOptions opt;
    opt.backend = Backend::kSimPws;
    opt.sim = doctor_cfg(rt);
    opt.sim.profile = &prof;
    engine().run_batch(progs, opt);
    return prof;
  };
  const ContentionProfile base = batch_profile(1);
  ASSERT_FALSE(base.empty());
  for (const uint32_t rt : {2u, 8u}) {
    EXPECT_EQ(batch_profile(rt), base) << "replay_threads=" << rt;
  }

  ContentionProfile lone;
  for (uint32_t i = 0; i < progs.size(); ++i) {
    ContentionProfile prof;
    SimConfig cfg = doctor_cfg();
    cfg.profile = &prof;
    engine().replay(engine().record(progs[i], false, 4096, i),
                    Backend::kSimPws, cfg, false);
    lone.merge(prof);
  }
  EXPECT_EQ(lone, base);
}

TEST(ContentionProfile, PackedCountersMatchCommittedGolden) {
  // The profile, like Metrics, is exact: every recorded invalidation,
  // coherence miss and transfer on the packed-counter adversary (the
  // doctor's diagnostic input) is pinned by a committed golden, captured
  // while the flat cache plane was still checked against the node-based
  // reference LRU.
  const Recording rec = engine().record(counters_program(8, 16, 1));
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
    const Recording rec = engine().record(counters_program(8, 32, 1));
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
        engine().record_stream(counters_program(8, 32, 1), stream);
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
  const Recording rec = engine().record(counters_program(8, 64, 1));
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
  const Recording rec = engine().record(counters_program(8, 64, 32));
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
      engine().record(counters_program(8, 64, 1)), Backend::kSimPws,
      doctor_cfg(), {}, "packed");
  const doctor::DoctorReport padded = engine().diagnose(
      engine().record(counters_program(8, 64, 32)), Backend::kSimPws,
      doctor_cfg(), {}, "padded");
  ASSERT_TRUE(packed.has_after);
  EXPECT_EQ(packed.after.sim.block_misses(),
            padded.before.sim.block_misses());
  EXPECT_EQ(packed.after.sim.total_block_transfers,
            padded.before.sim.total_block_transfers);
}

// ---- JSON ----

TEST(Doctor, ReportJsonRoundTrips) {
  const Recording rec = engine().record(counters_program(8, 32, 1));
  // A label that needs escaping: quote, backslash, braces, control bytes.
  const std::string label = "json quo\"te\\slash}{\n\x01";
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, label);
  const std::string j = d.to_json();
  EXPECT_NE(j.find("\"label\":\"json quo\\\"te\\\\slash}{\\n\\u0001\""),
            std::string::npos)
      << j;
  doctor::DoctorReport back;
  ASSERT_TRUE(doctor::doctor_report_from_json(j, back));
  EXPECT_EQ(back.label, label);
  EXPECT_EQ(back.before.label, label);
  EXPECT_EQ(back.to_json(), j);
  EXPECT_EQ(back.findings, d.findings);
  EXPECT_EQ(back.plan, d.plan);
  EXPECT_EQ(back.has_after, d.has_after);

  doctor::DoctorReport junk;
  EXPECT_FALSE(doctor::doctor_report_from_json("not json", junk));
  EXPECT_FALSE(doctor::doctor_report_from_json("[1,2]", junk));
}

TEST(Doctor, ReportJsonBytesMatchGolden) {
  // Byte-for-byte the output of the doctor's former private writer, so
  // moving to util/flatjson.h changed nothing a client can see.
  const Recording rec = engine().record(counters_program(8, 4, 8));
  doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "golden");
  d.before.wall_ms = 0;
  d.after.wall_ms = 0;
  const std::string golden =
      "{\"label\":\"golden\",\"doctor_backend\":\"sim-pws\",\"p\":4,"
      "\"M\":4096,\"B\":32,\"findings\":[{\"line\":32,"
      "\"pattern\":\"false-sharing\",\"false_events\":2,\"true_events\":0,"
      "\"transfers\":2,\"coherence_misses\":0,\"tasks\":3,\"hot_words\":[8,"
      "16,24]},{\"line\":0,\"pattern\":\"false-sharing\",\"false_events\":1,"
      "\"true_events\":0,\"transfers\":1,\"coherence_misses\":0,\"tasks\":2,"
      "\"hot_words\":[16,24]}],\"plan\":{\"lines_padded\":2,"
      "\"predicted_avoided_events\":3,\"rules\":[{\"src\":0,\"len\":32,"
      "\"dst\":1088,\"stride\":32},{\"src\":32,\"len\":32,\"dst\":64,"
      "\"stride\":32}]},\"before\":{\"label\":\"golden\","
      "\"backend\":\"sim-pws\",\"wall_ms\":0.0000,\"work\":99,\"span\":23,"
      "\"max_depth\":3,\"activations\":15,\"accesses\":64,\"leaves\":8,"
      "\"p\":4,\"M\":4096,\"B\":32,\"makespan\":439,\"compute\":106,"
      "\"cache_misses\":11,\"block_misses\":1,\"stack_misses\":7,"
      "\"steals\":4,\"steal_attempts\":14,\"steal_cycles\":1344,"
      "\"usurpations\":4,\"idle\":960,\"l2_hits\":0,\"hold_waits\":0,"
      "\"total_block_transfers\":7,\"max_block_transfers\":2,"
      "\"stack_words\":85959,\"q_seq\":3,\"seq_makespan\":202,"
      "\"cache_excess\":8,\"sim_speedup\":0.4601,\"fs_false_events\":3,"
      "\"fs_true_events\":0,\"fs_hot_lines\":2},"
      "\"after\":{\"label\":\"golden:repaired\",\"backend\":\"sim-pws\","
      "\"wall_ms\":0.0000,\"work\":99,\"span\":23,\"max_depth\":3,"
      "\"activations\":15,\"accesses\":64,\"leaves\":8,\"p\":4,\"M\":4096,"
      "\"B\":32,\"makespan\":460,\"compute\":106,\"cache_misses\":16,"
      "\"block_misses\":1,\"stack_misses\":9,\"steals\":5,"
      "\"steal_attempts\":15,\"steal_cycles\":1440,\"usurpations\":4,"
      "\"idle\":960,\"l2_hits\":0,\"hold_waits\":0,"
      "\"total_block_transfers\":5,\"max_block_transfers\":2,"
      "\"stack_words\":102343,\"q_seq\":9,\"seq_makespan\":394,"
      "\"cache_excess\":7,\"sim_speedup\":0.8565}}";
  EXPECT_EQ(d.to_json(), golden);
}

TEST(Doctor, HostileRemapRulesAreRefusedNotAborted) {
  // Plan rules arrive over the wire; ones AddressRemap cannot hold make
  // the reply unparsable instead of killing the reading process.
  const Recording rec = engine().record(counters_program(8, 32, 1));
  JobResult jr;
  jr.kind = JobKind::kDiagnose;
  jr.has_doctor = true;
  jr.doctor =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "hostile");
  ASSERT_FALSE(jr.doctor.plan.remap.empty());
  // Swaps the plan's rules array for `rules`.
  const auto with_rules = [](std::string j, const char* rules) {
    const size_t r0 = j.find("\"rules\":[") + 9;
    j.replace(r0, j.find(']', r0) - r0, rules);
    return j;
  };
  const char* hostile[] = {
      "{\"src\":-24,\"len\":32,\"dst\":64,\"stride\":32}",
      "{\"src\":0,\"len\":32,\"dst\":64,\"stride\":32},"
      "{\"src\":16,\"len\":32,\"dst\":4096,\"stride\":32}",
      "{\"src\":0,\"len\":0,\"dst\":64,\"stride\":32}",
      "{\"src\":0,\"len\":32,\"dst\":64,\"stride\":0}",
  };
  JobResult back;
  doctor::DoctorReport d;
  ASSERT_TRUE(jobresult_from_json(jr.to_json(), back));
  ASSERT_TRUE(doctor::doctor_report_from_json(jr.doctor.to_json(), d));
  for (const char* bad : hostile) {
    EXPECT_FALSE(jobresult_from_json(with_rules(jr.to_json(), bad), back))
        << bad;
    EXPECT_FALSE(doctor::doctor_report_from_json(
        with_rules(jr.doctor.to_json(), bad), d))
        << bad;
  }
}

TEST(Report, ForwardCompatUnknownAndMissingFields) {
  const Recording rec = engine().record(counters_program(8, 32, 1));
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
