// Sharded record/replay pipeline tests: shard address disjointness at the
// context level, concurrent-vs-sequential recording equality, per-shard
// and aggregate exactness, parallel-replay metrics determinism
// (--replay-threads), and the Engine::run_batch BatchReport.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/route.h"
#include "ro/alg/scan.h"
#include "ro/alg/spms.h"
#include "ro/engine/engine.h"
#include "ro/rt/pool.h"
#include "ro/util/rng.h"
#include "golden.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;

// ---- the three trace families the acceptance criteria name ----

/// Sort-routed gather ("route"): two sorts + three BP scans per call.
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

SimConfig small_machine(uint32_t threads = 1) {
  SimConfig cfg;
  cfg.p = 4;
  cfg.M = 1 << 10;
  cfg.B = 16;
  cfg.replay_threads = threads;
  return cfg;
}

/// Structural equality of two recordings (addresses included).
void expect_same_trace(const TaskGraph& a, const TaskGraph& b) {
  EXPECT_EQ(a.acts, b.acts);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(testing::accesses_of(a), testing::accesses_of(b));
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(a.data_base, b.data_base);
  EXPECT_EQ(a.data_top, b.data_top);
}

TEST(ShardRecording, RecordsIntoItsOwnShard) {
  ShardedVSpace ssp(3);
  for (uint32_t s = 0; s < 3; ++s) {
    TraceCtx cx({}, ssp.shard(s));
    EXPECT_EQ(cx.shard(), s);
    auto a = cx.alloc<i64>(64, "a");
    EXPECT_EQ(shard_of(a.vbase()), s);
    EXPECT_EQ(shard_offset(a.vbase()), 0u);  // first allocation of the shard
    EXPECT_EQ(ssp.region_of(a.vbase()), "a");
  }
  // Standalone flavour: same addresses as the shared-space flavour.
  TraceCtx::Options opt;
  opt.shard = 2;
  TraceCtx lone(opt);
  auto b = lone.alloc<i64>(8, "b");
  EXPECT_EQ(shard_of(b.vbase()), 2u);
  EXPECT_EQ(b.vbase(), shard_base(2));
}

TEST(ShardRecording, ShardChoiceOnlyOffsetsAddresses) {
  // The same program recorded in shard 0 and shard 5 must differ *only* by
  // the shard base in global addresses — structure, frame offsets, and
  // (rebased) replay metrics all identical.
  const size_t n = 512;
  auto prog = prog_route(n);
  Engine& eng = testing::engine();
  const Recording r0 = eng.record(prog);
  const Recording r5 = eng.record(prog, false, 4096, /*shard=*/5);
  const std::vector<Access> acc0 = testing::accesses_of(r0.graph);
  const std::vector<Access> acc5 = testing::accesses_of(r5.graph);
  ASSERT_EQ(acc0.size(), acc5.size());
  EXPECT_EQ(r0.graph.acts, r5.graph.acts);
  const vaddr_t base5 = shard_base(5);
  EXPECT_EQ(r5.graph.data_base, base5);
  for (size_t i = 0; i < acc0.size(); ++i) {
    const Access& a0 = acc0[i];
    const Access& a5 = acc5[i];
    if (a0.act == kNoAct) {
      EXPECT_EQ(a5.addr, a0.addr + base5);
    } else {
      EXPECT_EQ(a5.addr, a0.addr);  // frame offsets are shard-agnostic
    }
  }
  const SimConfig cfg = small_machine();
  EXPECT_EQ(simulate(r0.graph, SchedKind::kPws, cfg),
            simulate(r5.graph, SchedKind::kPws, cfg));
}

TEST(Batch, ConcurrentRecordingMatchesSequential) {
  // Four shards recording concurrently must produce the same traces as
  // recording them one after another.
  const size_t n = 256;
  const uint32_t kShards = 4;
  auto record_all = [&](bool concurrent) {
    ShardedVSpace ssp(kShards);
    std::vector<TaskGraph> graphs(kShards);
    auto rec_one = [&](size_t i) {
      TraceCtx cx({}, ssp.shard(static_cast<uint32_t>(i)));
      auto a = cx.alloc<i64>(n, "a");
      for (size_t j = 0; j < n; ++j)
        a.raw()[j] = static_cast<i64>((j * (i + 3)) % 97);
      auto o = cx.alloc<i64>(n, "o");
      graphs[i] =
          cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), o.slice()); });
    };
    if (concurrent) {
      rt::Pool pool(4, rt::StealPolicy::kRandom);
      rt::parallel_index(pool, kShards, rec_one);
    } else {
      for (size_t i = 0; i < kShards; ++i) rec_one(i);
    }
    return graphs;
  };
  const std::vector<TaskGraph> seq = record_all(false);
  const std::vector<TaskGraph> par = record_all(true);
  for (uint32_t i = 0; i < kShards; ++i) {
    expect_same_trace(par[i], seq[i]);
    EXPECT_EQ(shard_of(seq[i].data_base), i);
  }
}

TEST(Batch, BatchReplayEqualsStandaloneReplays) {
  // A batch must give, per shard, exactly the metrics of replaying each
  // recording on its own machine, and its aggregate must be their
  // shard-order merge — the sharded accounting is exact, not approximate.
  const size_t n = 192;
  Engine& eng = testing::engine();
  std::vector<TaskGraph> parts;
  parts.push_back(eng.record(prog_route(n), false, 4096, 0).graph);
  parts.push_back(eng.record(prog_listrank(n), false, 4096, 1).graph);
  parts.push_back(eng.record(prog_spms(4 * n), false, 4096, 2).graph);
  const SimConfig cfg = small_machine();
  std::vector<Metrics> lone;
  for (const TaskGraph& g : parts) {
    lone.push_back(simulate(g, SchedKind::kPws, cfg));
  }

  std::vector<std::function<void(detail::EngineCtx<TraceCtx>&)>> progs;
  progs.emplace_back(prog_route(n));
  progs.emplace_back(prog_listrank(n));
  progs.emplace_back(prog_spms(4 * n));
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.sim = cfg;
  const BatchReport br = testing::engine().run_batch(progs, opt);
  ASSERT_EQ(br.runs.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(br.runs[i].sim, lone[i]) << "shard " << i;
  }
  EXPECT_EQ(br.aggregate.sim, merge_shard_metrics(lone));
}

TEST(Batch, ReplayThreadsAreMetricsDeterministic) {
  // The acceptance criterion: --replay-threads in {1, 2, 8} yields
  // bit-identical Metrics on route / listrank / SPMS traces, one machine
  // per shard and one capacity-shared machine, under both PWS and
  // (seeded) RWS.
  const size_t n = 160;
  Engine& eng = testing::engine();
  std::vector<TaskGraph> parts;
  parts.push_back(eng.record(prog_route(n), false, 4096, 0).graph);
  parts.push_back(eng.record(prog_listrank(n), false, 4096, 1).graph);
  parts.push_back(eng.record(prog_spms(4 * n), false, 4096, 2).graph);

  for (const SchedKind kind : {SchedKind::kPws, SchedKind::kRws}) {
    for (const TaskGraph& g : parts) {  // single-shard traces
      const Metrics base = simulate(g, kind, small_machine(1));
      for (const uint32_t t : {2u, 8u}) {
        EXPECT_EQ(simulate(g, kind, small_machine(t)), base)
            << sched_name(kind) << " threads=" << t;
      }
    }
    std::vector<TenantShare> base_shares;
    const Metrics base =
        simulate_shared(parts, kind, small_machine(1), &base_shares);
    for (const uint32_t t : {2u, 8u}) {
      std::vector<TenantShare> shares;
      EXPECT_EQ(simulate_shared(parts, kind, small_machine(t), &shares), base)
          << "shared " << sched_name(kind) << " threads=" << t;
      EXPECT_EQ(shares, base_shares);
    }
  }
}

TEST(Batch, ReplayMetricsMatchCommittedGoldens) {
  // Replay is exact, so the Metrics of every workload and scheduler are
  // committed goldens: plain machines, a host thread count of 2 (same
  // rows as plain), and machines exercising the §5.1 write-hold and the
  // §5.2 partitioned-L2 paths, whose discrete cache-op order the flat
  // cache plane must keep.  The rows were captured while the flat plane
  // was still checked bit for bit against the node-based reference LRU.
  const size_t n = 160;
  Engine& eng = testing::engine();
  std::vector<TaskGraph> parts;
  parts.push_back(eng.record(prog_route(n), false, 4096, 0).graph);
  parts.push_back(eng.record(prog_listrank(n), false, 4096, 1).graph);
  parts.push_back(eng.record(prog_spms(4 * n), false, 4096, 2).graph);
  const char* const part_names[] = {"route", "listrank", "spms"};

  std::vector<std::pair<const char*, SimConfig>> machines;
  machines.emplace_back("plain", small_machine(1));
  machines.emplace_back("threads2", small_machine(2));
  SimConfig hold = small_machine(1);
  hold.write_hold = 24;
  machines.emplace_back("write_hold", hold);
  SimConfig l2 = small_machine(1);
  l2.M2 = l2.M * 4;
  machines.emplace_back("l2", l2);

  testing::GoldenTable golden({
      {"route/SEQ/plain", 15955, 102, 0, 0, 0xb0f5f9f287790f7full},
      {"listrank/SEQ/plain", 354100, 2600, 0, 0, 0x96739ed7c391304aull},
      {"spms/SEQ/plain", 28027, 294, 0, 0, 0xc0a2137fd6f5cb7cull},
      {"route/SEQ/threads2", 15955, 102, 0, 0, 0xb0f5f9f287790f7full},
      {"listrank/SEQ/threads2", 354100, 2600, 0, 0, 0x96739ed7c391304aull},
      {"spms/SEQ/threads2", 28027, 294, 0, 0, 0xc0a2137fd6f5cb7cull},
      {"route/SEQ/write_hold", 15955, 102, 0, 0, 0xb0f5f9f287790f7full},
      {"listrank/SEQ/write_hold", 354100, 2600, 0, 0, 0x96739ed7c391304aull},
      {"spms/SEQ/write_hold", 28027, 294, 0, 0, 0xc0a2137fd6f5cb7cull},
      {"route/SEQ/l2", 15955, 102, 0, 0, 0xb0f5f9f287790f7full},
      {"listrank/SEQ/l2", 343684, 2618, 0, 0, 0x11665723d5f8a7a1ull},
      {"spms/SEQ/l2", 25987, 294, 0, 0, 0x079080bf59d4fee9ull},
      {"route/PWS/plain", 14071, 531, 166, 100, 0x989ad9eaa3d55342ull},
      {"listrank/PWS/plain", 425617, 15161, 6935, 3420, 0xeac3b3484b3d3701ull},
      {"spms/PWS/plain", 13755, 601, 63, 59, 0xefb30510e74da3b5ull},
      {"route/PWS/threads2", 14071, 531, 166, 100, 0x989ad9eaa3d55342ull},
      {"listrank/PWS/threads2", 425617, 15161, 6935, 3420, 0xeac3b3484b3d3701ull},
      {"spms/PWS/threads2", 13755, 601, 63, 59, 0xefb30510e74da3b5ull},
      {"route/PWS/write_hold", 13636, 539, 84, 104, 0x8dd7420706dbed7full},
      {"listrank/PWS/write_hold", 421267, 15275, 3896, 3470, 0x8abdb0c6be3ed742ull},
      {"spms/PWS/write_hold", 13960, 623, 43, 66, 0x73cd3c7a4ec2b7ceull},
      {"route/PWS/l2", 14071, 531, 166, 100, 0x989ad9eaa3d55342ull},
      {"listrank/PWS/l2", 431289, 15301, 7027, 3492, 0x4b2b26df49648e1bull},
      {"spms/PWS/l2", 13574, 600, 61, 57, 0xada233d726ed1902ull},
      {"route/RWS/plain", 12951, 458, 100, 71, 0x9d971ed446391f89ull},
      {"listrank/RWS/plain", 419645, 12970, 4332, 2567, 0xcd87fd1b94c33563ull},
      {"spms/RWS/plain", 14013, 609, 68, 53, 0x0b9c50e2864514afull},
      {"route/RWS/threads2", 12951, 458, 100, 71, 0x9d971ed446391f89ull},
      {"listrank/RWS/threads2", 419645, 12970, 4332, 2567, 0xcd87fd1b94c33563ull},
      {"spms/RWS/threads2", 14013, 609, 68, 53, 0x0b9c50e2864514afull},
      {"route/RWS/write_hold", 12062, 431, 51, 64, 0xd686aa89f3e09bf6ull},
      {"listrank/RWS/write_hold", 421721, 12888, 2681, 2564, 0x0c3fbe084ec5aa37ull},
      {"spms/RWS/write_hold", 15247, 621, 56, 67, 0x0bdad6989f397601ull},
      {"route/RWS/l2", 12951, 458, 100, 71, 0x9d971ed446391f89ull},
      {"listrank/RWS/l2", 420964, 12994, 4513, 2544, 0x27231a7037bbd218ull},
      {"spms/RWS/l2", 14682, 601, 70, 57, 0x6bd0ff44f2950941ull},
      {"merged/pws/plain", 425617, 16293, 7164, 3579, 0x2c5cd423744fb058ull},
      {"merged/pws/threads2", 425617, 16293, 7164, 3579, 0x2c5cd423744fb058ull},
      {"merged/pws/write_hold", 421267, 16437, 4023, 3640, 0x8b130a4a24301098ull},
      {"merged/pws/l2", 431289, 16432, 7254, 3649, 0x47003f2d1ae8d37full},
  });
  for (const SchedKind kind :
       {SchedKind::kSeq, SchedKind::kPws, SchedKind::kRws}) {
    for (const auto& [mname, mcfg] : machines) {
      for (size_t i = 0; i < parts.size(); ++i) {
        golden.check(testing::golden_of(
            std::string(part_names[i]) + "/" + sched_name(kind) + "/" + mname,
            simulate(parts[i], kind, mcfg)));
      }
    }
  }
  // The batch aggregate: each shard on its own machine, merged in shard
  // order.
  for (const auto& [mname, mcfg] : machines) {
    std::vector<Metrics> per;
    for (const TaskGraph& g : parts) {
      per.push_back(simulate(g, SchedKind::kPws, mcfg));
    }
    golden.check(testing::golden_of(std::string("merged/pws/") + mname,
                                    merge_shard_metrics(per)));
  }
}

TEST(Batch, RunBatchReportShape) {
  const size_t n = 128;
  std::vector<std::function<void(detail::EngineCtx<TraceCtx>&)>> progs;
  progs.emplace_back(prog_route(n));
  progs.emplace_back(prog_listrank(n));
  progs.emplace_back(prog_spms(2 * n));

  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "batch3";
  opt.sim = small_machine(2);
  const BatchReport br = testing::engine().run_batch(progs, opt);

  EXPECT_EQ(br.shards, 3u);
  ASSERT_EQ(br.runs.size(), 3u);
  EXPECT_EQ(br.runs[0].label, "batch3#0");
  EXPECT_EQ(br.runs[2].label, "batch3#2");
  uint64_t work = 0, misses = 0, q = 0;
  for (const RunReport& r : br.runs) {
    EXPECT_TRUE(r.has_graph);
    EXPECT_TRUE(r.has_sim);
    EXPECT_TRUE(r.has_baseline);
    EXPECT_GT(r.sim.makespan, 0u);
    work += r.graph.work;
    misses += r.sim.cache_misses();
    q += r.q_seq;
  }
  EXPECT_EQ(br.aggregate.graph.work, work);
  EXPECT_EQ(br.aggregate.sim.cache_misses(), misses);
  EXPECT_EQ(br.aggregate.q_seq, q);
  EXPECT_GE(br.wall_ms, 0.0);

  // Determinism across the host-thread knob, end to end through run_batch.
  RunOptions opt1 = opt;
  opt1.sim.replay_threads = 1;
  const BatchReport br1 = testing::engine().run_batch(progs, opt1);
  ASSERT_EQ(br1.runs.size(), br.runs.size());
  for (size_t i = 0; i < br.runs.size(); ++i) {
    EXPECT_EQ(br1.runs[i].sim, br.runs[i].sim) << i;
    EXPECT_EQ(br1.runs[i].q_seq, br.runs[i].q_seq) << i;
  }
  EXPECT_EQ(br1.aggregate.sim, br.aggregate.sim);

  // The nested JSON parses back row by row.
  const std::string j = br.to_json();
  EXPECT_NE(j.find("\"shards\":3"), std::string::npos) << j;
  EXPECT_NE(j.find("\"batch3#1\""), std::string::npos) << j;
}

TEST(Batch, RunBatchSeqBackend) {
  const size_t n = 96;
  std::vector<std::function<void(detail::EngineCtx<TraceCtx>&)>> progs(
      2, prog_listrank(n));
  RunOptions opt;
  opt.backend = Backend::kSeq;
  opt.sim = small_machine(2);
  const BatchReport br = testing::engine().run_batch(progs, opt);
  ASSERT_EQ(br.runs.size(), 2u);
  // Identical programs -> identical per-shard metrics, and the seq replay
  // is its own baseline.
  EXPECT_EQ(br.runs[0].sim, br.runs[1].sim);
  EXPECT_EQ(br.runs[0].p, 1u);
  EXPECT_EQ(br.runs[0].cache_excess, 0u);
  EXPECT_EQ(br.runs[0].q_seq, br.runs[0].sim.cache_misses());
}

}  // namespace
}  // namespace ro
