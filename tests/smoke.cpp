// End-to-end smoke: record M-Sum and prefix sums, simulate under all three
// schedulers, check outputs and basic invariants.
#include <cstdio>
#include <numeric>

#include "ro/alg/scan.h"
#include "ro/core/seq_ctx.h"
#include "ro/core/trace_ctx.h"
#include "ro/core/validate.h"
#include "test_helpers.h"

using namespace ro;
using namespace ro::alg;

int main() {
  const size_t n = 1 << 10;

  TraceCtx cx;
  auto a = cx.alloc<i64>(n, "A");
  for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(i % 97);
  auto out = cx.alloc<i64>(1, "out");
  auto ps = cx.alloc<i64>(n, "ps");

  TaskGraph g = cx.run(n, [&] {
    msum(cx, a.slice(), out.slice());
    prefix_sums(cx, a.slice(), ps.slice());
  });

  i64 expect = 0;
  for (size_t i = 0; i < n; ++i) expect += a.raw()[i];
  RO_CHECK(out.raw()[0] == expect);
  i64 run = 0;
  for (size_t i = 0; i < n; ++i) {
    run += a.raw()[i];
    RO_CHECK(ps.raw()[i] == run);
  }

  auto stats = g.analyze();
  std::printf("acts=%llu accesses=%llu work=%llu span=%llu depth=%u\n",
              (unsigned long long)stats.activations,
              (unsigned long long)stats.accesses,
              (unsigned long long)stats.work, (unsigned long long)stats.span,
              stats.max_depth);

  auto la = check_limited_access(g);
  std::printf("max_writes/loc=%u frame=%u\n", la.max_writes_per_location,
              la.max_frame_writes);
  RO_CHECK(la.max_writes_per_location <= 2);

  SimConfig cfg;
  cfg.p = 8;
  cfg.M = 1 << 12;
  cfg.B = 32;
  auto cmp = ro::testing::compare_schedulers(g, cfg);
  std::printf("SEQ: %s\n", cmp.seq.summary().c_str());
  std::printf("PWS: %s\n", cmp.pws.summary().c_str());
  std::printf("RWS: %s\n", cmp.rws.summary().c_str());
  RO_CHECK(cmp.seq.block_misses() == 0);
  RO_CHECK(cmp.pws.steals() > 0);
  std::printf("smoke OK\n");
  return 0;
}
