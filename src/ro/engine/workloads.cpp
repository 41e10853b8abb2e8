#include "ro/engine/workloads.h"

#include <algorithm>

#include "ro/alg/counters.h"
#include "ro/alg/scan.h"
#include "ro/util/rng.h"

namespace ro {

namespace {

using alg::i64;

AnyProg wl_msum(uint64_t n, uint64_t seed) {
  return [n, seed](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n + seed);
    for (uint64_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next_below(100));
    auto out = cx.template alloc<i64>(1, "out");
    cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice()); });
  };
}

AnyProg wl_ps(uint64_t n, uint64_t seed) {
  return [n, seed](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n + 1 + seed);
    for (uint64_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next_below(100));
    auto out = cx.template alloc<i64>(n, "out");
    cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), out.slice()); });
  };
}

/// n counters at `stride`, 16 increments each; the seed shifts nothing
/// here (the workload is access-pattern-only), but stays part of the key.
AnyProg wl_counters(uint64_t n, uint64_t stride) {
  return counters_program(static_cast<uint32_t>(std::max<uint64_t>(1, n)),
                          16, stride);
}

}  // namespace

AnyProg sort_program(uint64_t n, uint64_t seed, alg::SortKind kind,
                     const alg::SpmsTuning& spms) {
  return [n, seed, kind, spms](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n + 4 + seed);
    for (uint64_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next() >> 1);
    auto out = cx.template alloc<i64>(n, "out");
    cx.run(2 * n, [&] {
      alg::sort_by(cx, kind, a.slice(), out.slice(), 8, 1, spms);
    });
  };
}

AnyProg counters_program(uint32_t k, uint64_t iters, uint64_t stride) {
  return [k, iters, stride](auto& cx) {
    auto slots =
        cx.template alloc<i64>(alg::counter_words(k, stride), "counters");
    for (uint32_t c = 0; c < k; ++c) slots.raw()[c * stride] = 0;
    cx.run(uint64_t{k} * 2 * iters, [&] {
      alg::counter_stripes(cx, slots.slice(), k, iters, stride);
    });
  };
}

AnyProg make_workload(const std::string& name, uint64_t n, uint64_t seed,
                      const alg::SpmsTuning& spms) {
  if (name == "msum") return wl_msum(n, seed);
  if (name == "ps") return wl_ps(n, seed);
  if (name == "sort") return sort_program(n, seed, alg::SortKind::kMsort);
  if (name == "sort-spms")
    return sort_program(n, seed, alg::SortKind::kSpms, spms);
  if (name == "counters-packed") return wl_counters(n, 1);
  if (name == "counters-padded") return wl_counters(n, 64);
  return AnyProg{};
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "msum", "ps", "sort", "sort-spms", "counters-packed", "counters-padded"};
  return names;
}

}  // namespace ro
