// The A/B driver behind bench/ab_compare.py: two builds of the library
// (A: a git revision, B: the working tree) in one process, timed on the
// same calls in alternating order.
//
//   ab_driver [--workload=ps] [--n=8192] [--p=4] [--rounds=30]
//             [--layers=pws,rws,submit,wire]
//
// Each side records the workload once.  Every layer then runs once on
// each side untimed, and the two digests (of Metrics, or of JSON bytes for
// the wire layer) must agree: otherwise
// the driver names the layer on stderr and exits 3 without timing
// anything.  Each round times every layer once per side, A first in even
// rounds and B first in odd ones, checks both digests again and prints
// one JSON line: {"round": r, "layer": "pws", "a_ms": ..., "b_ms": ...}.
// ab_compare.py turns the lines into per-layer ratios.  It is built
// twice: ab_driver_ba (AB_B_FIRST) links and constructs B before A.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "side.h"

namespace {

struct LayerName {
  ab::Layer layer;
  const char* name;
};
constexpr LayerName kLayers[] = {{ab::Layer::kPws, "pws"},
                                 {ab::Layer::kRws, "rws"},
                                 {ab::Layer::kSubmit, "submit"},
                                 {ab::Layer::kWire, "wire"}};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ab_driver: %s\nusage: ab_driver [--workload=W] [--n=N] "
               "[--p=P] [--rounds=R] [--layers=pws,rws,submit,wire]\n",
               why);
  std::exit(2);
}

std::vector<LayerName> parse_layers(const std::string& list) {
  std::vector<LayerName> out;
  size_t pos = 0;
  while (pos <= list.size()) {
    const size_t end = std::min(list.find(',', pos), list.size());
    const std::string name = list.substr(pos, end - pos);
    bool found = false;
    for (const LayerName& l : kLayers) {
      if (name == l.name) {
        out.push_back(l);
        found = true;
      }
    }
    if (!found) usage(("unknown layer \"" + name + "\"").c_str());
    pos = end + 1;
  }
  return out;
}

/// Host milliseconds of one call of `layer` on `side`; its digest must
/// equal `want`.
double timed(ab::Side& side, const LayerName& l, uint64_t want,
             const char* which) {
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t got = side.run(l.layer);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  if (got != want) {
    std::fprintf(stderr, "ab_driver: %s's %s digest changed between runs\n",
                 which, l.name);
    std::exit(3);
  }
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  ab::Options o;
  long rounds = 30;
  std::vector<LayerName> layers = parse_layers("pws,rws,submit,wire");
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) usage(arg);
    const std::string key(arg, eq);
    const char* val = eq + 1;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--n") {
      o.n = std::strtoull(val, nullptr, 10);
    } else if (key == "--p") {
      o.p = static_cast<uint32_t>(std::strtoul(val, nullptr, 10));
    } else if (key == "--rounds") {
      rounds = std::strtol(val, nullptr, 10);
    } else if (key == "--layers") {
      layers = parse_layers(val);
    } else {
      usage(arg);
    }
  }
  if (o.n == 0 || o.p < 1 || o.p > 64 || rounds < 1) {
    usage("need n >= 1, p in [1, 64] and rounds >= 1");
  }

#ifdef AB_B_FIRST
  const std::unique_ptr<ab::Side> b = ab::side_b(o);
  const std::unique_ptr<ab::Side> a = ab::side_a(o);
#else
  const std::unique_ptr<ab::Side> a = ab::side_a(o);
  const std::unique_ptr<ab::Side> b = ab::side_b(o);
#endif
  std::vector<uint64_t> digests;
  for (const LayerName& l : layers) {
    const uint64_t da = a->run(l.layer);
    const uint64_t db = b->run(l.layer);
    if (da != db) {
      std::fprintf(stderr,
                   "ab_driver: %s digests differ between A and B "
                   "(digest %016llx vs %016llx); no timing printed\n",
                   l.name, static_cast<unsigned long long>(da),
                   static_cast<unsigned long long>(db));
      return 3;
    }
    digests.push_back(da);
    std::printf("{\"layer\": \"%s\", \"digest\": \"%016llx\"}\n", l.name,
                static_cast<unsigned long long>(da));
  }
  for (long r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < layers.size(); ++i) {
      const LayerName& l = layers[i];
      double a_ms;
      double b_ms;
      if (r % 2 == 0) {
        a_ms = timed(*a, l, digests[i], "A");
        b_ms = timed(*b, l, digests[i], "B");
      } else {
        b_ms = timed(*b, l, digests[i], "B");
        a_ms = timed(*a, l, digests[i], "A");
      }
      std::printf(
          "{\"round\": %ld, \"layer\": \"%s\", \"a_ms\": %.6f, "
          "\"b_ms\": %.6f}\n",
          r, l.name, a_ms, b_ms);
    }
  }
  return 0;
}
