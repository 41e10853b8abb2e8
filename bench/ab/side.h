// The interface between the A/B driver (main.cpp) and one build of the
// library (side.cpp).  side.cpp is compiled once per build with the
// library's namespace renamed on the command line, so this header must
// name nothing of the library: the driver sees each build only through
// Side.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace ab {

/// The timed calls, one per layer.
enum class Layer {
  kPws,     // simulate() under PWS of the recorded workload
  kRws,     // simulate() under RWS (default seed) of the same recording
  kSubmit,  // Engine::submit of a resident sim-pws run with its baseline
  kWire,    // to_json -> jobresult_from_json -> to_json of three results
};

struct Options {
  std::string workload = "ps";
  uint64_t n = uint64_t{1} << 13;
  uint32_t p = 4;
};

/// One build of the library, holding its own Engine and recording.
class Side {
 public:
  virtual ~Side() = default;
  /// Runs the layer's call once; returns a digest of its Metrics.
  virtual uint64_t run(Layer layer) = 0;
};

std::unique_ptr<Side> side_a(const Options& o);
std::unique_ptr<Side> side_b(const Options& o);

}  // namespace ab
