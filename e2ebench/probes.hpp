// Per-layer probes for the traced run: each one times a single layer's
// public functions on H800 with the workloads' own inputs.  README.md maps
// every probe to the end-to-end metric it should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace hsim::e2e {

struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct ProbeReport {
  std::vector<LayerMetric> metrics;
  std::vector<std::string> failures;  // a probe call that returned an error
};

/// Runs every probe once, in layer order, under a "probe.<layer>" span.
[[nodiscard]] ProbeReport run_probes(std::uint64_t seed, SpanLog& log);

}  // namespace hsim::e2e
