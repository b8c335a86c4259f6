// Per-layer probes: each layer's public entry point timed on inputs taken
// from a sample trial of the workload (frames captured with
// trace::CaptureTap under the workload's plan and seed), plus the
// construction costs of the objects a world is built from.
#pragma once

#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Runs every probe for `workload`; each value is the median of several
/// repetitions of a fixed amount of work.
std::vector<Metric> run_probes(const Workload& workload);

}  // namespace perfbench
