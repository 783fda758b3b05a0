// The benchmark's named workloads.  Each is a pure function of
// (name, seed): the farm receives only the generated FarmScenario and
// FarmConfig.  README.md in this directory records why each exists.
#pragma once

#include <cstdint>
#include <string>

#include "farm/scenario.h"
#include "farm/simulator.h"

namespace perfbench {

struct Workload {
  std::string name;
  qosctrl::farm::FarmScenario scenario;
  qosctrl::farm::FarmConfig config;
};

/// Builds workload `name` ("steady-qcif", "faulted-qcif" or
/// "join-storm") from `seed` at 1 worker; false when the name is
/// unknown.
bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload* out);

/// Turns the observability sinks faulted-qcif uses (trace, 4 Mcycle
/// time-series windows, four SLOs) on or off in `config`.
void set_observability(qosctrl::farm::FarmConfig* config, bool on);

}  // namespace perfbench
