#include "workloads.h"

#include <stdexcept>

#include "farm/load_gen.h"
#include "obs/slo.h"

namespace perfbench {

namespace farm = qosctrl::farm;
namespace rt = qosctrl::rt;

namespace {

/// 48 QCIF streams (176x144, the paper's 99-macroblock geometry) of
/// 10-20 frames at slow surveillance cameras, all table-controlled:
/// the fleet's mean quality level is then the controller's choice
/// alone, not the luck of how many constant-quality baselines a seed
/// draws.
farm::FarmScenario qcif_scenario(std::uint64_t seed) {
  farm::LoadGenConfig load;
  load.num_streams = 48;
  load.resolutions = {{176, 144}};
  load.resolution_weights = {1.0};
  load.period_factors = {4.0, 6.0, 8.0};
  load.min_frames = 10;
  load.max_frames = 20;
  load.constant_mode_fraction = 0.0;
  load.seed = seed;
  return farm::generate_scenario(load);
}

}  // namespace

void set_observability(farm::FarmConfig* config, bool on) {
  config->trace = on;
  config->ts_window = on ? 4000000 : 0;
  config->slos.clear();
  if (!on) return;
  for (const char* text :
       {"latency_p99<1.5w@20ms", "miss_rate<=0.5:controlled%0.2",
        "queue_p99<16", "recovery_latency<10w"}) {
    qosctrl::obs::SloSpec spec;
    std::string error;
    if (!qosctrl::obs::parse_slo(text, &spec, &error)) {
      throw std::runtime_error("bad SLO " + std::string(text) + ": " + error);
    }
    config->slos.push_back(std::move(spec));
  }
}

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload* out) {
  Workload w;
  w.name = name;
  w.config.workers = 1;
  w.config.seed = seed;
  if (name == "steady-qcif") {
    w.scenario = qcif_scenario(seed);
    w.config.num_processors = 32;
  } else if (name == "faulted-qcif") {
    w.scenario = qcif_scenario(seed);
    w.config.num_processors = 32;
    farm::FaultSpec& f = w.scenario.faults;
    f.overrun.probability = 0.2;
    f.overrun.factor = 3.0;
    f.overrun.policy = farm::OverrunPolicy::kAbortConceal;
    f.loss.probability = 0.1;
    // Both failures hit a loaded processor: the first arrival always
    // lands on processor 0 and the second on processor 1 (least
    // committed, lowest index), so the transient outage starts a third
    // into the second stream's life and the permanent failure half way
    // through the first's, between two of its arrivals.
    const farm::StreamSpec& first = w.scenario.streams[0];
    const farm::StreamSpec& second = w.scenario.streams[1];
    const rt::Cycles p0 = farm::period_of(first);
    const rt::Cycles p1 = farm::period_of(second);
    f.failures.push_back(farm::FailureEvent{
        1, second.join_time + p1 * (second.num_frames / 3), 300000000});
    f.failures.push_back(farm::FailureEvent{
        0, first.join_time + p0 * (first.num_frames / 2) + p0 / 2, 0});
    set_observability(&w.config, true);
  } else if (name == "join-storm") {
    farm::LoadGenConfig load;
    load.num_streams = 30000;
    load.resolutions = {{16, 16}, {32, 16}, {32, 32}, {48, 32}};
    load.resolution_weights = {0.4, 0.3, 0.2, 0.1};
    load.period_factors = {1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0};
    load.buffer_capacities = {1, 2, 3};
    load.min_frames = 1;
    load.max_frames = 2;
    load.mean_interarrival_periods = 0.002;
    load.seed = seed;
    w.scenario = farm::generate_scenario(load);
    w.scenario.sched.renegotiate = true;
    w.scenario.sched.restore = true;
    w.config.num_processors = 64;
    w.config.shards = 1;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
