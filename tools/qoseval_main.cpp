// qoseval — quality-vs-deadline policy evaluation harness.
//
// Runs the same generated offered loads under every combination of
// quality policy (table-driven controller vs fixed-quality baseline),
// scheduling policy (np / preemptive / quantum EDF), and budget
// renegotiation (off / on, the restore pass included), then ranks the
// combinations on the quality / miss frontier (see
// src/quality/qoseval.h for the scoring).
//
// `qoseval --help` lists the flags; docs/cli.md is the reference.
#include <cstdio>
#include <string>
#include <vector>

#include "cli_util.h"
#include "farm/faults.h"
#include "farm/presets.h"
#include "obs/slo.h"
#include "quality/qoseval.h"

namespace {

using namespace qosctrl;

/// An axis over off / on / both.
bool parse_axis(const char* s, std::vector<bool>* out) {
  const std::string v = s;
  if (v == "off") {
    *out = {false};
  } else if (v == "on") {
    *out = {true};
  } else if (v == "both") {
    *out = {false, true};
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  quality::SweepConfig sweep;
  int streams = -1;  // -1: each scenario's default
  int min_frames = 4, max_frames = 8;
  std::vector<std::uint64_t> scenario_seeds;  // empty: the defaults
  std::vector<farm::PresetKind> presets;
  std::vector<sched::PolicyKind> kinds = {sched::PolicyKind::kNonPreemptiveEdf,
                                          sched::PolicyKind::kPreemptiveEdf,
                                          sched::PolicyKind::kQuantumEdf};
  sched::PolicyParams policy;
  policy.quantum = 1000000;
  policy.context_switch_cost = platform::kContextSwitchCycles;
  const char* csv_path = nullptr;
  bool quiet = false;
  // Reject an out-of-range baseline level loudly: admission would
  // reject every constant-policy stream and the sweep would silently
  // rank the controller against a vacuous baseline.
  const int num_levels =
      static_cast<int>(platform::figure5_quality_levels().size());
  int constant_q = 3;
  // Defaults for faulted cells; inert while the axis stays {false}.
  sweep.faults.overrun.probability = 0.2;
  sweep.faults.loss.probability = 0.1;

  const cli::Flags grid_flags = {
      {"--procs", "N", "virtual processors per farm (default 2)",
       cli::integer(&sweep.num_processors, 1)},
      {"--workers", "N", "threads over grid cells (default 1; same bytes)",
       cli::integer(&sweep.workers, 1)},
      {"--streams", "N", "offered streams per scenario (default 8)",
       cli::integer(&streams, 1)},
      {"--frames", "LO[:HI]", "stream lifetimes in frames (default 4:8)",
       [&](const char* v, std::string*) {
         return cli::parse_frame_range(v, &min_frames, &max_frames);
       }},
      {"--scenario-seeds", "A,B,...", "one scenario per seed (default 7,11,19)",
       cli::list(&scenario_seeds, [](const char* v, std::uint64_t* seed) {
         return cli::parse_integer(v, seed);
       })},
      {"--preset", "A,B,...", "preset scenarios (diurnal,flash-crowd,...)",
       cli::list(&presets, farm::parse_preset_name)},
      {"--shards", "S", "admission shards per farm (default 1)",
       cli::integer(&sweep.shards, 1)},
      {"--constant-q", "L", "the fixed-quality baseline's level (default 3)",
       cli::integer(&constant_q, 0, num_levels - 1)},
      {"--policies", "A,B,...", "subset of np,preemptive,quantum (default all)",
       cli::list(&kinds, sched::parse_policy_name)},
  };
  const cli::Flags axis_flags = {
      {"--reneg", "off|on|both", "renegotiation axis (default both)",
       cli::parsed(&sweep.renegotiate, parse_axis)},
      {"--faults", "off|on|both", "fault axis (default off)",
       cli::parsed(&sweep.fault_axis, parse_axis)},
  };
  const cli::Flags score_flags = {
      {"--latency-discount", "F", "start-lag tail weight (default 0.25)",
       cli::fraction(&sweep.latency_discount)},
      {"--split", nullptr, "C=D splitting in every cell",
       cli::on(&sweep.split)},
  };
  const cli::Flags output_flags = {
      {"--seed", "S", "farm seed of every cell (default 2026)",
       cli::integer(&sweep.farm_seed)},
      {"--csv", "PATH", "write the per-cell CSV", cli::text(&csv_path)},
      {"--quiet", nullptr, "no human-readable report", cli::on(&quiet)},
  };
  const cli::Cli cli("qoseval", "sweep",
                     {grid_flags, cli::policy_flags(&policy), axis_flags,
                      cli::fault_flags(&sweep.faults), score_flags,
                      cli::series_flags(&sweep.ts_window, &sweep.slos),
                      output_flags});
  if (const int status = cli.parse(argc, argv); status >= 0) return status;

  sweep.constant_quality = static_cast<rt::QualityLevel>(constant_q);

  if (sweep.shards > sweep.num_processors) {
    return cli.fail("--shards %d exceeds --procs %d", sweep.shards,
                    sweep.num_processors);
  }
  if (const std::string error =
          cli::slo_window_error(sweep.ts_window, sweep.slos);
      !error.empty()) {
    return cli.fail("%s", error.c_str());
  }

  // Scenario axis: presets replace the default seed scenarios; an
  // explicit --scenario-seeds keeps both on the axis.
  if (presets.empty() && scenario_seeds.empty()) scenario_seeds = {7, 11, 19};
  for (const std::uint64_t s : scenario_seeds) {
    farm::LoadGenConfig lg;
    lg.num_streams = streams < 0 ? 8 : streams;
    lg.min_frames = min_frames;
    lg.max_frames = max_frames;
    lg.seed = s;
    sweep.scenarios.push_back(lg);
    sweep.scenario_names.push_back("seed" + std::to_string(s));
  }
  for (const farm::PresetKind k : presets) {
    farm::PresetParams pp;
    if (streams >= 0) pp.num_streams = streams;
    sweep.preset_scenarios.push_back(farm::compile_preset(k, pp));
    sweep.scenario_names.push_back(farm::preset_name(k));
  }
  for (const sched::PolicyKind k : kinds) {
    policy.kind = k;
    sweep.sched_policies.push_back(policy);
  }

  const quality::SweepResult result = quality::run_sweep(sweep);
  if (!quiet) std::fputs(quality::summarize(result).c_str(), stdout);
  if (csv_path &&
      !cli::write_file("qoseval", csv_path, quality::to_csv(result))) {
    return 1;
  }
  return 0;
}
