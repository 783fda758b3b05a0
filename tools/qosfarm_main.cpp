// qosfarm — encoder-farm simulator driver: `qosfarm run [options]`
// generates an offered load (or compiles a scenario preset) and plays
// it under admission control, optionally with injected faults, the
// schedule trace and the windowed time series scored against SLOs.
// `qosfarm --help` lists the flags; docs/cli.md is the reference.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli_util.h"
#include "farm/faults.h"
#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/presets.h"
#include "farm/simulator.h"
#include "obs/trace.h"

namespace {

using namespace qosctrl;

bool write_file(const char* path, const std::string& content) {
  return cli::write_file("qosfarm", path, content);
}

/// Comma subset of "overrun","loss"; enables each class at its default
/// strength unless an explicit probability already set one.
bool enable_fault_classes(const char* s, farm::FaultSpec* faults) {
  const std::vector<std::string> items = cli::split_commas(s);
  if (items.empty()) return false;
  for (const std::string& item : items) {
    if (item == "overrun") {
      if (faults->overrun.probability <= 0.0) {
        faults->overrun.probability = 0.2;
      }
    } else if (item == "loss") {
      if (faults->loss.probability <= 0.0) faults->loss.probability = 0.1;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  farm::LoadGenConfig load;
  farm::FarmConfig cfg;
  cfg.workers = 0;  // default: one per processor
  farm::SchedulingSpec sched;
  sched.policy.context_switch_cost = platform::kContextSwitchCycles;
  sched.policy.quantum = 1000000;  // 125 us at the paper's 8 GHz
  farm::FaultSpec faults;
  std::optional<farm::PresetKind> preset;
  int streams = -1;  // -1: the generator's or the preset's default
  const char* json_path = nullptr;
  const char* csv_path = nullptr;
  const char* trace_path = nullptr;
  bool quiet = false;
  bool slo_exit = false;

  const cli::Flags load_flags = {
      {"--procs", "N", "virtual processors (default 2)",
       cli::integer(&cfg.num_processors, 1)},
      {"--workers", "N", "data-plane threads (default: one per processor)",
       cli::integer(&cfg.workers)},
      {"--streams", "N", "offered streams (default 12, or the preset's)",
       cli::integer(&streams, 0)},
      {"--preset", "NAME",
       "diurnal, flash-crowd, churn-heavy or mixed-geometry",
       [&](const char* v, std::string*) {
         return farm::parse_preset_name(v, &preset.emplace());
       }},
      {"--frames", "LO[:HI]", "stream lifetimes in frames (default 8:24)",
       [&](const char* v, std::string*) {
         return cli::parse_frame_range(v, &load.min_frames, &load.max_frames);
       }},
      {"--period-factors", "A,B,...", "camera period factors (default 3,4,6)",
       cli::parsed(&load.period_factors, cli::parse_double_list)},
      {"--constant-frac", "F", "constant-quality share (default 0.15)",
       cli::fraction(&load.constant_mode_fraction)},
      {"--seed", "S", "scenario + farm seed (default 7)",
       [&](const char* v, std::string*) {
         if (!cli::parse_integer(v, &load.seed)) return false;
         cfg.seed = load.seed * 0x9e3779b9ULL + 1;
         return true;
       }},
      {"--shards", "S", "admission shards (default 1)",
       cli::integer(&cfg.shards, 1)},
      {"--probe-shards", "N", "shards probed after a rejection (default 1)",
       cli::integer(&cfg.probe_shards, 0)},
      {"--rebalance-watermark", "F", "rebalance below headroom F (0: off)",
       [&](const char* v, std::string*) {
         return cli::parse_fraction(v, &cfg.rebalance_watermark) &&
                cfg.rebalance_watermark < 1.0;
       }},
      {"--control-epoch", "C", "batch joins per C-cycle window (0: off)",
       cli::integer(&cfg.control_epoch, 0)},
      {"--policy", "P", "np (default), preemptive or quantum",
       cli::parsed(&sched.policy.kind, sched::parse_policy_name)},
  };
  const cli::Flags admission_flags = {
      {"--split", nullptr, "C=D semi-partitioning of unplaceable streams",
       cli::on(&sched.split)},
      {"--renegotiate", nullptr, "shrink running budgets to admit newcomers",
       cli::on(&sched.renegotiate)},
      {"--restore", nullptr, "grow shrunk budgets back as room frees",
       cli::on(&sched.restore)},
      {"--migration-cost", "C", "per-frame surcharge off the preferred CPU",
       cli::integer(&cfg.admission.migration_cost, 0)},
      {"--faults", "LIST", "fault classes at their defaults: overrun,loss",
       cli::parsed(&faults, enable_fault_classes)},
  };
  const cli::Flags fault_and_output_flags = {
      {"--overrun-factor", "X", "overrun demand multiplier (> 1, default 3)",
       [&](const char* v, std::string*) {
         return cli::parse_double(v, &faults.overrun.factor) &&
                faults.overrun.factor > 1.0;
       }},
      {"--overrun-strikes", "N", "policed overruns before quarantine",
       cli::integer(&faults.overrun.quarantine_strikes, 1)},
      {"--fail", "P@T[+R]", "halt processor P at cycle T (repeatable)",
       [&](const char* v, std::string*) {
         farm::FailureEvent ev;
         if (!cli::parse_failure(v, &ev)) return false;
         faults.failures.push_back(ev);
         return true;
       }},
      {"--json", "PATH", "write the JSON report", cli::text(&json_path)},
      {"--csv", "PATH", "write the per-stream CSV", cli::text(&csv_path)},
      {"--trace", "PATH", "write the Chrome trace", cli::text(&trace_path)},
      {"--trace-buf", "N", "trace events kept per processor (default 65536)",
       cli::integer(&cfg.trace_buffer_capacity, 1)},
  };
  const cli::Flags exit_flags = {
      {"--slo-exit", nullptr, "exit 3 unless every objective is met",
       cli::on(&slo_exit)},
      {"--quiet", nullptr, "no human-readable report", cli::on(&quiet)},
  };
  const cli::Cli cli("qosfarm", "run",
                     {load_flags, cli::policy_flags(&sched.policy),
                      admission_flags, cli::fault_flags(&faults),
                      fault_and_output_flags,
                      cli::series_flags(&cfg.ts_window, &cfg.slos),
                      exit_flags});
  if (const int status = cli.parse(argc, argv); status >= 0) return status;

  if (cfg.shards > cfg.num_processors) {
    return cli.fail("--shards %d exceeds --procs %d", cfg.shards,
                    cfg.num_processors);
  }
  // Failure targets can only be range-checked once --procs is known.
  for (const farm::FailureEvent& ev : faults.failures) {
    if (ev.processor >= cfg.num_processors) {
      return cli.fail("--fail processor %d out of range", ev.processor);
    }
  }
  if (const std::string error = cli::slo_window_error(cfg.ts_window, cfg.slos);
      !error.empty()) {
    return cli.fail("%s", error.c_str());
  }
  cfg.trace = trace_path != nullptr;
  if (cfg.workers <= 0) cfg.workers = cfg.num_processors;
  // run_farm clamps the same way; clamp here too so the report's
  // "(N workers)" matches what the measurement actually used.
  if (cfg.workers > cfg.num_processors) cfg.workers = cfg.num_processors;

  farm::FarmScenario scenario;
  if (preset) {
    farm::PresetParams pp;
    if (streams >= 0) pp.num_streams = streams;
    pp.seed = load.seed;
    scenario = farm::compile_preset(*preset, pp);
  } else {
    if (streams >= 0) load.num_streams = streams;
    scenario = farm::generate_scenario(load);
  }
  scenario.sched = sched;
  scenario.faults = faults;
  const auto t0 = std::chrono::steady_clock::now();
  const farm::FarmResult result = farm::run_farm(scenario, cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double frames_per_s =
      wall_s > 0.0 ? static_cast<double>(result.total_frames) / wall_s : 0.0;

  if (!quiet) {
    std::fputs(farm::summarize(result).c_str(), stdout);
    std::printf(
        "wall=%.3fs throughput=%.1f stream-frames/s (%d workers)\n",
        wall_s, frames_per_s, cfg.workers);
  }
  if (json_path && !write_file(json_path, farm::to_json(result))) return 1;
  if (csv_path && !write_file(csv_path, farm::to_csv(result))) return 1;
  if (trace_path &&
      !write_file(trace_path, obs::export_chrome_trace(
                                  result.trace, cfg.num_processors))) {
    return 1;
  }
  if (slo_exit && !result.slo.all_met()) {
    std::fprintf(stderr, "qosfarm: SLO not met (missed or no data)\n");
    return 3;
  }
  return 0;
}
