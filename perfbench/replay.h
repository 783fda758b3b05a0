// The traced replay: plays a workload's farm run again through the
// public entry point of each layer, with spans recorded by the
// benchmark around every call, so that per-layer costs are measured
// from outside the program.
//
// The replay follows the farm's own order and inputs:
//  * the join / leave / failure sequence goes through
//    ShardedControlPlane::admit / release / take_renegotiations in the
//    order run_farm uses;
//  * every admitted segment (base placement, failover re-admission)
//    gets a StreamSession with its placement budget and budget epochs;
//  * which frames are encoded, skipped, dropped, delivered or lost --
//    and when -- is read from the farm's own per-frame records (fault
//    draws come from farm::FaultPlan there), and each session replays
//    its calls in the farm's event order.
//
// Its counts and per-frame outputs are then checked against the
// farm's: a replay that did different work than the farm reports a
// mismatch instead of numbers.
#pragma once

#include <string>
#include <vector>

#include "farm/simulator.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// One count the replay must reproduce exactly.
struct CountCheck {
  std::string name;
  long long farm = 0;
  long long replay = 0;
  bool ok() const { return farm == replay; }
};

struct ReplayOutcome {
  std::vector<CountCheck> counts;
  long long frames_compared = 0;
  long long frame_mismatches = 0;  ///< per-frame records that differ
  long long placement_mismatches = 0;
  long long decode_failures = 0;
  long long bits = 0;             ///< encoded bits, summed
  long long tables_compiled = 0;  ///< systems the replayed plane compiled
  double wall_s = 0.0;            ///< whole replay, shadows included
  bool ok() const;
};

/// Replays `farm` (the result of run_farm on `w`) into `spans`.
/// Supports what the named workloads use: abort-conceal overrun
/// policy, no C=D splits, no rebalancer, np / preemptive / quantum EDF
/// with at most one frame of a stream in service.
ReplayOutcome replay_farm(const Workload& w,
                          const qosctrl::farm::FarmResult& farm,
                          SpanRecorder* spans);

/// Compiles each distinct (macroblocks, budget) system the farm's
/// placements use on a fresh TableCache, one span per compile.
void replay_table_compiles(const qosctrl::farm::FarmResult& farm,
                           SpanRecorder* spans);

}  // namespace perfbench
