// Pluggable per-processor scheduling classes for the encoder farm.
//
// A SchedPolicy bundles the two faces of one scheduling discipline:
//
//  * the admission test — one-processor schedulability of a committed
//    sporadic task set under that discipline's run-queue semantics
//    (farm::AdmissionController calls it for every placement
//    candidate);
//  * the run-queue semantics themselves — when a higher-priority
//    (earlier display deadline) arrival may displace the job in
//    service (farm's data plane consults it at every arrival).
//
// The two faces must agree: the admission test is only a guarantee if
// the data plane dispatches the way the test assumed.  Three
// disciplines are provided:
//
//   np         non-preemptive EDF: jobs run to completion; admission
//              pays the full blocking term (the farm's original
//              behavior, and the default).
//   preemptive fully preemptive EDF: every earlier-deadline arrival
//              preempts immediately; no blocking term, so tighter
//              mixes are admitted, at two context switches per
//              preemption.
//   quantum    quantum-sliced EDF: preemption waits for the next
//              multiple of a quantum from the running job's dispatch,
//              capping both preemption frequency and the blocking a
//              tight arrival can suffer.
#pragma once

#include <memory>
#include <vector>

#include "sched/np_edf.h"
#include "sched/preemptive_edf.h"

namespace qosctrl::sched {

enum class PolicyKind {
  kNonPreemptiveEdf,  ///< run to completion ("np")
  kPreemptiveEdf,     ///< preempt on every earlier-deadline arrival
  kQuantumEdf,        ///< preempt only at quantum boundaries
};

/// Short stable name ("np", "preemptive", "quantum") — used by the
/// CLI, the JSON/CSV reports, and the CI bench variants.
const char* policy_name(PolicyKind kind);

/// Inverse of policy_name; false (out untouched) on unknown names.
bool parse_policy_name(const char* name, PolicyKind* out);

struct PolicyParams {
  PolicyKind kind = PolicyKind::kNonPreemptiveEdf;
  /// Cycles one context switch costs.  The data plane charges it on
  /// every switch-out and switch-in; the admission test inflates the
  /// committed costs of preemption-capable tasks by 2x it
  /// (sched/preemptive_edf.h).  Ignored by kNonPreemptiveEdf, which
  /// never switches mid-job.
  rt::Cycles context_switch_cost = 0;
  /// kQuantumEdf only: preemption boundary spacing (> 0).
  rt::Cycles quantum = 0;
  /// How schedulable() evaluates the demand criterion.  kQpa is the
  /// production fast path; kExactScan keeps the original enumeration
  /// as the tests' and benches' reference.  Decisions are
  /// identical (sched/qpa.h).
  DemandAlgo demand_algo = DemandAlgo::kQpa;
};

/// preemption_point result meaning "this discipline never preempts".
inline constexpr rt::Cycles kNeverPreempts = rt::kNoDeadline;

class SchedPolicy {
 public:
  virtual ~SchedPolicy() = default;

  virtual PolicyKind kind() const = 0;
  const char* name() const { return policy_name(kind()); }

  /// Admission test: the committed task set is schedulable on one
  /// processor under this discipline (context-switch overhead
  /// included).  Sufficient, never optimistic.  The query carries the
  /// stats sink (the control-plane profiling hook behind the
  /// admission_* counters) and the QPA warm-start fields — see
  /// DemandQuery in sched/np_edf.h for the busy_seed contract.
  virtual bool schedulable(const std::vector<NpTask>& tasks,
                           const DemandQuery& query) const = 0;

  /// Convenience overload for callers without warm-start state.
  bool schedulable(const std::vector<NpTask>& tasks,
                   EdfScanStats* stats = nullptr) const {
    return schedulable(tasks, DemandQuery{stats, 0, nullptr});
  }

  /// Run-queue semantics: the earliest instant >= `now` at which the
  /// job whose current service segment started at `dispatched_at` may
  /// be preempted by a higher-priority arrival, or kNeverPreempts.
  virtual rt::Cycles preemption_point(rt::Cycles dispatched_at,
                                      rt::Cycles now) const = 0;

  rt::Cycles context_switch_cost() const {
    return params_.context_switch_cost;
  }
  const PolicyParams& params() const { return params_; }

 protected:
  explicit SchedPolicy(const PolicyParams& params) : params_(params) {}
  PolicyParams params_;
};

/// Builds the policy `params` describes.  Validates: quantum > 0 for
/// kQuantumEdf, context_switch_cost >= 0.
std::unique_ptr<SchedPolicy> make_policy(const PolicyParams& params);

}  // namespace qosctrl::sched
