// The per-processor scheduling policy of the encoder farm: one plain
// value (PolicyParams) that two functions read.
//
//  * schedulable() is the admission test: one-processor
//    schedulability of a committed sporadic task set under the
//    policy's run-queue semantics.  farm::AdmissionController calls it
//    for every placement candidate.
//  * preemption_point() is those run-queue semantics: when an
//    earlier-deadline arrival may displace the job in service.  The
//    farm's data plane (farm::ProcessorLoop) asks it while a
//    preemptor waits.
//
// The admission test is a guarantee only if the data plane dispatches
// the way the test assumed, so both read the same value.  Three
// policies, each an instance of the processor-demand criterion of
// sched/np_edf.h with its own blocking cap:
//
//   np         non-preemptive EDF: jobs run to completion; admission
//              pays the full blocking term (the default).
//   preemptive fully preemptive EDF: every earlier-deadline arrival
//              preempts at once; no blocking term, so the test is
//              exact (Baruah, Rosier & Howell 1990) and tighter mixes
//              are admitted, at two context switches per preemption.
//   quantum    quantum-sliced EDF: preemption waits for the next
//              multiple of a quantum from the running job's dispatch,
//              which caps both preemption frequency and the blocking
//              a tight arrival suffers at min(C_j, quantum).
//
// Preemption is not free: each costs two context switches, switching
// the preempted job out and later back in, and each is caused by one
// arriving job.  The charge counts preemptions.  A job can preempt
// (or, under quantum slicing, trigger a deferred preemption of) a
// running job only with a strictly earlier absolute deadline — the
// data plane never switches between equal deadlines — which forces
// D_preemptor < D_preempted <= max_i D_i.  Jobs of the tasks whose
// relative deadline is the set's maximum therefore never preempt, and
// a set of equal-deadline streams never preempts at all.  So only
// tasks with D_i < max_j D_j pay 2 * context_switch per job
// (inflate_context_switch), which upper-bounds the overhead the data
// plane charges (platform/cost_model.h calibrates the default cost).
//
// Every policy inherits the scan caps (kEdfMaxBusyIterations,
// kEdfMaxCheckPoints) and their conservative-fail contract.  With
// equal context-switch cost the admissible sets are nested,
//
//   np  ⊆  quantum  ⊆  preemptive,
//
// because only the blocking term shrinks left to right.
#pragma once

#include <vector>

#include "sched/np_edf.h"

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
  /// Cycles one context switch costs (>= 0).  The data plane charges
  /// it on every switch-out and switch-in; the admission test inflates
  /// the committed costs of preemption-capable tasks by 2x it.
  /// Ignored by kNonPreemptiveEdf, which never switches mid-job.
  rt::Cycles context_switch_cost = 0;
  /// kQuantumEdf only: preemption boundary spacing (> 0).
  rt::Cycles quantum = 0;
  /// How schedulable() evaluates the demand criterion.  kQpa is the
  /// production fast path; kExactScan keeps the original enumeration
  /// as the tests' and benches' reference.  Decisions are
  /// identical (sched/qpa.h).
  DemandAlgo demand_algo = DemandAlgo::kQpa;
};

/// preemption_point result meaning "this policy never preempts".
inline constexpr rt::Cycles kNeverPreempts = rt::kNoDeadline;

/// The overhead charge of the file comment: tasks whose relative
/// deadline is strictly below the set's maximum gain 2 * context_switch
/// cycles of cost, saturating at the largest rt::Cycles (a task that
/// cannot fit is then unschedulable, never negative).  Identity when
/// context_switch == 0 or fewer than two distinct deadlines exist.
std::vector<NpTask> inflate_context_switch(const std::vector<NpTask>& tasks,
                                           rt::Cycles context_switch);

/// Admission test: the committed task set is schedulable on one
/// processor under `policy` (context-switch overhead included).
/// Sufficient, never optimistic.  The query carries the stats sink
/// (the admission_* counters) and the QPA warm-start fields — see
/// DemandQuery in sched/np_edf.h for the busy_seed contract.
bool schedulable(const PolicyParams& policy, const std::vector<NpTask>& tasks,
                 const DemandQuery& query = {});

/// Run-queue semantics: the earliest instant >= `now` at which the job
/// whose current service segment started at `dispatched_at` may be
/// preempted by an earlier-deadline arrival, or kNeverPreempts.
rt::Cycles preemption_point(const PolicyParams& policy,
                            rt::Cycles dispatched_at, rt::Cycles now);

}  // namespace qosctrl::sched
