#include "sched/policy.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "sched/qpa.h"
#include "util/check.h"

namespace qosctrl::sched {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNonPreemptiveEdf:
      return "np";
    case PolicyKind::kPreemptiveEdf:
      return "preemptive";
    case PolicyKind::kQuantumEdf:
      return "quantum";
  }
  return "?";
}

bool parse_policy_name(const char* name, PolicyKind* out) {
  for (const PolicyKind kind :
       {PolicyKind::kNonPreemptiveEdf, PolicyKind::kPreemptiveEdf,
        PolicyKind::kQuantumEdf}) {
    if (std::strcmp(name, policy_name(kind)) == 0) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::vector<NpTask> inflate_context_switch(const std::vector<NpTask>& tasks,
                                           rt::Cycles context_switch) {
  QC_EXPECT(context_switch >= 0, "context switch cost must be >= 0");
  if (context_switch == 0 || tasks.empty()) return tasks;
  rt::Cycles max_deadline = tasks.front().deadline;
  for (const NpTask& t : tasks) {
    max_deadline = std::max(max_deadline, t.deadline);
  }
  constexpr rt::Cycles kMax = std::numeric_limits<rt::Cycles>::max();
  std::vector<NpTask> inflated = tasks;
  for (NpTask& t : inflated) {
    // Only a strictly-earlier-relative-deadline job can cause a
    // preemption (switch-out + switch-in of the job it displaces).
    if (t.deadline == max_deadline) continue;
    t.cost = context_switch > (kMax - t.cost) / 2 ? kMax
                                                  : t.cost + 2 * context_switch;
  }
  return inflated;
}

bool schedulable(const PolicyParams& policy, const std::vector<NpTask>& tasks,
                 const DemandQuery& query) {
  if (policy.kind == PolicyKind::kNonPreemptiveEdf) {
    return demand_schedulable(tasks, kUncappedBlocking, policy.demand_algo,
                              query);
  }
  const rt::Cycles blocking =
      policy.kind == PolicyKind::kQuantumEdf ? policy.quantum : 0;
  // Free context switches inflate nothing: test the committed set as it
  // is instead of a copy.
  if (policy.context_switch_cost == 0) {
    return demand_schedulable(tasks, blocking, policy.demand_algo, query);
  }
  return demand_schedulable(
      inflate_context_switch(tasks, policy.context_switch_cost), blocking,
      policy.demand_algo, query);
}

rt::Cycles preemption_point(const PolicyParams& policy,
                            rt::Cycles dispatched_at, rt::Cycles now) {
  switch (policy.kind) {
    case PolicyKind::kNonPreemptiveEdf:
      return kNeverPreempts;
    case PolicyKind::kPreemptiveEdf:
      return now;
    case PolicyKind::kQuantumEdf:
      break;
  }
  // The next multiple of the quantum from dispatch at or after now,
  // computed without passing the cycle range.
  const rt::Cycles q = policy.quantum;
  const rt::Cycles boundary = dispatched_at + (now - dispatched_at) / q * q;
  if (boundary == now) return now;
  return boundary > kNeverPreempts - q ? kNeverPreempts : boundary + q;
}

}  // namespace qosctrl::sched
