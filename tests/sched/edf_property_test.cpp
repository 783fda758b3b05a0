// Property-style randomized cross-checks of the EDF admission-test
// family over sporadic task sets.  Deterministic: a fixed-seed
// util::Rng drives every draw.
//
// The pinned orderings follow from the shared demand core
// (sched/np_edf.h): demand and scan caps are identical across the
// family and only the blocking term shrinks, so (with equal
// context-switch cost)
//
//   np-admissible  ⊆  quantum-admissible  ⊆  preemptive-admissible
//
// and utilization > 1 is rejected by every member.
#include <gtest/gtest.h>

#include <vector>

#include "sched/policy.h"
#include "util/rng.h"

namespace qosctrl::sched {
namespace {

// The three policies through the exact check-point scan, the
// reference the QPA fast path is pinned against.
constexpr PolicyParams kNp{PolicyKind::kNonPreemptiveEdf, 0, 0,
                           DemandAlgo::kExactScan};

PolicyParams preemptive(rt::Cycles context_switch = 0) {
  return {PolicyKind::kPreemptiveEdf, context_switch, 0,
          DemandAlgo::kExactScan};
}

PolicyParams quantum(rt::Cycles q) {
  return {PolicyKind::kQuantumEdf, 0, q, DemandAlgo::kExactScan};
}

std::vector<NpTask> random_task_set(util::Rng& rng) {
  const int n = static_cast<int>(rng.uniform_i64(1, 5));
  std::vector<NpTask> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    NpTask t;
    t.period = rng.uniform_i64(5, 60);
    t.cost = rng.uniform_i64(1, t.period);
    // Constrained through loose: D anywhere in [C, 3 * T].
    t.deadline = rng.uniform_i64(t.cost, 3 * t.period);
    tasks.push_back(t);
  }
  return tasks;
}

TEST(EdfProperty, PreemptiveAdmitsEverythingNpAdmits) {
  util::Rng rng(20260729);
  int np_yes = 0, preemptive_yes = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<NpTask> tasks = random_task_set(rng);
    const bool np = schedulable(kNp, tasks);
    const bool sliced = schedulable(quantum(rng.uniform_i64(1, 40)), tasks);
    const bool full = schedulable(preemptive(), tasks);
    np_yes += np ? 1 : 0;
    preemptive_yes += full ? 1 : 0;
    if (np) {
      EXPECT_TRUE(sliced) << "np-admissible set rejected by quantum EDF "
                          << "(trial " << trial << ")";
    }
    if (sliced) {
      EXPECT_TRUE(full)
          << "quantum-admissible set rejected by preemptive EDF (trial "
          << trial << ")";
    }
  }
  // The inclusion must be strict somewhere, and both sides must see
  // a healthy mix of verdicts for the property to mean anything.
  EXPECT_GT(np_yes, 100);
  EXPECT_LT(np_yes, 1900);
  EXPECT_GT(preemptive_yes, np_yes);
}

TEST(EdfProperty, OverUtilizationRejectedByEveryPolicy) {
  util::Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<NpTask> tasks = random_task_set(rng);
    // Inflate the costs until utilization exceeds 1.
    while (np_utilization(tasks) <= 1.0) {
      for (NpTask& t : tasks) t.cost += 1 + t.cost / 2;
    }
    EXPECT_FALSE(schedulable(kNp, tasks));
    EXPECT_FALSE(schedulable(quantum(10), tasks));
    EXPECT_FALSE(schedulable(preemptive(), tasks));
  }
}

TEST(EdfProperty, ContextSwitchCostOnlyShrinksTheAdmissibleSet) {
  util::Rng rng(424242);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<NpTask> tasks = random_task_set(rng);
    if (schedulable(preemptive(2), tasks)) {
      EXPECT_TRUE(schedulable(preemptive(0), tasks))
          << "overhead-inflated admission must imply zero-overhead "
          << "admission (trial " << trial << ")";
    }
  }
}

}  // namespace
}  // namespace qosctrl::sched
