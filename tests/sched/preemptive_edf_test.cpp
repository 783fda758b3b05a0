#include "sched/policy.h"

#include <gtest/gtest.h>

#include <limits>

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

PolicyParams quantum(rt::Cycles q, rt::Cycles context_switch = 0) {
  return {PolicyKind::kQuantumEdf, context_switch, q, DemandAlgo::kExactScan};
}

constexpr rt::Cycles kMaxCycles = std::numeric_limits<rt::Cycles>::max();

TEST(PreemptiveEdf, EmptySetIsSchedulable) {
  EXPECT_TRUE(schedulable(preemptive(), {}));
  EXPECT_TRUE(schedulable(quantum(10), {}));
}

TEST(PreemptiveEdf, AdmitsTheClassicBlockingRejection) {
  // The np_edf_test pinned case: a long later-deadline job blocks a
  // tight task under non-preemptive EDF (90 + 20 > 100), but the mix
  // is only U = 0.29 — preemptive EDF admits it.
  const std::vector<NpTask> mix = {{20, 100, 100}, {90, 1000, 1000}};
  EXPECT_FALSE(schedulable(kNp, mix));
  EXPECT_TRUE(schedulable(preemptive(), mix));
  // A quantum no larger than the tight task's slack also admits it
  // (blocking capped at 80 = 100 - 20), while a quantum as long as the
  // blocking job restores the np rejection.
  EXPECT_TRUE(schedulable(quantum(80), mix));
  EXPECT_FALSE(schedulable(quantum(90), mix));
}

TEST(PreemptiveEdf, ExactAtFullUtilization) {
  // U = 1 implicit-deadline sets are exactly schedulable preemptively.
  EXPECT_TRUE(schedulable(preemptive(), {{1, 2, 2}, {4, 8, 8}}));
  EXPECT_FALSE(schedulable(kNp, {{1, 2, 2}, {4, 8, 8}}));
}

TEST(PreemptiveEdf, OverUtilizationFails) {
  EXPECT_FALSE(schedulable(preemptive(), {{60, 100, 100}, {60, 100, 100}}));
  EXPECT_FALSE(schedulable(quantum(5), {{60, 100, 100}, {60, 100, 100}}));
}

TEST(PreemptiveEdf, ConstrainedDeadlineDemand) {
  // D < T: dbf at t = 5 is 3 + 3 > 5 -> reject even though U = 0.6.
  EXPECT_FALSE(schedulable(preemptive(), {{3, 5, 10}, {3, 5, 10}}));
  EXPECT_TRUE(schedulable(preemptive(), {{3, 6, 10}, {3, 10, 10}}));
}

TEST(PreemptiveEdf, ContextSwitchOverheadInflatesCosts) {
  // 10 tasks of C = 9, T = D = 100 plus one slack task with a longer
  // deadline: charging 2 * 1 cycles per preemption-capable job pushes
  // demand at t = 100 to 10 * (9 + 2) = 110 -> reject.  Only tasks
  // with D < Dmax pay (a preemptor needs a strictly earlier absolute
  // deadline), so the max-deadline task rides free.
  std::vector<NpTask> tight(10, NpTask{9, 100, 100});
  tight.push_back(NpTask{1, 1000, 1000});
  EXPECT_TRUE(schedulable(preemptive(0), tight));
  EXPECT_FALSE(schedulable(preemptive(1), tight));
  EXPECT_FALSE(schedulable(quantum(50, 1), tight));
}

TEST(PreemptiveEdf, EqualDeadlineSetsPayNoSwitchCharge) {
  // All absolute deadlines tie, so no job can ever preempt another
  // (preemption requires a strictly earlier deadline) — the inflation
  // is provably zero and the exact-fit set stays admitted even with a
  // context-switch cost.  The flat 2-switch charge used to reject it.
  const std::vector<NpTask> tight(10, NpTask{9, 100, 100});
  EXPECT_TRUE(schedulable(preemptive(1), tight));
  EXPECT_TRUE(schedulable(quantum(50, 1), tight));
  const std::vector<NpTask> inflated =
      inflate_context_switch(tight, 7);
  for (const NpTask& t : inflated) EXPECT_EQ(t.cost, 9);
}

TEST(PreemptiveEdf, QuantumInterpolatesBetweenNpAndPreemptive) {
  // Blocking-limited mix: np rejects, preemptive accepts; the quantum
  // variant flips between them as the quantum crosses the slack.
  const std::vector<NpTask> mix = {{20, 100, 100}, {90, 1000, 1000}};
  EXPECT_EQ(schedulable(quantum(1), mix), schedulable(preemptive(), mix));
  EXPECT_EQ(schedulable(quantum(90), mix), schedulable(kNp, mix));
}

TEST(PreemptiveEdf, HugeContextSwitchSaturatesInsteadOfWrapping) {
  // 2 * context_switch does not fit in a cycle count: the charge
  // saturates, so the preemption-capable task can no longer fit its
  // deadline and the set is rejected — never a negative cost (which
  // stopped the demand test in an assertion) or a wrapped small one.
  const std::vector<NpTask> mix = {{20, 100, 100}, {90, 1000, 1000}};
  for (const rt::Cycles ctx :
       {rt::Cycles{1} << 62, kMaxCycles / 2 + 1, kMaxCycles}) {
    const std::vector<NpTask> inflated = inflate_context_switch(mix, ctx);
    EXPECT_EQ(inflated[0].cost, kMaxCycles) << ctx;
    EXPECT_EQ(inflated[1].cost, 90) << ctx;
    EXPECT_FALSE(schedulable(preemptive(ctx), mix)) << ctx;
    EXPECT_FALSE(schedulable(quantum(50, ctx), mix)) << ctx;
    PolicyParams qpa = preemptive(ctx);
    qpa.demand_algo = DemandAlgo::kQpa;
    EXPECT_FALSE(schedulable(qpa, mix)) << ctx;
  }
  // The largest charge that still fits is added exactly.
  const rt::Cycles fits = (kMaxCycles - 20) / 2;
  EXPECT_EQ(inflate_context_switch(mix, fits)[0].cost, 20 + 2 * fits);
  // Equal-deadline sets still pay nothing, however large the cost.
  const std::vector<NpTask> equal(3, NpTask{9, 100, 100});
  EXPECT_TRUE(schedulable(preemptive(kMaxCycles), equal));
}

TEST(Policy, NamesRoundTrip) {
  for (const PolicyKind kind :
       {PolicyKind::kNonPreemptiveEdf, PolicyKind::kPreemptiveEdf,
        PolicyKind::kQuantumEdf}) {
    PolicyKind parsed{};
    ASSERT_TRUE(parse_policy_name(policy_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PolicyKind parsed{};
  EXPECT_FALSE(parse_policy_name("fifo", &parsed));
}

TEST(Policy, QpaDecisionsMatchTheExactScan) {
  const std::vector<NpTask> mix = {{20, 100, 100}, {90, 1000, 1000}};
  PolicyParams np;
  EXPECT_FALSE(schedulable(np, mix));
  PolicyParams pre;
  pre.kind = PolicyKind::kPreemptiveEdf;
  EXPECT_TRUE(schedulable(pre, mix));
  PolicyParams q;
  q.kind = PolicyKind::kQuantumEdf;
  q.quantum = 80;
  EXPECT_TRUE(schedulable(q, mix));
}

TEST(Policy, PreemptionPoints) {
  PolicyParams np;
  EXPECT_EQ(preemption_point(np, 0, 50), kNeverPreempts);

  PolicyParams pre;
  pre.kind = PolicyKind::kPreemptiveEdf;
  EXPECT_EQ(preemption_point(pre, 0, 50), 50);

  PolicyParams q;
  q.kind = PolicyKind::kQuantumEdf;
  q.quantum = 40;
  // Mid-quantum arrivals wait for the next boundary from dispatch.
  EXPECT_EQ(preemption_point(q, 100, 101), 140);
  EXPECT_EQ(preemption_point(q, 100, 139), 140);
  // Exactly on a boundary: preempt now.
  EXPECT_EQ(preemption_point(q, 100, 140), 140);
  EXPECT_EQ(preemption_point(q, 100, 180), 180);
}

TEST(Policy, QuantumBoundaryBeyondTheCycleRangeNeverPreempts) {
  // served + quantum - 1 used to wrap for quanta near the cycle
  // type's maximum, putting the boundary in the past: preemptions
  // fired at once instead of never.
  PolicyParams q;
  q.kind = PolicyKind::kQuantumEdf;
  for (const rt::Cycles quantum :
       {kMaxCycles, kMaxCycles - 1, rt::Cycles{1} << 62, kNeverPreempts}) {
    q.quantum = quantum;
    EXPECT_EQ(preemption_point(q, 0, 1), kNeverPreempts) << quantum;
    EXPECT_EQ(preemption_point(q, 1000, 123456), kNeverPreempts) << quantum;
    // At the dispatch instant itself the boundary is now.
    EXPECT_EQ(preemption_point(q, 1000, 1000), 1000) << quantum;
  }
  // A boundary just inside the range is still returned exactly.
  q.quantum = 1000;
  EXPECT_EQ(preemption_point(q, kNeverPreempts - 2000, kNeverPreempts - 1500),
            kNeverPreempts - 1000);
  EXPECT_EQ(preemption_point(q, kNeverPreempts - 1000, kNeverPreempts - 500),
            kNeverPreempts);
}

}  // namespace
}  // namespace qosctrl::sched
