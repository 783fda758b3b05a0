// Pins AdmissionController's decisions over seeded saturating fleets.
//
// Every combination of scheduling policy, demand algorithm,
// utilization cap, migration cost, C=D split, one processor failure
// and preferred-processor contract plays its own seeded join/leave
// sequence with renegotiation and restore on.  Each step folds the
// verdict (every Placement field), the renegotiation records it
// produced and every processor's committed utilization into one
// *decision digest*; the scan_stats() counters and the number of
// tables compiled are pinned per counter in separate *effort
// digests*.  A change to the admission hot path must leave the
// decision digest alone; an effort digest may move only when the
// change deliberately skips or warm-starts work.
//
// The second test is a property: a rejected join leaves no trace.  A
// controller fed a sequence and one fed the same sequence minus its
// rejected joins reach the same verdicts and renegotiation records on
// every remaining join, with bit-equal committed utilization.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "farm/admission.h"
#include "platform/cost_model.h"
#include "util/rng.h"

namespace qosctrl::farm {
namespace {

constexpr int kProcessors = 5;
constexpr int kSteps = 110;
constexpr int kFailStep = kSteps / 2;
constexpr int kFailedProcessor = 1;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
  void add(Int v) {
    const auto wide = static_cast<std::int64_t>(v);
    bytes(&wide, sizeof wide);
  }
  void add(double v) { bytes(&v, sizeof v); }  // bit pattern, not value
  void add(const std::string& s) {
    add(s.size());
    bytes(s.data(), s.size());
  }
};

struct Case {
  sched::PolicyKind kind = sched::PolicyKind::kNonPreemptiveEdf;
  bool exact = false;
  double cap = 1.0;
  bool free_migration = false;
  bool split = false;
  bool fail = false;
  bool unpreferred = false;
};

/// The 3 x 2^6 combinations, in a fixed order.
std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (int kind = 0; kind < 3; ++kind) {
    for (int bits = 0; bits < 64; ++bits) {
      Case c;
      c.kind = static_cast<sched::PolicyKind>(kind);
      c.exact = (bits & 1) != 0;
      c.cap = (bits & 2) != 0 ? 0.9 : 1.0;
      c.free_migration = (bits & 4) != 0;
      c.split = (bits & 8) != 0;
      c.fail = (bits & 16) != 0;
      c.unpreferred = (bits & 32) != 0;
      out.push_back(c);
    }
  }
  return out;
}

SchedulingSpec sched_of(const Case& c) {
  SchedulingSpec s;
  s.policy.kind = c.kind;
  if (c.kind == sched::PolicyKind::kPreemptiveEdf) {
    s.policy.context_switch_cost = platform::kContextSwitchCycles;
  }
  if (c.kind == sched::PolicyKind::kQuantumEdf) s.policy.quantum = 1000000;
  s.policy.demand_algo =
      c.exact ? sched::DemandAlgo::kExactScan : sched::DemandAlgo::kQpa;
  s.renegotiate = true;
  s.restore = true;
  s.split = c.split;
  return s;
}

AdmissionConfig config_of(const Case& c) {
  AdmissionConfig a;
  a.utilization_cap = c.cap;
  if (c.free_migration) a.migration_cost = 0;
  return a;
}

/// One step of a played sequence: a join (with the preferred
/// processor it asks for), a leave, or the permanent failure of
/// kFailedProcessor followed by the re-admission of its residents.
struct Step {
  enum Kind { kJoin, kLeave, kFail } kind = kJoin;
  StreamSpec spec;     ///< kJoin
  int preferred = -1;  ///< kJoin
  int leave_id = -1;   ///< kLeave
  rt::Cycles time = 0;
};

template <typename T>
const T& pick(util::Rng& rng, const std::vector<T>& options) {
  return options[static_cast<std::size_t>(
      rng.uniform_i64(0, static_cast<std::int64_t>(options.size()) - 1))];
}

/// A saturating sequence: tiny join-storm geometries and periods, most
/// table-controlled, some constant-quality or feedback, joins three
/// times as likely as leaves so the fleet fills up and stays full.
std::vector<Step> make_sequence(const Case& c, std::uint64_t seed) {
  static const std::vector<std::pair<int, int>> kGeometries = {
      {16, 16}, {32, 16}, {32, 32}, {48, 32}, {64, 48}};
  static const std::vector<double> kFactors = {1.5, 2.0, 3.0, 4.0,
                                               6.0, 8.0, 12.0, 16.0};
  util::Rng rng(seed);
  std::vector<Step> seq;
  std::vector<int> alive;
  rt::Cycles now = 0;
  int next_id = 0;
  for (int i = 0; i < kSteps; ++i) {
    now += rng.uniform_i64(1, 4000000);
    Step st;
    st.time = now;
    if (c.fail && i == kFailStep) {
      st.kind = Step::kFail;
    } else if (!alive.empty() && rng.chance(0.25)) {
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_i64(0, static_cast<std::int64_t>(alive.size()) - 1));
      st.kind = Step::kLeave;
      st.leave_id = alive[k];
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      StreamSpec& s = st.spec;
      s.id = next_id++;
      s.join_time = now;
      const auto& g = pick(rng, kGeometries);
      s.width = g.first;
      s.height = g.second;
      const double f = pick(rng, kFactors);
      s.frame_period = static_cast<rt::Cycles>(
          static_cast<double>(default_frame_period(macroblocks_of(s))) * f);
      s.buffer_capacity = static_cast<int>(rng.uniform_i64(1, 3));
      const double mode = rng.uniform_01();
      if (mode < 0.15) {
        s.mode = pipe::ControlMode::kConstantQuality;
        s.constant_quality =
            static_cast<rt::QualityLevel>(rng.uniform_i64(0, 3));
      } else if (mode < 0.2) {
        s.mode = pipe::ControlMode::kFeedback;
      }
      st.preferred =
          c.unpreferred ? -1
                        : static_cast<int>(rng.uniform_i64(0, kProcessors - 1));
      alive.push_back(s.id);
    }
    seq.push_back(st);
  }
  return seq;
}

void fold_placement(Fnv* f, const Placement& p) {
  f->add(p.admitted);
  f->add(p.processor);
  f->add(p.committed_cost);
  f->add(p.table_budget);
  f->add(p.migrated);
  f->add(p.degraded);
  f->add(p.via_renegotiation);
  f->add(p.split);
  f->add(p.tail_processor);
  f->add(p.head_cost);
  f->add(p.tail_cost);
  f->add(p.initial_quality);
  f->add(p.reason);
  f->add(p.system != nullptr);
}

void fold_renegotiation(Fnv* f, const BudgetRenegotiation& r) {
  f->add(r.stream_id);
  f->add(r.effective_time);
  f->add(r.table_budget);
  f->add(r.committed_cost);
  f->add(r.grow);
  f->add(r.system != nullptr);
}

void fold_utilization(Fnv* f, const AdmissionController& ac) {
  for (int p = 0; p < ac.num_processors(); ++p) {
    f->add(ac.committed_utilization(p));
    f->add(ac.committed_streams(p));
  }
  f->add(ac.least_loaded());
}

/// What one played step decided: the verdicts it reached (a failure
/// step re-admits several streams) and the renegotiations it imposed.
struct StepOutcome {
  std::vector<Placement> verdicts;
  std::vector<BudgetRenegotiation> renegotiations;
};

void take_renegotiations(AdmissionController* ac, StepOutcome* out) {
  for (BudgetRenegotiation& r : ac->take_renegotiations()) {
    out->renegotiations.push_back(std::move(r));
  }
}

/// Plays `seq` on a fresh controller over `tables` and calls
/// `on_step(outcome, controller)` after every step.  A failure step
/// does what the simulator's failure handler does: releases the dead
/// processor's residents in id order, re-admitting each at once.
template <typename OnStep>
void play_sequence(const Case& c, const std::vector<Step>& seq,
                   TableCache* tables, OnStep&& on_step) {
  AdmissionController ac(kProcessors, config_of(c), tables, sched_of(c));
  std::vector<const StreamSpec*> spec_of;  // by stream id
  for (const Step& st : seq) {
    StepOutcome out;
    switch (st.kind) {
      case Step::kJoin:
        spec_of.resize(static_cast<std::size_t>(st.spec.id) + 1, nullptr);
        spec_of.back() = &st.spec;
        out.verdicts.push_back(ac.admit(st.spec, st.preferred));
        take_renegotiations(&ac, &out);
        break;
      case Step::kLeave:
        ac.release(st.leave_id, st.time);
        take_renegotiations(&ac, &out);
        break;
      case Step::kFail:
        ac.fail_processor(kFailedProcessor);
        for (const int id : ac.resident_stream_ids(kFailedProcessor)) {
          ac.release(id, st.time);
          out.verdicts.push_back(
              ac.admit(*spec_of[static_cast<std::size_t>(id)],
                       c.unpreferred ? -1 : ac.least_loaded()));
          take_renegotiations(&ac, &out);
        }
        break;
    }
    on_step(out, ac);
  }
}

std::uint64_t case_seed(std::size_t case_index) {
  return 0x5eed0000ULL + case_index;
}

TEST(AdmissionPinTest, DecisionsAndEffortArePinned) {
  Fnv decisions, demand_tests, busy_iterations, check_points, qpa_points,
      tables_compiled;
  long long admitted = 0, rejected = 0, renegotiated = 0, grows = 0,
            splits = 0;
  const std::vector<Case> cases = all_cases();
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    TableCache tables(platform::figure5_cost_table());
    long long case_splits = 0;
    sched::EdfScanStats stats;
    play_sequence(c, make_sequence(c, case_seed(ci)), &tables,
                  [&](const StepOutcome& out, const AdmissionController& ac) {
                    for (const Placement& p : out.verdicts) {
                      fold_placement(&decisions, p);
                      (p.admitted ? admitted : rejected) += 1;
                      renegotiated += p.via_renegotiation ? 1 : 0;
                    }
                    for (const BudgetRenegotiation& r : out.renegotiations) {
                      fold_renegotiation(&decisions, r);
                      grows += r.grow ? 1 : 0;
                    }
                    fold_utilization(&decisions, ac);
                    case_splits = ac.split_count();
                    stats = ac.scan_stats();
                  });
    decisions.add(case_splits);
    splits += case_splits;
    demand_tests.add(stats.demand_tests);
    busy_iterations.add(stats.busy_iterations);
    check_points.add(stats.check_points);
    qpa_points.add(stats.qpa_points);
    tables_compiled.add(tables.compiled_systems());
  }

  // The fleets really are saturated and reach every admission path.
  EXPECT_GT(rejected, admitted / 4);
  EXPECT_GT(renegotiated, 100);
  EXPECT_GT(grows, 100);
  EXPECT_GT(splits, 10);

  EXPECT_EQ(decisions.h, 0x773969b1ee5f1999ULL) << std::hex << decisions.h;
  EXPECT_EQ(demand_tests.h, 0x65f2bee96d009414ULL)
      << std::hex << demand_tests.h;
  EXPECT_EQ(busy_iterations.h, 0x1476517f36003086ULL)
      << std::hex << busy_iterations.h;
  EXPECT_EQ(check_points.h, 0xf64fb88ac8093538ULL)
      << std::hex << check_points.h;
  EXPECT_EQ(qpa_points.h, 0x2ccc8d3305f6c9c7ULL) << std::hex << qpa_points.h;
  EXPECT_EQ(tables_compiled.h, 0x411663e0e2dca6fbULL)
      << std::hex << tables_compiled.h;
}

/// One digest per played step: its verdicts, its renegotiation records
/// and every processor's committed utilization afterwards.
std::vector<std::uint64_t> step_digests(const Case& c,
                                        const std::vector<Step>& seq,
                                        TableCache* tables) {
  std::vector<std::uint64_t> out;
  play_sequence(c, seq, tables,
                [&](const StepOutcome& o, const AdmissionController& ac) {
                  Fnv f;
                  for (const Placement& p : o.verdicts) {
                    fold_placement(&f, p);
                    f.add(reinterpret_cast<std::intptr_t>(p.system.get()));
                  }
                  for (const BudgetRenegotiation& r : o.renegotiations) {
                    fold_renegotiation(&f, r);
                    f.add(reinterpret_cast<std::intptr_t>(r.system.get()));
                  }
                  fold_utilization(&f, ac);
                  out.push_back(f.h);
                });
  return out;
}

TEST(AdmissionPinTest, RejectedJoinsLeaveNoTrace) {
  const std::vector<Case> cases = all_cases();
  long long dropped = 0;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    // The exact scan reaches the same verdicts as QPA
    // (tests/sched/qpa_property_test.cpp) at many times the cost.
    if (c.exact) continue;
    const std::vector<Step> seq = make_sequence(c, case_seed(ci));
    // One cache for both controllers, so equal verdicts share systems.
    TableCache tables(platform::figure5_cost_table());
    std::vector<bool> rejected;  // per step: a join that was refused
    play_sequence(c, seq, &tables,
                  [&](const StepOutcome& o, const AdmissionController&) {
                    const Step& st = seq[rejected.size()];
                    rejected.push_back(st.kind == Step::kJoin &&
                                       !o.verdicts.front().admitted);
                  });
    std::vector<Step> kept;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (!rejected[i]) kept.push_back(seq[i]);
    }
    dropped += static_cast<long long>(seq.size() - kept.size());

    const std::vector<std::uint64_t> full = step_digests(c, seq, &tables);
    const std::vector<std::uint64_t> thinned = step_digests(c, kept, &tables);
    std::size_t k = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (rejected[i]) continue;
      ASSERT_EQ(full[i], thinned[k]) << "case " << ci << " step " << i;
      ++k;
    }
  }
  EXPECT_GT(dropped, 500);
}

}  // namespace
}  // namespace qosctrl::farm
