// Slack-table admission control for the encoder farm.
//
// The latency contract of a stream is per frame: a frame arriving at a
// must be displayed by a + K * P.  The single-stream pipeline spends
// the whole window on encoding; a farm processor cannot, because other
// streams' frames queue ahead.  Admission therefore splits the window:
//
//      K * P  =  B  (service budget)  +  L = K * P - B  (queueing slack)
//
// The stream's controller tables are compiled paced over B with
// elapsed time measured from *service start*, so the controller
// guarantees (paper Prop. 2.1) that an admitted frame occupies the
// processor for at most B cycles and finishes within B of starting —
// making the stream, from the processor's point of view, a sporadic
// task (C = B, D = K * P, T = P).  The compiled slack table is queried
// to certify the candidate budget (qmin worst case schedulable within
// B: SlackTables::max_initial_delay >= 0) and to predict the quality
// the stream's first quality-sensitive decision will be granted at
// that budget.
//
// A processor's committed worst-case load is the task set of its
// admitted streams; the admission test is sched::schedulable under
// the scenario's SchedulingSpec::policy (non-preemptive EDF by
// default, preemptive or quantum-sliced EDF when the scenario selects
// them) plus a utilization cap.  An arriving stream is tried at its richest
// budget on its preferred processor first, then *migrated* (other
// processors, same budget), then *split* (SchedulingSpec::split: the
// C=D semi-partitioning heuristic divides the budget into a
// zero-slack head piece on one processor and the remainder on
// another — see try_place_split), then *degraded* (smaller budgets,
// all processors) — quality before locality.  When even that fails
// and the scenario enables *renegotiation*, admission shrinks running
// controlled streams' reserved budgets toward their qmin worst case
// (recompiling slack tables from the per-budget cache) to make room:
// the newcomer enters at its cheapest certifiable budget and
// incumbents give up no more headroom than needed, largest headroom
// first.  Only if nothing fits is the stream rejected: the farm turns
// overload into rejections (or shared degradation), never into
// deadline misses on admitted streams.
//
// Renegotiation walks each contract's certified budget ladder by
// index: the candidate budgets of a (macroblocks, latency, period)
// contract are built once, each rung's system and certificate filled
// in on first use, and a commitment keeps its ladder and rung, so a
// shrink or grow step is an index move.  A rejected join is made cheap
// by the shrink floor: each processor's demand cache also folds the
// utilization it would carry with every controlled resident shrunk to
// its qmin minimum (plus surcharge).  A processor whose shrink-floor
// utilization plus the newcomer's term exceeds the cap is skipped
// untouched.  That is exact: the shrink loop's exhausted state is that
// same set in the same order, every intermediate state's left fold is
// at least as large (monotone floating-point addition), so the loop
// would have rolled back without a single demand test.  The same
// bound ends a placement sweep past the preferred processor when even
// the least-loaded live processor fails the cap for the surcharged
// task.  See docs/admission.md.
//
// Streams without a compiled occupancy bound pay for it here:
// constant-quality streams commit their fixed level's full worst case,
// and feedback-controlled streams must be assumed to run at qmax —
// usually inadmissible.  Table-driven control is what makes admission
// at high utilization possible at all.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "encoder/system_builder.h"
#include "farm/scenario.h"
#include "sched/policy.h"

namespace qosctrl::farm {

struct AdmissionConfig {
  /// Committed-utilization ceiling per processor (<= 1.0).
  double utilization_cap = 1.0;
  /// Candidate service budgets come from two families, merged, clamped
  /// to [qmin minimum, latency window], and tried richest first:
  ///  * fractions of the K * P latency window (generous-latency
  ///    regime: spend most of the window, keep some queueing slack);
  ///  * multiples of the qmin-minimal budget (packing regime: the
  ///    worst case of qmin is already a large share of the period, so
  ///    richer budgets are expressed as headroom over it).
  /// The qmin-minimal budget itself is always the last resort.
  std::vector<double> budget_fractions = {0.85, 0.70, 0.55, 0.40};
  std::vector<double> min_budget_multiples = {3.0, 2.0, 1.5, 1.25, 1.1};
  /// Cap on one controlled stream's committed utilization share
  /// (budget / period): rich candidates above it are not offered, so
  /// early arrivals cannot hog a processor that later streams will
  /// need.  The qmin-minimal budget is exempt — a stream whose bare
  /// minimum exceeds the share cap is still offered qmin service.
  /// Uncontrolled streams are exempt too (their cost is not a choice).
  double max_stream_share = 0.25;
  /// Per-frame worst-case surcharge committed for a stream hosted off
  /// its preferred processor (cache-affinity loss; see
  /// platform::kMigrationCycles).  Makes migration compete against
  /// local degradation on real cost instead of always being tried
  /// first at zero price.
  rt::Cycles migration_cost = platform::kMigrationCycles;
};

/// Shares compiled encoder systems (schedule + slack tables) across
/// streams with the same geometry and budget.  Not thread-safe: the
/// control plane compiles sequentially; workers only read the shared
/// immutable systems.
class TableCache {
 public:
  explicit TableCache(platform::CostTable costs);

  /// The compiled system for (macroblocks, budget); built on first
  /// use.  Returned by reference into the cache (stable across later
  /// insertions) so certification probes on the admission hot path
  /// skip the shared_ptr refcount round trip; copy it to keep it.
  const std::shared_ptr<const enc::EncoderSystem>& get(int macroblocks,
                                                       rt::Cycles budget);

  /// Smallest evenly-paced budget that is worst-case schedulable at
  /// qmin: macroblocks * sum of qmin worst cases over the body.
  rt::Cycles min_budget(int macroblocks) const;

  /// Worst-case cycles per frame when every action runs at quality
  /// level index `qi` (the committed cost of uncontrolled streams).
  rt::Cycles worst_case_frame_cost(int macroblocks, std::size_t qi) const;

  std::size_t num_quality_levels() const { return costs_.num_levels(); }
  std::size_t compiled_systems() const { return cache_.size(); }
  const platform::CostTable& costs() const { return costs_; }

 private:
  platform::CostTable costs_;
  std::vector<rt::Cycles> wc_frame_per_mb_;  ///< per quality index
  std::map<std::pair<int, rt::Cycles>,
           std::shared_ptr<const enc::EncoderSystem>>
      cache_;
};

/// The admission verdict for one stream.
struct Placement {
  bool admitted = false;
  int processor = -1;
  /// Committed worst-case occupancy per frame (the sporadic-task cost).
  rt::Cycles committed_cost = 0;
  /// Budget the session's controller tables are paced over.
  rt::Cycles table_budget = 0;
  bool migrated = false;  ///< placed off the preferred processor
  bool degraded = false;  ///< below the richest candidate budget
  /// Admitted only because running streams' budgets were shrunk.
  bool via_renegotiation = false;
  /// C=D semi-partitioned placement (SchedulingSpec::split): the
  /// per-frame service is divided into a zero-slack head piece
  /// (C = D = head_cost, T = P) on `processor` and the remainder
  /// (tail_cost, deadline K*P - head_cost, T = P) on
  /// `tail_processor`, which always pays the migration surcharge —
  /// the frame's working set moves between the processors every
  /// period.  The head processor index is always below the tail's
  /// (the data plane simulates handoff sources before sinks).
  bool split = false;
  int tail_processor = -1;
  rt::Cycles head_cost = 0;  ///< C1: the zero-slack head piece
  rt::Cycles tail_cost = 0;  ///< committed tail incl. migration
  /// Quality index the slack tables grant an on-time frame at its
  /// first quality-sensitive decision (later decisions may exceed it).
  std::size_t initial_quality = 0;
  std::string reason;  ///< why rejected (empty when admitted)
  /// Compiled system for the session (shared; null when rejected).
  std::shared_ptr<const enc::EncoderSystem> system;
};

/// One reserved-budget interval of an admitted stream's life.  The
/// initial placement opens the first epoch; every renegotiation that
/// shrinks the stream opens another.  Frames *arriving* at or after
/// `from_time` are paced over this epoch's tables.
struct BudgetEpoch {
  rt::Cycles from_time = 0;
  rt::Cycles table_budget = 0;
  rt::Cycles committed_cost = 0;
  std::shared_ptr<const enc::EncoderSystem> system;
};

/// One certified rung of a controlled stream's budget ladder: a
/// candidate budget whose slack tables certify the qmin worst case
/// (max_initial_delay >= 0), with its compiled system.  Ladders are
/// built by the control plane (TableCache is not thread-safe); the
/// data plane's overrun policer only follows the shared pointers.
struct CertifiedRung {
  rt::Cycles table_budget = 0;
  std::shared_ptr<const enc::EncoderSystem> system;
};

/// A budget change imposed on a running stream: a shrink (to admit a
/// newcomer) or, with SchedulingSpec::restore, a grow (after a
/// departure freed capacity).
struct BudgetRenegotiation {
  int stream_id = 0;
  /// The newcomer's join time (shrink) or the departure time (grow).
  rt::Cycles effective_time = 0;
  rt::Cycles table_budget = 0;    ///< the new budget
  rt::Cycles committed_cost = 0;
  bool grow = false;              ///< restore pass, not a shrink
  std::shared_ptr<const enc::EncoderSystem> system;
};

/// Tracks per-processor committed worst-case load and decides
/// admission under the scenario's scheduling policy.  Deterministic:
/// same call sequence, same verdicts.
class AdmissionController {
 public:
  AdmissionController(int num_processors, AdmissionConfig config,
                      TableCache* tables, SchedulingSpec sched = {});

  /// Admission decision for `spec`, preferring `preferred_processor`.
  /// On success the stream's load is committed until release().  May
  /// shrink running streams when the scenario enables renegotiation;
  /// collect the shrinks with take_renegotiations().
  ///
  /// `preferred_processor` may be -1: *no* processor is local to the
  /// stream, so placements are tried least-loaded first and every one
  /// pays the migration surcharge — the contract a sharded control
  /// plane uses when it probes a foreign shard or rebalances a stream
  /// across shards (farm/shard.h).
  Placement admit(const StreamSpec& spec, int preferred_processor);

  /// Budget changes imposed since the last call (admit() appends
  /// shrinks, release() appends restore grows, both in decision
  /// order; each carries its effective time).
  std::vector<BudgetRenegotiation> take_renegotiations();

  /// Releases the commitment of a departed stream (no-op if unknown).
  /// With SchedulingSpec::restore, then grows previously-shrunk
  /// incumbents on the freed processor back up the certified ladder;
  /// `now` stamps the resulting grow epochs (deliberately not
  /// defaulted — a zero timestamp would order grow epochs before the
  /// victims' own admissions).
  void release(int stream_id, rt::Cycles now);

  int num_processors() const {
    return static_cast<int>(committed_.size());
  }
  double committed_utilization(int processor) const;
  int committed_streams(int processor) const;

  /// Cumulative demand-scan work done by every schedulability query
  /// this controller issued (admission, renegotiation, restore) — the
  /// control-plane profiling counters of the observability layer.
  const sched::EdfScanStats& scan_stats() const { return scan_stats_; }

  /// Total number of C=D split placements ever committed (the
  /// admission_splits counter).
  long long split_count() const { return split_count_; }

  /// The processor a newcomer should prefer: least committed
  /// utilization over the surviving processors, ties to the lowest
  /// index (0 when every processor has failed).  Cached between
  /// commitment mutations.
  int least_loaded() const;

  /// Marks `processor` permanently failed: it hosts no new
  /// commitments, the restore pass skips it, and least_loaded() never
  /// prefers it.  Existing commitments stay until release() — the
  /// failure handler releases and re-admits them one by one.
  void fail_processor(int processor);
  bool processor_failed(int processor) const;

  /// Stream ids currently committed on `processor`, ascending — the
  /// deterministic re-admission order after a failure.
  std::vector<int> resident_stream_ids(int processor) const;

  /// The certified budget ladder for a controlled stream's geometry
  /// and contract, richest rung first, the qmin minimum last: the
  /// rungs the simulator's forced-downgrade and quarantine re-entry
  /// paths may move a stream to.  Compiles (and caches) each rung's
  /// system, so callers must be on the control plane.
  std::vector<CertifiedRung> certified_ladder(int macroblocks,
                                              rt::Cycles latency,
                                              rt::Cycles period);

 private:
  /// The certified budget ladder of one controlled-stream contract
  /// (macroblocks, latency window, period): the candidate budgets,
  /// richest first, with the qmin minimum last.  A pure function of
  /// the config and the cost tables, built once per contract and kept
  /// at a stable address, so a commitment names its budget by rung
  /// index and a shrink or grow step is an index move.  Each rung's
  /// compiled system and certificate (max_initial_delay >= 0) are
  /// filled in by the first certified() query, so a rung is compiled
  /// exactly when a walk first needs to know whether it certifies.
  struct Ladder {
    int macroblocks = 0;
    std::vector<rt::Cycles> budgets;
    std::vector<std::shared_ptr<const enc::EncoderSystem>> systems;
    std::vector<bool> certifies;
    std::size_t last() const { return budgets.size() - 1; }
  };

  struct Commitment {
    int stream_id = 0;
    sched::NpTask task;
    /// Renegotiation state of a controlled stream: its ladder, the rung
    /// its reserved budget sits on, and the rung it was admitted at
    /// (the restore pass's ceiling); shrinks stop at the ladder's last
    /// rung, the qmin minimum.  Null for commitments that never change
    /// budget: uncontrolled streams and C=D split pieces.
    Ladder* ladder = nullptr;
    std::size_t rung = 0;
    std::size_t admitted_rung = 0;
    /// Migration surcharge folded into task.cost while the stream is
    /// hosted off its preferred processor; budget changes must
    /// preserve it (task.cost = budget + surcharge).
    rt::Cycles migration_surcharge = 0;

    rt::Cycles budget() const { return ladder->budgets[rung]; }
    /// task.cost with every possible shrink applied: the qmin minimum
    /// plus surcharge for a controlled stream, task.cost otherwise.
    /// Fixed for the commitment's whole life.
    rt::Cycles shrink_floor_cost() const {
      return ladder != nullptr
                 ? ladder->budgets.back() + migration_surcharge
                 : task.cost;
    }
  };

  /// One (budget, cost) candidate reservation for a stream: the budget
  /// its tables are paced over, its compiled system (already
  /// certified), the committed cost before any migration surcharge,
  /// and — when the commitment may later renegotiate — its ladder rung.
  struct Candidate {
    rt::Cycles table_budget = 0;
    rt::Cycles cost = 0;
    const std::shared_ptr<const enc::EncoderSystem>* system = nullptr;
    Ladder* ladder = nullptr;
    std::size_t rung = 0;
  };

  /// Incrementally maintained mirror of one processor's committed
  /// task set — what makes admission churn cheap.  `tasks` and `util`
  /// duplicate committed_[p] (same order, utilization accumulated by
  /// the exact same left-fold addition sequence a fresh scan would
  /// perform, so cap comparisons are bit-identical to rebuilding);
  /// `shrink_floor_util` is the same fold over every commitment's
  /// shrink_floor_cost() — the utilization the set would have if
  /// renegotiation shrank every controlled resident to its qmin
  /// minimum, which no shrink sequence can undercut.  `busy_hint` is
  /// a lower bound on the set's synchronous busy-period length, used
  /// to warm-start QPA's fixpoint (sound per the DemandQuery
  /// contract: it is refreshed from the demand test that admitted the
  /// latest commitment, reset whenever a budget shrinks or grows or a
  /// commitment leaves, and put back when a renegotiation probe rolls
  /// back to the set it was computed for).  A candidate is tested by
  /// push_back / pop_back on `tasks` — no per-test rebuild of the
  /// whole set.
  struct CachedDemand {
    bool dirty = true;
    std::vector<sched::NpTask> tasks;
    double util = 0.0;
    double shrink_floor_util = 0.0;
    rt::Cycles busy_hint = 0;
  };

  /// The refreshed cache for processor `p` (rebuilds from
  /// committed_[p] when a mutation marked it dirty).
  CachedDemand& demand(int p) const;

  /// Marks `p`'s cache stale after a commitment leaves or a split
  /// piece lands: the next demand(p) rebuilds it and resets the busy
  /// hint.
  void demand_invalidate(int p);

  /// Appends the just-committed `c` to `p`'s cache and promotes the
  /// busy length computed by the admitting demand test into the warm
  /// hint (that test ran over exactly the new committed set).
  void demand_append(int p, const Commitment& c);

  /// Moves committed_[p][i] to `rung` of its ladder, updating its
  /// task cost, the cache's task and utilization and resetting the
  /// busy hint (the shrunk or grown set has a different busy period).
  void move_rung(int p, std::size_t i, std::size_t rung);

  /// True when `candidate` fits processor `p` on top of its current
  /// commitments (policy demand test + utilization cap).
  bool fits(int p, const sched::NpTask& candidate) const;

  /// The ladder of a controlled-stream contract (see Ladder), built on
  /// first use: fractions of the latency window and multiples of the
  /// qmin minimum, share-capped, the qmin minimum always last.
  Ladder& ladder(int macroblocks, rt::Cycles latency, rt::Cycles period);

  /// Whether rung `i` of `l` certifies the qmin worst case; compiles
  /// the rung's system on the first query.
  bool certified(Ladder& l, std::size_t i);

  /// Records the commitment of an accepted candidate on processor `p`
  /// (committed cost `task.cost`) and fills `out` (shared tail of the
  /// placement paths).
  void commit_and_fill(const StreamSpec& spec, const Candidate& cand,
                       const sched::NpTask& task, int p, int preferred,
                       Placement* out);

  /// Tries one candidate on the preferred processor first, then the
  /// others; commits and fills `out` on success.  With preferred = -1
  /// the sweep runs least-loaded first and every processor charges the
  /// migration surcharge.  Skips the sweep past the preferred
  /// processor when even the least-loaded live processor fails the
  /// utilization cap for the surcharged task (exact: see the file
  /// comment).
  bool try_place(const StreamSpec& spec, const Candidate& cand,
                 int preferred, Placement* out);

  /// Probe order for a stream with no preferred processor: ascending
  /// (committed utilization, index).  Cached between commitment
  /// mutations — a rejection sweep re-reads the same order per
  /// candidate, so rebuilding it each time would be pure waste.
  const std::vector<int>& unpreferred_order() const;

  /// Marks unpreferred_order() and least_loaded() stale: called by every
  /// commitment mutation hook and by fail_processor().
  void loads_changed();

  /// Like try_place, but allowed to shrink running controlled
  /// commitments (largest budget headroom first, one ladder rung at a
  /// time) until the candidate fits; rolls back on failure, restoring
  /// the saved rungs and the processor's busy hint.  Skips a
  /// processor untouched when it has failed or when its
  /// shrink_floor_util plus the candidate's term exceeds the cap
  /// (exact: see the file comment).  Appends the imposed shrinks to
  /// pending_renegotiations_ on success.
  bool try_place_renegotiating(const StreamSpec& spec, const Candidate& cand,
                               int preferred, Placement* out);

  /// C=D semi-partitioning (SchedulingSpec::split): places the stream
  /// as a zero-slack head piece (C1, D = C1, T = P) on one processor
  /// plus the remainder (cost - C1 + migration surcharge,
  /// D = K*P - C1, T = P) on a higher-indexed one.  C1 is the largest
  /// head the first processor admits (binary search over the demand
  /// test).  Commits both pieces and fills `out` on success.  Split
  /// pieces are never renegotiated, restored, or ladder-downgraded.
  bool try_place_split(const StreamSpec& spec, const Candidate& cand,
                       Placement* out);

  /// The committed set of processor `p` is schedulable as-is (policy
  /// demand test + utilization cap, no candidate).
  bool set_schedulable(int p) const;

  /// Restore pass after a departure freed capacity on `p`: grow
  /// previously-shrunk controlled commitments back toward the rung
  /// they were admitted at, largest deficit first, one certified
  /// ladder rung at a time, while the set stays schedulable.  Appends
  /// grow records (effective at `now`) to pending_renegotiations_.
  void restore_pass(int p, rt::Cycles now);

  AdmissionConfig config_;
  SchedulingSpec sched_;
  TableCache* tables_;
  std::vector<std::vector<Commitment>> committed_;  ///< per processor
  std::vector<bool> failed_;                        ///< per processor
  std::vector<BudgetRenegotiation> pending_renegotiations_;
  /// Accumulated by the const demand tests (fits / set_schedulable);
  /// the control plane is sequential, so plain mutable is safe.
  mutable sched::EdfScanStats scan_stats_;
  /// Per-processor incremental demand caches (lazily refreshed by the
  /// const test paths, hence mutable — control plane is sequential).
  mutable std::vector<CachedDemand> demand_;
  /// Busy length reported by the most recent QPA test (0 under the
  /// exact scan, which neither needs nor feeds warm hints).
  mutable rt::Cycles last_test_busy_ = 0;
  /// Ladders by (macroblocks, latency, period); map nodes are stable,
  /// so commitments point into it.
  std::map<std::tuple<int, rt::Cycles, rt::Cycles>, Ladder> ladders_;
  /// unpreferred_order and least_loaded caches, marked stale by
  /// loads_changed().
  mutable std::vector<int> unpreferred_cache_;
  mutable bool unpreferred_dirty_ = true;
  mutable int least_loaded_ = -1;  ///< -1: stale
  /// stream id -> processors holding one of its commitments (one
  /// entry per commit, so a C=D split records two).  Pure accelerator
  /// for release(): a leave touches only the hosting processors
  /// instead of sweeping the fleet — the other half of what keeps
  /// steady-state churn O(residents of one processor) at 10k+
  /// resident streams (BM_AdmissionThroughput).
  std::unordered_map<int, std::vector<int>> host_of_;
  long long split_count_ = 0;
};

}  // namespace qosctrl::farm
