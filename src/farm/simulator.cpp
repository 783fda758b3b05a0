#include "farm/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <tuple>
#include <utility>

#include "farm/event_sink.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace qosctrl::farm {
namespace {

constexpr rt::Cycles kNever = std::numeric_limits<rt::Cycles>::max();

/// The rate a stream's camera, rate control and bitrate accounting
/// run at.  `nominal_fps` is the camera rate at the default pacing; a
/// stream whose period is scaled by a factor f runs at
/// nominal_fps / f, so per-stream kbps figures are comparable across
/// heterogeneous periods.
double stream_frame_rate(const StreamSpec& spec, double nominal_fps) {
  return nominal_fps *
         static_cast<double>(default_frame_period(macroblocks_of(spec))) /
         static_cast<double>(period_of(spec));
}

/// The session config a StreamSpec expands to.  Seeds (cost jitter and
/// video content) are forked from the farm seed by stream id, so the
/// expansion is a pure function — any worker thread gets the same one.
pipe::PipelineConfig stream_pipeline_config(const StreamSpec& spec,
                                            std::uint64_t farm_seed,
                                            double nominal_fps) {
  pipe::PipelineConfig cfg;
  cfg.video.width = spec.width;
  cfg.video.height = spec.height;
  cfg.video.num_frames = spec.num_frames;
  cfg.video.num_scenes = spec.num_scenes;
  cfg.frame_period = period_of(spec);
  cfg.buffer_capacity = spec.buffer_capacity;
  cfg.mode = spec.mode;
  cfg.constant_quality = spec.constant_quality;
  cfg.rate.frame_rate = stream_frame_rate(spec, nominal_fps);
  util::Rng derive = util::Rng(farm_seed).fork(
      static_cast<std::uint64_t>(spec.id));
  cfg.seed = spec.seed != 0 ? spec.seed : derive.next_u64();
  cfg.video.seed = derive.next_u64();
  return cfg;
}

/// Control-plane order of stream joins: by (join time, id).
bool joins_before(const StreamSpec& a, const StreamSpec& b) {
  return std::tie(a.join_time, a.id) < std::tie(b.join_time, b.id);
}

/// The placement serving segment `seg` of a stream (0 = base).
const Placement& segment_placement(const StreamOutcome& so, std::size_t seg) {
  return seg == 0 ? so.placement : so.failover[seg - 1].placement;
}

/// End of the outage a FailureEvent injects: service is down for t in
/// [time, outage_end) (kNever when permanent).
rt::Cycles outage_end(const FailureEvent& ev) {
  return ev.permanent() ? kNever : ev.time + ev.repair;
}

/// One frame a C=D split stream's head piece finished and handed to
/// its tail piece on the (always higher-indexed) tail processor.  The
/// head owns the encode — the record is final when the entry is
/// written — and the tail piece is a pure service relay: it burns the
/// remaining demand and does the display-deadline accounting.
struct HandoffEntry {
  int frame = 0;
  rt::Cycles arrival = 0;  ///< camera arrival (latency measured from it)
  /// When the tail job becomes ready.  The C=D analysis releases the
  /// tail at arrival + C1 (head deadline), which keeps tail releases
  /// exactly periodic as the admission test assumed; when the head
  /// finishes late (policed overload), the actual completion wins so
  /// the handoff stays causal.
  rt::Cycles release = 0;
  rt::Cycles deadline = 0;  ///< display deadline (tail's EDF key)
  rt::Cycles demand = 0;    ///< service cycles still owed by the tail
  pipe::FrameRecord rec{};  ///< the final record the head produced
};

/// What the data plane records for one stream segment (the base
/// placement, or a failover re-admission): the tallies the stitch
/// folds into StreamOutcome and, for a C=D split segment, the handoff
/// buffer the head piece writes and the tail piece reads.
struct SegmentResult {
  int display_misses = 0;
  std::vector<rt::Cycles> lags;  ///< start lag of every dispatched frame
  StreamFaultStats faults;
  /// First completion of a delivered (non-concealed) frame within its
  /// display deadline; -1 when the segment never got one.  Recovery
  /// latency of a failover segment = first_ontime - failure time.
  rt::Cycles first_ontime = -1;
  std::vector<HandoffEntry> handoff;
};

/// Everything the data plane produces for one admitted stream: the
/// frame records of all its segments (which serve disjoint frame
/// ranges), one result per segment, and the certified budget ladder
/// the overrun policer steps along (empty: none).  Workers only read
/// `so`; the stitch writes the outcome through it.
struct StreamRun {
  StreamOutcome* so = nullptr;
  std::vector<pipe::FrameRecord> records;
  std::vector<SegmentResult> segments;  ///< 0 = base, k = failover[k - 1]
  std::vector<CertifiedRung> ladder;
};

/// The share of a segment's service one processor runs: all of it, or
/// the head or tail piece of a C=D split.
enum class Piece { kWhole, kHead, kTail };

/// One stream segment assigned to a processor's run queue.  Workers
/// write only into the stream's StreamRun, and segments of one stream
/// serve disjoint frame ranges, so workers never race.  A C=D split
/// segment contributes two assignments — the head and the tail relay
/// — sharing the segment's result; the level-ordered worker pool runs
/// the head's processor to completion before the tail's starts, so
/// the sharing is sequential.
struct Assignment {
  StreamRun* run = nullptr;
  std::size_t segment = 0;  ///< 0 = base placement, k > 0 = failover[k - 1]
  Piece piece = Piece::kWhole;
};

/// A frame queued on a processor.
struct FrameJob {
  rt::Cycles deadline;  ///< display deadline (EDF key)
  int stream;           ///< index into the processor's stream list
  int frame;            ///< camera frame index
  rt::Cycles arrival;

  bool operator<(const FrameJob& o) const {
    return std::tie(deadline, stream, frame) <
           std::tie(o.deadline, o.stream, o.frame);
  }
};

/// A frame reaching a processor: a camera arrival, or a relay's
/// handoff entry.
struct Arrival {
  rt::Cycles time;
  int stream;  ///< index into the processor's stream list
  int item;    ///< camera frame index, or a relay's handoff entry index

  bool operator<(const Arrival& o) const {
    return std::tie(time, stream, item) <
           std::tie(o.time, o.stream, o.item);
  }
};

/// One assigned stream segment's simulation state on its processor.
/// A C=D head piece (split_head > 0) encodes as usual but serves at
/// most split_head cycles per frame under the tight head deadline,
/// handing the remainder off.  A tail relay has *no session* — its
/// frames' records are final when they arrive — and every
/// session-touching path must be guarded on relay().
struct StreamState : Assignment {
  const StreamSpec* spec = nullptr;
  const std::vector<BudgetEpoch>* epochs = nullptr;
  SegmentResult* res = nullptr;
  /// C=D head piece: the committed zero-slack budget C1 (the head's
  /// EDF deadline is arrival + C1, not the display deadline).
  rt::Cycles split_head = 0;
  std::unique_ptr<pipe::StreamSession> session;
  std::optional<FaultPlan> plan;
  int queued = 0;        ///< frames waiting (excluding dispatched ones)
  std::size_t epoch_idx = 0;  ///< budget epoch of the last dispatch
  /// Overrun-policer state.
  int force_rung = -1;  ///< ladder rung imposed by the policer (-1: none)
  int strikes = 0;      ///< policed overruns toward quarantine
  rt::Cycles quarantined_until = -1;  ///< arrivals before this are dropped
  bool pending_qmin = false;  ///< re-enter at the qmin rung on release
  /// The budget the current tables are paced over and the committed
  /// worst case the policer cuts at (budget + migration surcharge).
  rt::Cycles enforce_budget = 0;
  rt::Cycles enforce_cost = 0;

  bool relay() const { return piece == Piece::kTail; }
};

/// A frame in service (or suspended mid-service by a preemption).
/// The frame's content, bits, and total service demand are fixed at
/// first dispatch (the encode is a pure function of the stream's own
/// state); the scheduler then accounts the demand cycle-accurately
/// across service segments.
struct ActiveJob {
  FrameJob job{};
  pipe::FrameRecord rec{};
  FrameFaults faults{};          ///< drawn once at first dispatch
  bool aborted = false;          ///< cut off by the budget policer
  rt::Cycles remaining = 0;      ///< service cycles still owed
  rt::Cycles dispatched_at = 0;  ///< start of the current segment
  /// Cycles this processor does *not* serve: on a split head, the
  /// share handed to the tail; on a tail relay, the full relayed
  /// demand (so outage accounting knows what was consumed locally).
  rt::Cycles tail_demand = 0;
};

/// One processor's run queue, simulated to completion under the
/// scenario's scheduling policy, with this processor's injected
/// outages sorted by (start, end).  One member per event; run() plays
/// them in virtual-time order.  Writes the per-stream frame records
/// back through the assignments (segments of one stream serve disjoint
/// frame ranges, so no locking) and reports every event once to `ev`,
/// this processor's private observability sink.
struct ProcessorLoop {
  const FarmConfig& config;
  const sched::PolicyParams& policy;
  const FaultSpec& faults;
  const std::vector<FailureEvent>& outages;
  ProcessorOutcome& out;
  EventSink& ev;
  // Run state, brace-initialized like ControlPlane's.
  std::vector<StreamState> streams{};
  std::vector<Arrival> arrivals{};  ///< all of them, in (time, stream) order
  std::size_t next_arrival = 0;
  std::set<FrameJob> ready{};  ///< the run queue, EDF by display deadline
  /// Jobs suspended mid-service, keyed by (stream, frame).
  std::map<std::pair<int, int>, ActiveJob> suspended{};
  std::optional<ActiveJob> running{};
  rt::Cycles now = 0;
  std::size_t next_outage = 0;
  rt::Cycles blackout_until = -1;  ///< end of the current transient outage
  bool halted = false;             ///< permanently failed

  /// At one instant: a repair, then failures (after completions — a
  /// frame finishing exactly at the failure instant was delivered),
  /// then arrivals, then a due preemption or else a dispatch, each
  /// followed by a fresh pass; time advances only when none is due.
  void run(const std::vector<Assignment>& assigned) {
    streams.reserve(assigned.size());
    for (const Assignment& asg : assigned) host(asg);
    std::sort(arrivals.begin(), arrivals.end());
    while (running || !ready.empty() || next_arrival < arrivals.size()) {
      if (!halted && blackout_until >= 0 && now >= blackout_until) repair();
      while (next_outage < outages.size() &&
             now >= outages[next_outage].time) {
        fail(outages[next_outage++]);
      }
      while (next_arrival < arrivals.size() &&
             arrivals[next_arrival].time <= now) {
        arrive(arrivals[next_arrival++]);
      }
      if (preemption_at() <= now) {
        preempt();
      } else if (!running && !ready.empty() && !halted &&
                 blackout_until < 0) {
        dispatch();
      } else if (!advance()) {
        break;  // unreachable: some event is always due
      }
    }
    out.streams_hosted = static_cast<int>(streams.size());
    out.utilization = out.span_cycles > 0
                          ? static_cast<double>(out.busy_cycles) /
                                static_cast<double>(out.span_cycles)
                          : 0.0;
  }

  /// Adds an assigned stream segment and its arrivals: camera frame f
  /// of the segment's range at join_time + f * P, or each handoff entry
  /// of a relay, which its head piece wrote before this processor's
  /// level ran.
  void host(const Assignment& asg) {
    const StreamOutcome& so = *asg.run->so;
    const int s = static_cast<int>(streams.size());
    StreamState& st = streams.emplace_back();
    static_cast<Assignment&>(st) = asg;
    st.spec = &so.spec;
    st.epochs = asg.segment == 0 ? &so.epochs
                                 : &so.failover[asg.segment - 1].epochs;
    st.res = &asg.run->segments[asg.segment];
    if (st.relay()) {
      // Releases never decrease: a head completes its frames in order.
      for (std::size_t k = 0; k < st.res->handoff.size(); ++k) {
        arrivals.push_back(
            {st.res->handoff[k].release, s, static_cast<int>(k)});
      }
      return;
    }
    if (asg.piece == Piece::kHead) {
      st.split_head = segment_placement(so, asg.segment).head_cost;
    }
    const std::vector<FailoverSegment>& fo = so.failover;
    const std::size_t seg = asg.segment;
    const int end = seg < fo.size() ? fo[seg].first_frame : so.spec.num_frames;
    for (int f = seg == 0 ? 0 : fo[seg - 1].first_frame; f < end; ++f) {
      arrivals.push_back(
          {so.spec.join_time + rt::Cycles{f} * period_of(so.spec), s, f});
    }
    const BudgetEpoch& initial = st.epochs->front();
    st.session = std::make_unique<pipe::StreamSession>(
        stream_pipeline_config(so.spec, config.seed, config.frame_rate),
        initial.table_budget, initial.system);
    if (faults.any()) st.session->track_delivery();
    st.plan.emplace(faults, config.seed, so.spec.id);
    st.enforce_budget = initial.table_budget;
    st.enforce_cost = initial.committed_cost;
  }

  StreamState& stream(int s) { return streams[static_cast<std::size_t>(s)]; }

  /// Whether an event at instant `t` falls inside any injected outage.
  /// Tested against the outage intervals (not simulation state): the
  /// answer is a pure function of (fault spec, t), independent of how
  /// the event loop interleaves transitions at equal instants.
  bool in_blackout(rt::Cycles t) const {
    for (const FailureEvent& o : outages) {
      if (t >= o.time && t < outage_end(o)) return true;
    }
    return false;
  }

  /// Ends the transient outage due now.  Encoder state was lost, so
  /// every session re-syncs with a forced intra frame.
  void repair() {
    blackout_until = -1;
    for (StreamState& st : streams) {
      if (st.session != nullptr) st.session->reset_reference();
    }
    ev.processor_repair(now);
  }

  /// Outage `o` starts: everything in flight or queued is lost to it.
  void fail(const FailureEvent& o) {
    ev.processor_fail(now, o.permanent(), outage_end(o));
    if (running) {
      conceal_in_service(*running, true);
      running.reset();
    }
    for (const auto& [key, a] : suspended) {
      conceal_in_service(a, false);
      ready.erase(a.job);
    }
    suspended.clear();
    purge(obs::ConcealReason::kQueuedOutage);
    if (o.permanent()) {
      halted = true;
    } else {
      blackout_until = std::max(blackout_until, outage_end(o));
    }
  }

  /// A frame reaches the processor: it joins the run queue unless it is
  /// lost to an outage, dropped by a quarantine, or skipped by a full
  /// input buffer.  A relay's handoff entry needs no camera-buffer or
  /// quarantine logic — the head already applied both.
  void arrive(const Arrival& a) {
    StreamState& st = stream(a.stream);
    if (st.relay()) {
      const HandoffEntry& e =
          st.res->handoff[static_cast<std::size_t>(a.item)];
      if (in_blackout(a.time)) {
        // The head's delivered record stands, but the viewer never
        // sees the frame: mark it concealed in place (the encoder
        // reference lives with the head, which has already moved
        // on — a documented approximation of a mid-chain loss).
        conceal(st, e.frame, obs::ConcealReason::kArrivalOutage);
        return;
      }
      ++st.queued;
      ready.insert(FrameJob{e.deadline, a.stream, e.frame, e.arrival});
      ev.enqueue(now, ready.size());
      return;
    }
    const int f = a.item;
    if (in_blackout(a.time)) {
      // The processor is down: nobody services this frame.
      conceal(st, f, obs::ConcealReason::kArrivalOutage);
      return;
    }
    if (st.quarantined_until >= 0) {
      if (a.time < st.quarantined_until) {
        conceal(st, f, obs::ConcealReason::kQuarantineDrop);
        return;
      }
      // Quarantine over: re-admit at the qmin rung.
      st.quarantined_until = -1;
      if (st.pending_qmin && !st.run->ladder.empty()) {
        st.force_rung = static_cast<int>(st.run->ladder.size()) - 1;
      }
      st.pending_qmin = false;
    }
    if (st.queued >= st.spec->buffer_capacity) {
      // Input buffer full: the camera drops the frame.
      st.run->records[f] = st.session->skip(f);
      ev.camera_skip();
      return;
    }
    // A C=D head piece runs under its zero-slack head deadline
    // arrival + C1 (what the admission test certified), not the
    // display deadline — the tail's slack lives downstream.
    const rt::Cycles edf_deadline = st.split_head > 0
                                        ? a.time + st.split_head
                                        : a.time + latency_of(*st.spec);
    ++st.queued;
    ready.insert(FrameJob{edf_deadline, a.stream, f, a.time});
    ev.enqueue(now, ready.size());
  }

  /// Conceals the queued frames of `only` (of every stream when null)
  /// for `reason` and takes them off the run queue.
  void purge(obs::ConcealReason reason, const StreamState* only = nullptr) {
    for (auto it = ready.begin(); it != ready.end();) {
      StreamState& st = stream(it->stream);
      if (only != nullptr && &st != only) {
        ++it;
        continue;
      }
      conceal(st, it->frame, reason);
      --st.queued;
      it = ready.erase(it);
    }
    ev.queue_depth(now, ready.size());
  }

  /// The earliest instant the policy lets the top ready job displace
  /// the runner; kNever when it would not preempt at all.  Only a
  /// strictly earlier display deadline preempts — EDF gains nothing
  /// from switching between equal-deadline jobs, so the run queue's
  /// (stream, frame) tie-break must not trigger paid context switches.
  rt::Cycles preemption_at() const {
    if (!running || ready.empty() ||
        ready.begin()->deadline >= running->job.deadline) {
      return kNever;
    }
    const rt::Cycles pp =
        sched::preemption_point(policy, running->dispatched_at, now);
    return pp >= sched::kNeverPreempts ? kNever : std::max(now, pp);
  }

  /// Suspends the runner (switch-out charge); the displacing job is
  /// dispatched on the next pass.
  void preempt() {
    const ActiveJob a = *running;
    running.reset();
    suspended.emplace(std::make_pair(a.job.stream, a.job.frame), a);
    ready.insert(a.job);
    ++out.preemptions;
    ev.preempt(now, stream(a.job.stream).spec->id, a.job.frame, a.remaining,
               ready.size());
    out.overhead_cycles += policy.context_switch_cost;
    now += policy.context_switch_cost;
  }

  /// Selects the tables frame `arrival` is paced over: its budget
  /// epoch (renegotiations), capped by any policer-forced ladder rung.
  /// Also refreshes the policer's cut threshold — the committed worst
  /// case enforce_budget + migration surcharge.
  void resolve_system(StreamState& st, rt::Cycles arrival) {
    while (st.epoch_idx + 1 < st.epochs->size() &&
           (*st.epochs)[st.epoch_idx + 1].from_time <= arrival) {
      ev.epoch_switch(now, st.spec->id,
                      (*st.epochs)[st.epoch_idx].table_budget,
                      (*st.epochs)[st.epoch_idx + 1].table_budget);
      ++st.epoch_idx;
    }
    const BudgetEpoch& ep = (*st.epochs)[st.epoch_idx];
    rt::Cycles budget = ep.table_budget;
    std::shared_ptr<const enc::EncoderSystem> sys = ep.system;
    if (st.force_rung >= 0) {
      const CertifiedRung& rung =
          st.run->ladder[static_cast<std::size_t>(st.force_rung)];
      if (rung.table_budget < budget) {
        budget = rung.table_budget;
        sys = rung.system;
      }
    }
    if (sys != nullptr && &st.session->system() != sys.get()) {
      st.session->switch_system(sys);
    }
    st.enforce_budget = budget;
    st.enforce_cost = budget + (ep.committed_cost - ep.table_budget);
  }

  /// Starts (or resumes) the job at the head of the run queue.
  void dispatch() {
    const FrameJob job = *ready.begin();
    ready.erase(ready.begin());
    StreamState& st = stream(job.stream);
    const int sid = st.spec->id;
    ev.queue_depth(now, ready.size());
    ActiveJob a;
    auto it = suspended.find(std::make_pair(job.stream, job.frame));
    if (it != suspended.end()) {
      // Resuming a preempted frame: the switch-in half of its
      // preemption charge.
      a = it->second;
      suspended.erase(it);
      out.overhead_cycles += policy.context_switch_cost;
      now += policy.context_switch_cost;
      ev.resume(now, sid, job.frame, a.remaining);
    } else if (st.relay()) {
      // Tail relay: the record is final; just serve the remaining
      // demand.  Dispatch/lag metrics were taken at the head.
      --st.queued;
      const std::vector<HandoffEntry>& entries = st.res->handoff;
      const auto eit = std::lower_bound(
          entries.begin(), entries.end(), job.frame,
          [](const HandoffEntry& h, int f) { return h.frame < f; });
      a.job = job;
      a.rec = eit->rec;
      a.remaining = eit->demand;
      a.tail_demand = eit->demand;
      ev.dispatch_relay(now, sid, job.frame, job.deadline);
    } else {
      --st.queued;
      resolve_system(st, job.arrival);
      // Elapsed time is measured from service start (t0 = 0): the
      // session's tables are paced over the reserved budget, and the
      // queueing delay lives in the latency slack K*P - B instead.
      a.job = job;
      a.rec = st.session->encode(job.frame, 0);
      a.rec.start_lag = now - job.arrival;
      a.faults = st.plan->at(job.frame);
      rt::Cycles demand = a.rec.encode_cycles;
      if (faults.overrun.enabled() && a.faults.overrun) {
        // Injected WCET overrun: the frame demands `factor` times its
        // honest cost.  The policer cuts it off at the stream's
        // committed worst case — co-resident streams never pay.
        a.rec.overrun = true;
        ++st.res->faults.overruns_injected;
        demand = std::max(
            demand, static_cast<rt::Cycles>(std::llround(
                        static_cast<double>(demand) * faults.overrun.factor)));
        if (demand > st.enforce_cost) {
          ++st.res->faults.overruns_policed;
          a.aborted = true;
          a.rec.aborted = true;
          demand = st.enforce_cost;
        }
        a.rec.encode_cycles = demand;
      }
      // C=D head: serve at most the committed head piece here; the
      // remainder crosses to the tail processor at completion.
      if (st.split_head > 0 && demand > st.split_head) {
        a.tail_demand = demand - st.split_head;
      }
      a.remaining = demand - a.tail_demand;
      st.res->lags.push_back(a.rec.start_lag);
      ev.dispatch(now, sid, job.frame, job.deadline, a.rec.start_lag);
      if (a.rec.overrun) {
        ev.overrun_inject(now, sid, job.frame, demand, a.aborted);
      }
    }
    a.dispatched_at = now;
    running = a;
  }

  /// Cycles of service charged to this processor.
  void charge(rt::Cycles cycles) {
    out.busy_cycles += cycles;
    ev.busy(now, cycles);
  }

  /// Conceals frame `f` of `st` — the viewer keeps the previous
  /// picture — and tallies it: a quarantine drop against the stream,
  /// any other reason as a fault conceal of this processor too.  A
  /// relay has no session and marks the head's final record in place;
  /// a session stream drops the frame unless it was caught in service,
  /// whose record the caller already ran through lose().
  void conceal(StreamState& st, int f, obs::ConcealReason reason,
               rt::Cycles cycles = 0, bool in_service = false) {
    pipe::FrameRecord& rec = st.run->records[f];
    if (st.relay()) {
      rec.lost = true;
      rec.concealed = true;
    } else if (reason != obs::ConcealReason::kSuspendedOutage) {
      rec = st.session->drop(f);
    }
    if (reason == obs::ConcealReason::kQuarantineDrop) {
      ++st.res->faults.quarantine_drops;
    } else {
      ++st.res->faults.failure_drops;
      ++out.fault_conceals;
    }
    ev.conceal(now, st.spec->mode, st.spec->id, f, reason, cycles,
               in_service);
  }

  /// Conceals a frame caught in service (running or suspended) by a
  /// processor outage: the cycles already burned are charged, the
  /// frame is lost, the viewer keeps the previous picture.  The trace
  /// distinguishes the running frame (whose open service segment this
  /// terminates) from suspended ones (already closed by their
  /// preemption event).
  void conceal_in_service(const ActiveJob& a, bool was_running) {
    StreamState& st = stream(a.job.stream);
    rt::Cycles consumed = a.tail_demand - a.remaining;
    if (!st.relay()) {
      // Cycles actually consumed on this processor (a split head never
      // held its tail share).
      pipe::FrameRecord rec = a.rec;
      rec.encode_cycles -= a.remaining + a.tail_demand;
      consumed = rec.encode_cycles;
      st.run->records[a.job.frame] = st.session->lose(rec);
    }
    conceal(st, a.job.frame, obs::ConcealReason::kSuspendedOutage, consumed,
            was_running);
    charge(consumed);
  }

  /// Policer side effects of a frame it just aborted.
  void punish_overrun(StreamState& st) {
    const OverrunSpec& ospec = faults.overrun;
    switch (ospec.policy) {
      case OverrunPolicy::kAbortConceal:
        break;
      case OverrunPolicy::kDowngrade: {
        // Force the stream one certified rung below its current
        // effective budget (no-op when already on the qmin rung).
        const std::vector<CertifiedRung>& ladder = st.run->ladder;
        for (std::size_t r = 0; r < ladder.size(); ++r) {
          if (ladder[r].table_budget < st.enforce_budget) {
            st.force_rung = static_cast<int>(r);
            ++st.res->faults.forced_downgrades;
            break;
          }
        }
        break;
      }
      case OverrunPolicy::kQuarantine: {
        if (++st.strikes < ospec.quarantine_strikes) break;
        st.strikes = 0;
        st.quarantined_until =
            now + static_cast<rt::Cycles>(ospec.quarantine_periods) *
                      period_of(*st.spec);
        st.pending_qmin = true;
        ++st.res->faults.quarantines;
        ev.quarantine(now, st.spec->id, st.quarantined_until);
        // Already-queued frames of the offender are dropped too.
        purge(obs::ConcealReason::kQuarantineDrop, &st);
        break;
      }
    }
  }

  /// Finishes the running frame's service on this processor.  A tail
  /// relay's record is final (the head decoded it); a session frame is
  /// delivered, or concealed when the policer cut it or loss injection
  /// dropped it.  A delivered C=D head frame crosses to its tail piece,
  /// which decides the display verdict: the head records phases and
  /// its own share of busy time, not latency or a completion.
  void complete() {
    const ActiveJob& a = *running;
    StreamState& st = stream(a.job.stream);
    const int f = a.job.frame;
    pipe::FrameRecord rec = a.rec;
    if (!st.relay()) {
      if (a.aborted) {
        rec = st.session->lose(rec);
        ++st.res->faults.aborted_frames;
        punish_overrun(st);
      } else if (faults.loss.enabled() && a.faults.lost) {
        rec.lost = true;
        rec = st.session->lose(rec);
        ++st.res->faults.lost_frames;
      } else {
        rec = st.session->deliver(rec);
      }
      st.run->records[f] = rec;
    }
    if (st.split_head > 0 && !rec.concealed) {
      ev.complete_head(now, st.spec->id, f, rec.encode_cycles);
      ev.phases(now, rec.phase_cycles);
      charge(rec.encode_cycles - a.tail_demand);
      st.res->handoff.push_back(HandoffEntry{
          f, a.job.arrival, std::max(a.job.arrival + st.split_head, now),
          a.job.arrival + latency_of(*st.spec), a.tail_demand, rec});
    } else {
      if (!rec.concealed) {
        if (now > a.job.deadline) {
          ++st.res->display_misses;
          ev.display_miss(now, st.spec->mode, st.spec->id, f,
                          now - a.job.deadline);
        } else if (st.res->first_ontime < 0) {
          st.res->first_ontime = now;
        }
      }
      const obs::CompleteOutcome outcome =
          a.aborted       ? obs::CompleteOutcome::kAborted
          : rec.concealed ? obs::CompleteOutcome::kLost
                          : obs::CompleteOutcome::kDelivered;
      ev.complete(now, st.spec->mode, st.spec->id, f, now - a.job.arrival,
                  rec.encode_cycles, outcome);
      if (!st.relay()) ev.phases(now, rec.phase_cycles);
      // A relay serves the handed-off share; a concealed split-head
      // frame's tail share was never served anywhere.
      charge(st.relay() ? a.tail_demand : rec.encode_cycles - a.tail_demand);
      ++out.frames_encoded;
    }
    out.span_cycles = now;
    running.reset();
  }

  /// Advances to the next event — a completion, an arrival, an armed
  /// quantum-boundary preemption, or an outage boundary — and completes
  /// the runner if its service is done then.  False when no event is
  /// left.
  bool advance() {
    const rt::Cycles t_fin = running ? now + running->remaining : kNever;
    const rt::Cycles t_arr = next_arrival < arrivals.size()
                                 ? arrivals[next_arrival].time
                                 : kNever;
    const rt::Cycles t_black = next_outage < outages.size()
                                   ? outages[next_outage].time
                                   : kNever;
    const rt::Cycles t_repair =
        (!halted && blackout_until >= 0) ? blackout_until : kNever;
    rt::Cycles t =
        std::min({t_fin, t_arr, preemption_at(), t_black, t_repair});
    if (t == kNever) return false;
    t = std::max(t, now);  // an outage may start in the past
    if (running) running->remaining -= t - now;
    now = t;
    if (running && running->remaining == 0) complete();
    return true;
  }
};

/// The control plane: plays joins, leaves, permanent failures and the
/// rebalancer in virtual-time order against the sharded admission
/// plane, and records every verdict in the FarmResult it builds —
/// placements, budget epochs, failover segments, failure outcomes and
/// committed-utilization peaks.  Sequential, so placement depends only
/// on committed worst cases.
struct ControlPlane {
  const FarmScenario& scenario;
  const FarmConfig& config;
  ShardedControlPlane& plane;
  EventSink& control;
  // Run state, brace-initialized so ControlPlane{...} names only the
  // four references above without -Wmissing-field-initializers.
  FarmResult result{};
  std::map<int, StreamOutcome*> by_id{};
  using Leave = std::pair<rt::Cycles, int>;  // (leave time, stream id)
  std::priority_queue<Leave, std::vector<Leave>, std::greater<Leave>>
      leaves{};
  std::vector<std::size_t> perm{};  ///< permanent failures, in order
  std::size_t next_perm = 0;

  FarmResult run() {
    result.sched = scenario.sched;
    result.fault_spec = scenario.faults;
    result.farm_seed = config.seed;
    result.streams.reserve(scenario.streams.size());
    for (const StreamSpec& spec : scenario.streams) {
      result.streams.emplace_back().spec = spec;
    }
    for (StreamOutcome& so : result.streams) by_id[so.spec.id] = &so;
    result.processors.resize(
        static_cast<std::size_t>(config.num_processors));
    for (const FailureEvent& ev : scenario.faults.failures) {
      result.failures.emplace_back().event = ev;
    }
    result.shards = plane.num_shards();
    result.shard_outcomes.resize(static_cast<std::size_t>(result.shards));

    // Permanent failures in control-plane order: (time, processor,
    // scenario index).
    for (std::size_t k = 0; k < scenario.faults.failures.size(); ++k) {
      if (scenario.faults.failures[k].permanent()) perm.push_back(k);
    }
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      const FailureEvent& ea = scenario.faults.failures[a];
      const FailureEvent& eb = scenario.faults.failures[b];
      return std::tie(ea.time, ea.processor, a) <
             std::tie(eb.time, eb.processor, b);
    });

    // Joins, grouped into control batches: all joins in the same
    // control epoch window form one batch (every join is its own batch
    // when no epoch is configured).  Each join is still processed one
    // at a time in (time, id) order — batching sets the rebalance
    // cadence and the storm accounting, never the admission decisions.
    // A leave releases its commitment before any join at or after it;
    // a permanent failure is handled before any join at or after it
    // (so newcomers never land on a dead processor) and after leaves at
    // the same instant.
    std::vector<StreamOutcome*> order;
    order.reserve(result.streams.size());
    for (StreamOutcome& so : result.streams) order.push_back(&so);
    std::sort(order.begin(), order.end(),
              [](const StreamOutcome* a, const StreamOutcome* b) {
                return joins_before(a->spec, b->spec);
              });
    const rt::Cycles epoch = config.control_epoch;
    for (std::size_t b = 0; b < order.size();) {
      std::size_t e = b + 1;
      if (epoch > 0) {
        const rt::Cycles window = order[b]->spec.join_time / epoch;
        while (e < order.size() &&
               order[e]->spec.join_time / epoch == window) {
          ++e;
        }
      }
      for (std::size_t j = b; j < e; ++j) join(*order[j]);
      const rt::Cycles batch_end = order[e - 1]->spec.join_time;
      if (epoch > 0) {
        ++result.join_batches;
        result.max_join_batch =
            std::max(result.max_join_batch, static_cast<int>(e - b));
        control.join_batch(batch_end, static_cast<int>(e - b));
      }
      rebalance(batch_end);
      b = e;
    }
    // Departures and failures after the last join: drain to the end —
    // restore passes still grow long-lived incumbents, and a late
    // failure still displaces whoever remains.
    drain_until(kNever);
    return std::move(result);
  }

  void join(StreamOutcome& so) {
    drain_until(so.spec.join_time);
    so.placement = plane.admit(so.spec);
    apply_renegotiations();
    if (!so.placement.admitted) {
      control.reject(so.spec.join_time, so.spec.id);
      return;
    }
    so.epochs.insert(so.epochs.begin(),
                     opening_epoch(so.spec.join_time, so.placement));
    leaves.emplace(leave_time_of(so.spec), so.spec.id);
    note_peak(so.placement.processor);
    control.admit(so.spec.join_time, so.spec.id, so.placement,
                  plane.shard_of(so.placement.processor));
  }

  /// The budget epoch a fresh placement opens at `from`.
  static BudgetEpoch opening_epoch(rt::Cycles from, const Placement& pl) {
    return BudgetEpoch{from, pl.table_budget, pl.committed_cost, pl.system};
  }

  /// Budget changes imposed on running streams — shrinks by admission,
  /// grows by a departure's restore pass — each open a new budget
  /// epoch on their stream at the change's effective time (on the
  /// stream's currently-running segment: the latest failover one, if
  /// any).
  void apply_renegotiations() {
    for (BudgetRenegotiation& r : plane.take_renegotiations()) {
      StreamOutcome* victim = by_id.at(r.stream_id);
      bool& marked = r.grow ? victim->restored : victim->renegotiated;
      control.renegotiate(r.effective_time, r.stream_id, r.table_budget,
                          r.grow, !marked);
      if (!marked) {
        marked = true;
        ++(r.grow ? result.restored_streams : result.renegotiated_streams);
      }
      active_epochs(*victim).push_back(BudgetEpoch{
          r.effective_time, r.table_budget, r.committed_cost,
          std::move(r.system)});
    }
  }

  void note_peak(int processor) {
    const double u = plane.committed_utilization(processor);
    auto& proc = result.processors[static_cast<std::size_t>(processor)];
    proc.peak_committed_utilization =
        std::max(proc.peak_committed_utilization, u);
    auto& shard = result.shard_outcomes[static_cast<std::size_t>(
        plane.shard_of(processor))];
    shard.peak_committed_utilization =
        std::max(shard.peak_committed_utilization, u);
  }

  /// Opens a segment of `so`'s life on a new placement, serving from
  /// camera frame `first_frame` on: a failover re-admission after
  /// failure `failure_index`, or a rebalancer migration (-1).
  void open_segment(StreamOutcome& so, int failure_index, rt::Cycles at,
                    int first_frame, const Placement& pl) {
    const rt::Cycles from =
        so.spec.join_time +
        static_cast<rt::Cycles>(first_frame) * period_of(so.spec);
    so.failover.push_back(FailoverSegment{failure_index, at, first_frame, pl,
                                          {opening_epoch(from, pl)}});
    note_peak(pl.processor);
    if (failure_index >= 0) {
      control.failover(at, so.spec.id, pl.processor);
    } else {
      control.rebalance(at, so.spec.id, pl.processor,
                        plane.shard_of(pl.processor));
    }
  }

  /// A permanent processor failure: mark it dead, then release and
  /// re-admit its residents one by one (ascending stream id) across
  /// the survivors — migration, degradation, and renegotiation all
  /// apply, exactly as for a fresh join.  Each successful re-admission
  /// opens a failover segment serving the stream's first frame not yet
  /// due on the dead processor.
  void handle_failure(std::size_t k) {
    const FailureEvent& ev = scenario.faults.failures[k];
    FailureOutcome& fo = result.failures[k];
    if (plane.processor_failed(ev.processor)) return;  // already dead
    plane.fail_processor(ev.processor);
    auto& po = result.processors[static_cast<std::size_t>(ev.processor)];
    po.failed = true;
    po.failed_at = ev.time;
    for (int id : plane.resident_stream_ids(ev.processor)) {
      StreamOutcome& so = *by_id.at(id);
      plane.release(id, ev.time);
      apply_renegotiations();
      ++fo.displaced;
      const rt::Cycles period = period_of(so.spec);
      // First frame the survivors serve: the first arrival strictly
      // after the failure instant (an arrival at the instant itself is
      // concealed by the dying processor's blackout).
      const rt::Cycles elapsed = ev.time - so.spec.join_time;
      const int ff =
          elapsed >= 0 ? static_cast<int>(elapsed / period) + 1 : 0;
      if (ff >= so.spec.num_frames) continue;  // nothing left to serve
      StreamSpec resume = so.spec;
      resume.join_time =
          so.spec.join_time + static_cast<rt::Cycles>(ff) * period;
      resume.num_frames = so.spec.num_frames - ff;
      const Placement pl = plane.admit(resume);
      apply_renegotiations();
      if (!pl.admitted) {
        // No survivor can host it: the remaining frames stay with the
        // halted processor, which conceals every one of them.
        ++fo.dropped;
        ++result.failover_drops;
        control.failover_drop(ev.time, id, ev.processor);
        continue;
      }
      ++fo.readmitted;
      ++result.failover_readmissions;
      open_segment(so, static_cast<int>(k), ev.time, ff, pl);
      // The stream keeps its original leave time (same last frame), so
      // the leave entry already queued releases the new commitment.
    }
  }

  /// Processes every leave and permanent failure due at or before
  /// `t_limit`, leaves first at equal instants.
  void drain_until(rt::Cycles t_limit) {
    while (true) {
      const rt::Cycles t_leave = leaves.empty() ? kNever : leaves.top().first;
      const rt::Cycles t_fail =
          next_perm < perm.size()
              ? scenario.faults.failures[perm[next_perm]].time
              : kNever;
      if (t_leave == kNever && t_fail == kNever) break;
      if (t_leave > t_limit && t_fail > t_limit) break;
      if (t_leave <= t_fail) {
        plane.release(leaves.top().second, leaves.top().first);
        leaves.pop();
        apply_renegotiations();
      } else {
        handle_failure(perm[next_perm++]);
      }
    }
  }

  /// Cross-shard rebalancing, run after each control batch: migrate
  /// residents off the hottest shard while its pressure exceeds the
  /// watermark.  Each migration opens a failover segment with
  /// failure_index -1 — the data plane treats it exactly like a
  /// failover hand-off, minus the blackout.  The per-batch cap bounds
  /// churn even under adversarial load.
  void rebalance(rt::Cycles now) {
    if (config.rebalance_watermark <= 0.0) return;
    const int cap = 4 * plane.num_shards();
    int moved = 0;
    ShardMigration mg;
    while (moved < cap && plane.rebalance_step(now, &mg)) {
      ++moved;
      ++result.rebalance_migrations;
      StreamOutcome& so = *by_id.at(mg.stream_id);
      // mg.from_time is the first arrival the new placement serves;
      // against the stream's original join it names the absolute frame
      // index even after repeated migrations.
      const int first = static_cast<int>(
          (mg.from_time - so.spec.join_time) / period_of(so.spec));
      open_segment(so, -1, now, first, mg.placement);
      apply_renegotiations();
    }
  }
};

/// The data plane: compiles the overrun policer's certified ladders
/// (sequentially — TableCache is not thread-safe), assigns every
/// admitted stream's segments to processor run queues, and runs the
/// queues on up to FarmConfig::workers threads.  Returns one StreamRun
/// per admitted stream, in scenario order; writes the per-processor
/// outcomes into `result`.
std::vector<StreamRun> run_data_plane(const FarmScenario& scenario,
                                      const FarmConfig& config,
                                      ShardedControlPlane& plane,
                                      FarmSinks& sinks, FarmResult& result) {
  const bool need_ladders =
      scenario.faults.overrun.enabled() &&
      scenario.faults.overrun.policy != OverrunPolicy::kAbortConceal;
  const auto num_procs = static_cast<std::size_t>(config.num_processors);
  std::vector<StreamRun> runs;
  for (StreamOutcome& so : result.streams) {
    if (so.placement.admitted) runs.emplace_back().so = &so;
  }
  std::vector<StreamRun*> order;
  order.reserve(runs.size());
  for (StreamRun& run : runs) order.push_back(&run);
  std::sort(order.begin(), order.end(),
            [](const StreamRun* a, const StreamRun* b) {
              return joins_before(a->so->spec, b->so->spec);
            });
  std::vector<std::vector<Assignment>> per_processor(num_procs);
  // C=D handoff sources feeding each tail processor.
  std::vector<std::vector<int>> feeders(num_procs);
  for (StreamRun* r : order) {
    StreamRun& run = *r;
    const StreamOutcome& so = *run.so;
    run.records.resize(static_cast<std::size_t>(so.spec.num_frames));
    run.segments.resize(1 + so.failover.size());
    // Split placements get no ladder: their two pieces are priced as
    // one immutable commitment, so the policer's downgrade and
    // quarantine re-entry rungs would not match what was admitted.
    if (need_ladders && !so.placement.split &&
        so.spec.mode == pipe::ControlMode::kControlled) {
      run.ladder = plane.certified_ladder(
          macroblocks_of(so.spec), latency_of(so.spec), period_of(so.spec));
    }
    for (std::size_t seg = 0; seg < run.segments.size(); ++seg) {
      const Placement& pl = segment_placement(so, seg);
      per_processor[static_cast<std::size_t>(pl.processor)].push_back(
          {&run, seg, pl.split ? Piece::kHead : Piece::kWhole});
      if (pl.split) {
        const auto tail = static_cast<std::size_t>(pl.tail_processor);
        per_processor[tail].push_back({&run, seg, Piece::kTail});
        feeders[tail].push_back(pl.processor);
      }
    }
  }

  // Each processor's injected outages, by (start, end).
  std::vector<std::vector<FailureEvent>> outages(num_procs);
  for (const FailureEvent& ev : scenario.faults.failures) {
    outages[static_cast<std::size_t>(ev.processor)].push_back(ev);
  }
  for (std::vector<FailureEvent>& os : outages) {
    std::sort(os.begin(), os.end(),
              [](const FailureEvent& a, const FailureEvent& b) {
                return std::make_pair(a.time, outage_end(a)) <
                       std::make_pair(b.time, outage_end(b));
              });
  }

  // C=D handoff dependencies: a tail processor may only run once every
  // head processor feeding it has finished (the relay reads the head's
  // completed handoff buffer).  Heads always carry the lower index
  // (admission guarantees it), so one ascending pass computes final
  // levels; without splits every processor sits at level 0 and the
  // pool is a single fully-parallel drain.
  std::vector<std::size_t> level(num_procs, 0);
  std::vector<std::vector<int>> by_level;
  for (std::size_t p = 0; p < num_procs; ++p) {
    for (const int a : feeders[p]) {
      level[p] = std::max(level[p], level[static_cast<std::size_t>(a)] + 1);
    }
    if (level[p] >= by_level.size()) by_level.resize(level[p] + 1);
    by_level[level[p]].push_back(static_cast<int>(p));
  }
  const int workers = std::clamp(config.workers, 1, config.num_processors);
  for (const std::vector<int>& procs : by_level) {
    util::parallel_for(procs.size(), workers, [&](std::size_t s) {
      const auto p = static_cast<std::size_t>(procs[s]);
      ProcessorLoop{config, scenario.sched.policy, scenario.faults,
                    outages[p], result.processors[p],
                    sinks.processor(procs[s])}
          .run(per_processor[p]);
    });
  }
  return runs;
}

/// Folds each admitted stream's run into its StreamOutcome, each
/// failover segment's first on-time frame into its failure's recovery
/// latency, and every run into the fleet aggregates — one pass, in
/// scenario order.
void stitch(const FarmConfig& config, std::vector<StreamRun> runs,
            FarmResult& result) {
  result.total_streams = static_cast<int>(result.streams.size());
  result.quality_histogram.assign(
      platform::figure5_quality_levels().size(), 0);
  for (const ProcessorOutcome& po : result.processors) {
    result.total_preemptions += po.preemptions;
    result.total_overhead_cycles += po.overhead_cycles;
  }
  result.admitted = static_cast<int>(runs.size());
  result.rejected = result.total_streams - result.admitted;
  double psnr_sum = 0.0, ssim_sum = 0.0, quality_sum = 0.0;
  for (StreamRun& run : runs) {
    StreamOutcome& so = *run.so;
    std::vector<rt::Cycles> lags;
    for (std::size_t seg = 0; seg < run.segments.size(); ++seg) {
      const SegmentResult& sr = run.segments[seg];
      so.display_misses += sr.display_misses;
      so.faults += sr.faults;
      lags.insert(lags.end(), sr.lags.begin(), sr.lags.end());
      // Recovery latency of a permanent failure: from the failure
      // instant to the first on-time delivered frame of each segment
      // it re-admitted.
      if (seg == 0) continue;
      const FailoverSegment& fs = so.failover[seg - 1];
      if (fs.failure_index < 0 || sr.first_ontime < 0) continue;
      FailureOutcome& fo =
          result.failures[static_cast<std::size_t>(fs.failure_index)];
      ++fo.recovered;
      const rt::Cycles latency = sr.first_ontime - fo.event.time;
      fo.first_recovery = fo.first_recovery < 0
                              ? latency
                              : std::min(fo.first_recovery, latency);
      fo.full_recovery = std::max(fo.full_recovery, latency);
    }
    so.quarantined = so.faults.quarantines > 0;
    if (!lags.empty()) {
      std::sort(lags.begin(), lags.end());
      double lag_sum = 0.0;  // exact in any order: integers below 2^53
      for (rt::Cycles lag : lags) lag_sum += static_cast<double>(lag);
      so.max_start_lag = lags.back();
      so.mean_start_lag = lag_sum / static_cast<double>(lags.size());
      so.start_lag_p95 =
          lags[static_cast<std::size_t>(0.95 *
                                        static_cast<double>(lags.size() - 1))];
    }
    so.result = pipe::aggregate_records(
        std::move(run.records), so.placement.table_budget,
        stream_frame_rate(so.spec, config.frame_rate));
    so.internal_misses = so.result.total_deadline_misses;

    result.migrated += so.placement.migrated ? 1 : 0;
    result.degraded += so.placement.degraded ? 1 : 0;
    result.split_streams += so.placement.split ? 1 : 0;
    result.admitted_via_renegotiation +=
        so.placement.via_renegotiation ? 1 : 0;
    result.total_frames += static_cast<long long>(so.result.frames.size());
    result.total_skips += so.result.total_skips;
    result.total_concealed += so.result.total_concealed;
    result.total_display_misses += so.display_misses;
    result.total_internal_misses += so.internal_misses;
    result.faults_total += so.faults;
    if (so.quarantined) ++result.quarantined_streams;
    for (const pipe::FrameRecord& fr : so.result.frames) {
      psnr_sum += fr.psnr;
      ssim_sum += fr.ssim;
      if (fr.skipped || (fr.concealed && fr.encode_cycles == 0)) continue;
      ++result.encoded_frames;
      quality_sum += fr.mean_quality;
      const auto bucket = static_cast<std::size_t>(std::lround(
          std::clamp(fr.mean_quality, 0.0,
                     static_cast<double>(
                         result.quality_histogram.size() - 1))));
      ++result.quality_histogram[bucket];
    }
  }
  auto mean = [](double sum, long long n) {
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  result.rejection_rate = mean(result.rejected, result.total_streams);
  result.fleet_mean_psnr = mean(psnr_sum, result.total_frames);
  result.fleet_mean_ssim = mean(ssim_sum, result.total_frames);
  result.fleet_mean_quality = mean(quality_sum, result.encoded_frames);
}

/// Observability finalize: the control plane's admission effort and
/// per-shard accounting (the report layers render shards only when
/// the plane is actually sharded, keeping single-shard output stable),
/// then the sinks' merge into `result`.
void finalize(const ShardedControlPlane& plane, const FarmConfig& config,
              FarmSinks& sinks, FarmResult& result) {
  sinks.control().admission_effort(plane.scan_stats(), plane.split_count());
  for (int s = 0; s < plane.num_shards(); ++s) {
    ShardOutcome& o = result.shard_outcomes[static_cast<std::size_t>(s)];
    o.first_processor = plane.shard_base(s);
    o.num_processors = plane.shard_size(s);
    o.stats = plane.shard_stats(s);
    o.demand_tests = plane.shard_scan_stats(s).demand_tests;
  }
  sinks.finish(config, &result);
}

}  // namespace

FarmResult run_farm(const FarmScenario& scenario, const FarmConfig& config) {
  QC_EXPECT(config.num_processors >= 1, "farm needs >= 1 processor");
  QC_EXPECT(config.control_epoch >= 0,
            "control epoch must be non-negative");
  for (const FailureEvent& ev : scenario.faults.failures) {
    QC_EXPECT(ev.processor >= 0 && ev.processor < config.num_processors,
              "failure event targets a processor outside the farm");
    QC_EXPECT(ev.time >= 0 && ev.repair >= 0 && ev.repair <= kNever - ev.time,
              "failure event must start and end at cycle counts >= 0");
  }
  TableCache tables(platform::figure5_cost_table());
  ShardedControlPlane plane(
      config.num_processors,
      ShardPlaneConfig{config.shards, config.probe_shards,
                       config.rebalance_watermark},
      config.admission, &tables, scenario.sched);
  // Observability: one event sink per virtual processor plus the
  // sequential control plane's, merged in index order by finalize, so
  // every output is independent of the worker count.
  FarmSinks sinks(config, plane.num_shards());

  FarmResult result =
      ControlPlane{scenario, config, plane, sinks.control()}.run();
  std::vector<StreamRun> runs =
      run_data_plane(scenario, config, plane, sinks, result);
  stitch(config, std::move(runs), result);
  finalize(plane, config, sinks, result);
  return result;
}

}  // namespace qosctrl::farm
