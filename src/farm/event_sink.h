// One call per farm event, three observability sinks fed from it.
//
// The simulator reports each event exactly once to an EventSink, which
// fans it out to the always-on metrics registry, the windowed series
// (when FarmConfig::ts_window > 0, with the `@class` and `/shard<k>`
// variants) and the schedule trace (when FarmConfig::trace).  Entries
// and tracks are resolved once at construction and the sink does all
// the null-pointer branching, so with tracing and sampling off an
// event costs its registry increments plus a branch per sink.
//
// One sink per virtual processor (single writer: the worker simulating
// it) and one for the sequential control plane.  Every sink resolves
// the whole vocabulary; the planes call disjoint halves, and the merged
// outputs cannot tell.  docs/observability.md tabulates what each
// method feeds.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "farm/simulator.h"

namespace qosctrl::farm {

class EventSink {
 public:
  using PhaseCycles = std::array<rt::Cycles, enc::kNumEncodePhases>;

  /// `trace` / `series` null = off; shard tracks exist when sharded.
  EventSink(obs::Registry* metrics, obs::TraceBuffer* trace,
            obs::SeriesRecorder* series, int num_shards);

  // ----- Data plane.

  /// Run-queue depth after a dequeue or a purge (trace counter only).
  void queue_depth(rt::Cycles at, std::size_t depth) {
    push(obs::EventKind::kQueueDepth, at, -1, -1,
         static_cast<std::int64_t>(depth));
  }
  /// A camera frame or handed-off tail job joined the run queue.
  void enqueue(rt::Cycles at, std::size_t depth);
  /// The camera dropped a frame: the stream's input buffer was full.
  void camera_skip() { ++*counters_[kCameraSkips]; }
  /// A fresh frame enters service after waiting `start_lag`.
  void dispatch(rt::Cycles at, int stream, int frame, rt::Cycles deadline,
                rt::Cycles start_lag);
  /// A handed-off frame enters service on its tail relay.
  void dispatch_relay(rt::Cycles at, int stream, int frame,
                      rt::Cycles deadline) {
    push(obs::EventKind::kDispatch, at, stream, frame, deadline);
  }
  /// A preempted frame resumes (stamped after the switch-in charge).
  void resume(rt::Cycles at, int stream, int frame, rt::Cycles remaining) {
    push(obs::EventKind::kResume, at, stream, frame, remaining);
  }
  /// The running frame is suspended; `depth` is the queue after it.
  void preempt(rt::Cycles at, int stream, int frame, rt::Cycles remaining,
               std::size_t depth);
  /// An injected WCET overrun inflated the frame to `demand`.
  void overrun_inject(rt::Cycles at, int stream, int frame,
                      rt::Cycles demand, bool aborted) {
    push(obs::EventKind::kFaultInject, at, stream, frame, demand,
         aborted ? 1u : 0u);
  }
  /// A frame finished service (not kDelivered: also a concealment).
  void complete(rt::Cycles at, pipe::ControlMode cls, int stream, int frame,
                rt::Cycles latency, rt::Cycles encode_cycles,
                obs::CompleteOutcome outcome);
  /// A C=D head piece handed its frame to the tail, which completes it.
  void complete_head(rt::Cycles at, int stream, int frame,
                     rt::Cycles encode_cycles) {
    push(obs::EventKind::kComplete, at, stream, frame, encode_cycles,
         static_cast<std::uint32_t>(obs::CompleteOutcome::kDelivered));
  }
  /// Per-phase encode cycles of a frame this processor encoded.
  void phases(rt::Cycles at, const PhaseCycles& cycles);
  /// A delivered frame finished `lateness` cycles past its deadline.
  void display_miss(rt::Cycles at, pipe::ControlMode cls, int stream,
                    int frame, rt::Cycles lateness);
  /// A frame the viewer never sees; `in_service`: an outage cut the
  /// running frame after `cycles` of service here.
  void conceal(rt::Cycles at, pipe::ControlMode cls, int stream, int frame,
               obs::ConcealReason reason, rt::Cycles cycles = 0,
               bool in_service = false);
  /// A renegotiated budget took effect for the stream's next frame.
  void epoch_switch(rt::Cycles at, int stream, rt::Cycles old_budget,
                    rt::Cycles new_budget) {
    push(obs::EventKind::kEpochClose, at, stream, -1, old_budget);
    push(obs::EventKind::kEpochOpen, at, stream, -1, new_budget);
  }
  /// The overrun policer quarantined a stream until `until`.
  void quarantine(rt::Cycles at, int stream, rt::Cycles until) {
    push(obs::EventKind::kQuarantine, at, stream, -1, until);
  }
  /// An outage starts (`until` is ignored when permanent) or ends.
  void processor_fail(rt::Cycles at, bool permanent, rt::Cycles until) {
    push(obs::EventKind::kProcFail, at, -1, -1, permanent ? -1 : until,
         permanent ? 1u : 0u);
  }
  void processor_repair(rt::Cycles at) {
    push(obs::EventKind::kProcRepair, at, -1, -1, 0);
  }
  /// Service cycles charged to this processor.
  void busy(rt::Cycles at, rt::Cycles cycles) { record(busy_, at, cycles); }

  // ----- Control plane.

  void admit(rt::Cycles at, int stream, const Placement& placement,
             int shard);
  void reject(rt::Cycles at, int stream) {
    ++*counters_[kRejected];
    record(rejected_, at, 1);
    push(obs::EventKind::kReject, at, stream, -1, -1);
  }
  /// A budget shrink (`grow`: restore) of a running stream; `first`
  /// for the stream's first change in that direction.
  void renegotiate(rt::Cycles at, int stream, rt::Cycles budget, bool grow,
                   bool first);
  void failover(rt::Cycles at, int stream, int processor) {
    ++*counters_[kReadmissions];
    push(obs::EventKind::kFailover, at, stream, -1, processor);
  }
  void failover_drop(rt::Cycles at, int stream, int processor) {
    ++*counters_[kFailoverDrops];
    push(obs::EventKind::kFailoverDrop, at, stream, -1, processor);
  }
  void rebalance(rt::Cycles at, int stream, int processor, int to_shard);
  void join_batch(rt::Cycles at, int joins) {
    ++*counters_[kJoinBatches];
    push(obs::EventKind::kJoinBatch, at, -1, -1, joins);
  }
  void slo_alert(rt::Cycles at, long long window, int objective) {
    push(obs::EventKind::kSloAlert, at, -1, -1, window,
         static_cast<std::uint32_t>(objective));
  }
  /// The admission plane's demand-test effort over the whole run.
  void admission_effort(const sched::EdfScanStats& scan, long long splits);

 private:
  enum Counter {
    kDispatched, kCompleted, kPreemptions, kConcealed, kDisplayMisses,
    kCameraSkips, kAccepted, kRejected, kMigrations, kRenegotiations,
    kRestores, kReadmissions, kFailoverDrops, kJoinBatches, kRebalances,
    kNumCounters
  };
  enum Hist { kLatency, kStartLag, kQueue, kEncode, kNumHists };
  /// A series track and its per-class or per-shard variants; all null
  /// while sampling is off.
  struct Track {
    obs::SeriesTrack* all = nullptr;
    std::vector<obs::SeriesTrack*> parts;
  };

  void push(obs::EventKind kind, rt::Cycles at, int stream, int frame,
            std::int64_t arg, std::uint32_t aux = 0) {
    if (trace_ != nullptr) trace_->push(kind, at, stream, frame, arg, aux);
  }
  Track track(const std::string& base, std::vector<std::string> parts = {});
  /// Records into `t` and, when it has one, its variant `part`.
  void record(const Track& t, rt::Cycles at, long long value, int part = -1);
  void record(const Track& t, rt::Cycles at, long long value,
              pipe::ControlMode cls) {
    record(t, at, value, static_cast<int>(cls));
  }

  obs::Registry* metrics_;
  obs::TraceBuffer* trace_;
  obs::SeriesRecorder* series_;
  std::array<long long*, kNumCounters> counters_{};
  std::array<obs::Histogram*, kNumHists> hists_{};
  std::array<obs::Histogram*, enc::kNumEncodePhases> phase_hists_{};
  /// Cumulative per-phase cycles, the trace's phase counter tracks.
  std::array<long long, enc::kNumEncodePhases> phase_total_{};
  Track latency_, completed_, misses_, concealed_, queue_, encode_, busy_;
  std::array<Track, enc::kNumEncodePhases> phase_tracks_;
  Track admitted_, rejected_, rebalance_;
};

/// One run's registries, trace rings and series recorders (one per
/// virtual processor plus the control plane's) and their EventSinks.
class FarmSinks {
 public:
  FarmSinks(const FarmConfig& config, int num_shards);
  FarmSinks(const FarmSinks&) = delete;
  FarmSinks& operator=(const FarmSinks&) = delete;

  EventSink& processor(int p) { return sinks_[static_cast<std::size_t>(p)]; }
  EventSink& control() { return sinks_.back(); }

  /// Observability finalization: folds the series, registries and
  /// trace rings into `result` in index order, control plane last, and
  /// scores config.slos over the merged series.
  void finish(const FarmConfig& config, FarmResult* result);

 private:
  // Index p is processor p's; the last entry is the control plane's.
  std::vector<obs::Registry> registries_;
  std::optional<obs::TraceRecorder> trace_;
  std::vector<obs::SeriesRecorder> series_;
  std::vector<EventSink> sinks_;
};

}  // namespace qosctrl::farm
