#include "farm/event_sink.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace qosctrl::farm {

namespace tracks = obs::tracks;

EventSink::EventSink(obs::Registry* metrics, obs::TraceBuffer* trace,
                     obs::SeriesRecorder* series, int num_shards)
    : metrics_(metrics), trace_(trace), series_(series) {
  static constexpr const char* kCounterNames[kNumCounters] = {
      "frames_dispatched", tracks::kFramesCompleted, "preemptions",
      tracks::kFramesConcealed, tracks::kDisplayMisses, "camera_skips",
      "admission_accepted", "admission_rejected", "admission_migrations",
      "admission_renegotiations", "admission_restores",
      "failover_readmissions", "failover_drops", "join_batches",
      "rebalance_migrations"};
  static constexpr const char* kHistNames[kNumHists] = {
      tracks::kFrameLatency, "start_lag_cycles", tracks::kQueueDepth,
      tracks::kEncodeCycles};
  for (int c = 0; c < kNumCounters; ++c) {
    counters_[c] = &metrics->counter(kCounterNames[c]);
  }
  for (int h = 0; h < kNumHists; ++h) {
    hists_[h] = &metrics->histogram(kHistNames[h]);
  }
  for (std::size_t ph = 0; ph < phase_hists_.size(); ++ph) {
    const std::string name =
        std::string("phase_") +
        enc::encode_phase_name(static_cast<enc::EncodePhase>(ph)) + "_cycles";
    phase_hists_[ph] = &metrics->histogram(name);
    phase_tracks_[ph] = track(name);
  }

  static_assert(static_cast<std::size_t>(pipe::ControlMode::kFeedback) + 1 ==
                    tracks::kClassNames.size(),
                "one class name per control mode");
  auto by_class = [](const char* base) {
    std::vector<std::string> names;
    for (std::size_t c = 0; c < tracks::kClassNames.size(); ++c) {
      names.push_back(tracks::of_class(base, c));
    }
    return names;
  };
  auto by_shard = [&](const char* base) {
    std::vector<std::string> names;
    for (int k = 0; num_shards > 1 && k < num_shards; ++k) {
      names.push_back(tracks::of_shard(base, k));
    }
    return names;
  };
  latency_ = track(tracks::kFrameLatency, by_class(tracks::kFrameLatency));
  completed_ =
      track(tracks::kFramesCompleted, by_class(tracks::kFramesCompleted));
  misses_ = track(tracks::kDisplayMisses, by_class(tracks::kDisplayMisses));
  concealed_ =
      track(tracks::kFramesConcealed, by_class(tracks::kFramesConcealed));
  queue_ = track(tracks::kQueueDepth);
  encode_ = track(tracks::kEncodeCycles);
  busy_ = track(tracks::kBusyCycles);
  admitted_ = track(tracks::kAdmitted, by_shard(tracks::kAdmitted));
  rejected_ = track(tracks::kRejected);
  rebalance_ = track(tracks::kRebalance, by_shard(tracks::kRebalance));
}

EventSink::Track EventSink::track(const std::string& base,
                                  std::vector<std::string> parts) {
  Track t;
  if (series_ == nullptr) return t;
  t.all = &series_->track(base);
  for (const std::string& name : parts) {
    t.parts.push_back(&series_->track(name));
  }
  return t;
}

void EventSink::record(const Track& t, rt::Cycles at, long long value,
                       int part) {
  if (t.all == nullptr) return;
  series_->record(*t.all, at, value);
  if (part >= 0 && !t.parts.empty()) {
    series_->record(*t.parts[static_cast<std::size_t>(part)], at, value);
  }
}

// ----- Data plane.

void EventSink::enqueue(rt::Cycles at, std::size_t depth) {
  hists_[kQueue]->record(static_cast<long long>(depth));
  record(queue_, at, static_cast<long long>(depth));
  queue_depth(at, depth);
}

void EventSink::dispatch(rt::Cycles at, int stream, int frame,
                         rt::Cycles deadline, rt::Cycles start_lag) {
  ++*counters_[kDispatched];
  hists_[kStartLag]->record(start_lag);
  push(obs::EventKind::kDispatch, at, stream, frame, deadline);
}

void EventSink::preempt(rt::Cycles at, int stream, int frame,
                        rt::Cycles remaining, std::size_t depth) {
  ++*counters_[kPreemptions];
  push(obs::EventKind::kPreempt, at, stream, frame, remaining);
  queue_depth(at, depth);
}

void EventSink::complete(rt::Cycles at, pipe::ControlMode cls, int stream,
                         int frame, rt::Cycles latency,
                         rt::Cycles encode_cycles,
                         obs::CompleteOutcome outcome) {
  if (outcome != obs::CompleteOutcome::kDelivered) {
    ++*counters_[kConcealed];
    record(concealed_, at, 1, cls);
  }
  ++*counters_[kCompleted];
  hists_[kLatency]->record(latency);
  hists_[kEncode]->record(encode_cycles);
  record(completed_, at, 1, cls);
  record(latency_, at, latency, cls);
  record(encode_, at, encode_cycles);
  push(obs::EventKind::kComplete, at, stream, frame, encode_cycles,
       static_cast<std::uint32_t>(outcome));
}

void EventSink::phases(rt::Cycles at, const PhaseCycles& cycles) {
  for (std::size_t ph = 0; ph < cycles.size(); ++ph) {
    phase_hists_[ph]->record(cycles[ph]);
    phase_total_[ph] += static_cast<long long>(cycles[ph]);
    record(phase_tracks_[ph], at, static_cast<long long>(cycles[ph]));
  }
  for (std::size_t ph = 0; ph < phase_total_.size(); ++ph) {
    push(obs::EventKind::kPhaseCycles, at, -1, -1, phase_total_[ph],
         static_cast<std::uint32_t>(ph));
  }
}

void EventSink::display_miss(rt::Cycles at, pipe::ControlMode cls,
                             int stream, int frame, rt::Cycles lateness) {
  ++*counters_[kDisplayMisses];
  record(misses_, at, lateness, cls);
  push(obs::EventKind::kDeadlineMiss, at, stream, frame, lateness);
}

void EventSink::conceal(rt::Cycles at, pipe::ControlMode cls, int stream,
                        int frame, obs::ConcealReason reason,
                        rt::Cycles cycles, bool in_service) {
  ++*counters_[kConcealed];
  record(concealed_, at, 1, cls);
  push(in_service ? obs::EventKind::kConcealService : obs::EventKind::kConceal,
       at, stream, frame, cycles, static_cast<std::uint32_t>(reason));
}

// ----- Control plane.

void EventSink::admit(rt::Cycles at, int stream, const Placement& placement,
                      int shard) {
  ++*counters_[kAccepted];
  record(admitted_, at, 1, shard);
  const std::uint32_t flags = (placement.migrated ? 1u : 0u) |
                              (placement.degraded ? 2u : 0u) |
                              (placement.via_renegotiation ? 4u : 0u);
  push(obs::EventKind::kAdmit, at, stream, -1, placement.processor, flags);
  if (placement.migrated) {
    ++*counters_[kMigrations];
    push(obs::EventKind::kMigrate, at, stream, -1, placement.processor);
  }
}

void EventSink::renegotiate(rt::Cycles at, int stream, rt::Cycles budget,
                            bool grow, bool first) {
  if (first) ++*counters_[grow ? kRestores : kRenegotiations];
  push(grow ? obs::EventKind::kRestore : obs::EventKind::kRenegotiate, at,
       stream, -1, budget);
}

void EventSink::rebalance(rt::Cycles at, int stream, int processor,
                          int to_shard) {
  ++*counters_[kRebalances];
  record(rebalance_, at, 1, to_shard);
  push(obs::EventKind::kRebalance, at, stream, -1, processor,
       static_cast<std::uint32_t>(to_shard));
}

void EventSink::admission_effort(const sched::EdfScanStats& scan,
                                 long long splits) {
  metrics_->counter("admission_demand_tests") = scan.demand_tests;
  metrics_->counter("admission_busy_iterations") = scan.busy_iterations;
  metrics_->counter("admission_check_points") = scan.check_points;
  metrics_->counter("admission_qpa_points") = scan.qpa_points;
  metrics_->counter("admission_splits") = splits;
}

// ----- Wiring.

FarmSinks::FarmSinks(const FarmConfig& config, int num_shards)
    : registries_(static_cast<std::size_t>(config.num_processors) + 1) {
  if (config.trace) {
    QC_EXPECT(config.trace_buffer_capacity > 0,
              "trace buffer capacity must be positive");
    trace_.emplace(config.num_processors,
                   static_cast<std::size_t>(config.trace_buffer_capacity));
  }
  if (config.ts_window > 0) {
    series_.reserve(registries_.size());
    for (std::size_t p = 0; p < registries_.size(); ++p) {
      series_.emplace_back(config.ts_window);
    }
  }
  sinks_.reserve(registries_.size());
  for (std::size_t p = 0; p < registries_.size(); ++p) {
    sinks_.emplace_back(
        &registries_[p],
        trace_.has_value() ? trace_->processor(static_cast<int>(p)) : nullptr,
        series_.empty() ? nullptr : &series_[p], num_shards);
  }
}

void FarmSinks::finish(const FarmConfig& config, FarmResult* result) {
  // Each processor's busy track is also kept as busy_cycles/cpu<p>,
  // the per-processor utilization heatmap.
  for (std::size_t p = 0; p < series_.size(); ++p) {
    result->series.merge(series_[p]);
    if (p + 1 == series_.size()) break;  // the control plane is not a cpu
    const obs::SeriesTrack& busy = series_[p].tracks().at(tracks::kBusyCycles);
    if (!busy.empty()) {
      result->series.tracks[tracks::of_cpu(tracks::kBusyCycles,
                                           static_cast<int>(p))] = busy;
    }
  }

  // SLO verdicts over the merged series plus the per-failure recovery
  // latencies.  Burn-rate alerts are echoed onto the control-plane
  // row before the trace merge below, so they sort in.
  if (!config.slos.empty()) {
    obs::SloInputs slo_inputs;
    slo_inputs.series = &result->series;
    for (const StreamOutcome& so : result->streams) {
      slo_inputs.reference_window =
          std::max(slo_inputs.reference_window, latency_of(so.spec));
    }
    for (const FailureOutcome& fo : result->failures) {
      if (fo.readmitted + fo.dropped == 0) continue;
      const bool recovered =
          fo.dropped == 0 && fo.recovered >= fo.readmitted;
      slo_inputs.recovery_latencies.push_back(recovered ? fo.full_recovery
                                                        : -1);
    }
    result->slo = obs::evaluate_slos(config.slos, slo_inputs);
    for (std::size_t i = 0; i < result->slo.objectives.size(); ++i) {
      for (const obs::SloAlert& al : result->slo.objectives[i].alerts) {
        control().slo_alert((al.window + 1) * config.ts_window, al.window,
                            static_cast<int>(i));
      }
    }
  }

  for (const obs::Registry& r : registries_) result->metrics.merge(r);
  if (trace_.has_value()) {
    result->trace = trace_->merged();
    result->trace_dropped = trace_->dropped();
    for (int p = 0; p <= trace_->num_processors(); ++p) {
      result->trace_dropped_per_buffer.push_back(
          trace_->processor(p)->dropped());
    }
  }
  result->metrics.counter("trace_dropped") = result->trace_dropped;
}

}  // namespace qosctrl::farm
