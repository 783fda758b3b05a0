#include "farm/metrics.h"

#include <iomanip>
#include <sstream>

#include "encoder/body.h"
#include "obs/buildinfo.h"
#include "util/json.h"

namespace qosctrl::farm {
namespace {

const char* mode_name(pipe::ControlMode mode) {
  switch (mode) {
    case pipe::ControlMode::kControlled:
      return "controlled";
    case pipe::ControlMode::kConstantQuality:
      return "constant";
    case pipe::ControlMode::kFeedback:
      return "feedback";
  }
  return "?";
}

/// The eight StreamFaultStats counters, in report order.
void write_faults(util::JsonWriter& w, const StreamFaultStats& f) {
  w.field("overruns_injected", f.overruns_injected);
  w.field("overruns_policed", f.overruns_policed);
  w.field("aborted_frames", f.aborted_frames);
  w.field("forced_downgrades", f.forced_downgrades);
  w.field("quarantines", f.quarantines);
  w.field("quarantine_drops", f.quarantine_drops);
  w.field("lost_frames", f.lost_frames);
  w.field("failure_drops", f.failure_drops);
}

}  // namespace

std::string summarize(const FarmResult& r) {
  std::ostringstream os;
  // Provenance first.  fault_seed 0 means the fault draws were
  // derived from the farm seed.
  os << obs::version_line("qosfarm") << " seed=" << r.farm_seed
     << " fault_seed=" << r.fault_spec.seed << "\n";
  os << "policy=" << sched::policy_name(r.sched.policy.kind);
  if (r.sched.policy.kind == sched::PolicyKind::kQuantumEdf) {
    os << " quantum=" << r.sched.policy.quantum;
  }
  os << " ctx_switch=" << r.sched.policy.context_switch_cost
     << " renegotiation=" << (r.sched.renegotiate ? "on" : "off")
     << " restore=" << (r.sched.restore ? "on" : "off")
     << " split=" << (r.sched.split ? "on" : "off")
     << " preemptions=" << r.total_preemptions
     << " overhead_Mcycles="
     << static_cast<double>(r.total_overhead_cycles) / 1e6 << "\n"
     << "streams=" << r.total_streams << " admitted=" << r.admitted
     << " rejected=" << r.rejected << " (rate=" << std::fixed
     << std::setprecision(2) << r.rejection_rate << ")"
     << " migrated=" << r.migrated << " degraded=" << r.degraded
     << " split=" << r.split_streams
     << " via_renegotiation=" << r.admitted_via_renegotiation
     << " renegotiated=" << r.renegotiated_streams
     << " restored=" << r.restored_streams << "\n"
     << "frames=" << r.total_frames << " encoded=" << r.encoded_frames
     << " skips=" << r.total_skips << " concealed=" << r.total_concealed
     << " display_misses=" << r.total_display_misses
     << " internal_misses=" << r.total_internal_misses << std::setprecision(3)
     << " mean_psnr=" << r.fleet_mean_psnr
     << " mean_ssim=" << r.fleet_mean_ssim
     << " mean_quality=" << r.fleet_mean_quality << "\n";
  if (r.fault_spec.any()) {
    const StreamFaultStats& ft = r.faults_total;
    os << "faults: overrun_p=" << r.fault_spec.overrun.probability
       << " factor=" << r.fault_spec.overrun.factor << " policy="
       << overrun_policy_name(r.fault_spec.overrun.policy)
       << " loss_p=" << r.fault_spec.loss.probability
       << " failures=" << r.fault_spec.failures.size() << "\n"
       << "fault totals: overruns=" << ft.overruns_injected
       << " policed=" << ft.overruns_policed
       << " aborted=" << ft.aborted_frames
       << " downgrades=" << ft.forced_downgrades
       << " quarantines=" << ft.quarantines
       << " quarantine_drops=" << ft.quarantine_drops
       << " lost=" << ft.lost_frames
       << " failure_drops=" << ft.failure_drops
       << " quarantined_streams=" << r.quarantined_streams
       << " failover_readmissions=" << r.failover_readmissions
       << " failover_drops=" << r.failover_drops << "\n";
  }
  for (std::size_t k = 0; k < r.failures.size(); ++k) {
    const FailureOutcome& fo = r.failures[k];
    os << "failure " << k << ": proc=" << fo.event.processor
       << " at_Mcycles=" << static_cast<double>(fo.event.time) / 1e6
       << (fo.event.permanent() ? " permanent" : " transient");
    if (!fo.event.permanent()) {
      os << " repair_Mcycles=" << static_cast<double>(fo.event.repair) / 1e6;
    }
    os << " displaced=" << fo.displaced << " readmitted=" << fo.readmitted
       << " dropped=" << fo.dropped << " recovered=" << fo.recovered;
    if (fo.first_recovery >= 0) {
      os << " first_recovery_Mcycles="
         << static_cast<double>(fo.first_recovery) / 1e6
         << " full_recovery_Mcycles="
         << static_cast<double>(fo.full_recovery) / 1e6;
    }
    os << "\n";
  }
  os << "quality histogram:";
  for (std::size_t q = 0; q < r.quality_histogram.size(); ++q) {
    os << " q" << q << "=" << r.quality_histogram[q];
  }
  os << "\n";
  for (std::size_t p = 0; p < r.processors.size(); ++p) {
    const ProcessorOutcome& po = r.processors[p];
    os << "proc " << p << ": streams=" << po.streams_hosted
       << " frames=" << po.frames_encoded << " busy_Mcycles="
       << static_cast<double>(po.busy_cycles) / 1e6
       << " util=" << po.utilization
       << " peak_committed=" << po.peak_committed_utilization
       << " preemptions=" << po.preemptions;
    if (po.failed) {
      os << " FAILED at_Mcycles=" << static_cast<double>(po.failed_at) / 1e6;
    }
    if (po.fault_conceals > 0) os << " fault_conceals=" << po.fault_conceals;
    os << "\n";
  }
  // Per-shard lines only when the control plane is actually sharded:
  // the single-shard summary stays byte-stable.
  if (r.shards > 1) {
    os << "shards=" << r.shards << " join_batches=" << r.join_batches
       << " max_join_batch=" << r.max_join_batch
       << " rebalance_migrations=" << r.rebalance_migrations << "\n";
    for (std::size_t s = 0; s < r.shard_outcomes.size(); ++s) {
      const ShardOutcome& sh = r.shard_outcomes[s];
      os << "shard " << s << ": procs=[" << sh.first_processor << ","
         << sh.first_processor + sh.num_processors << ")"
         << " admitted=" << sh.stats.admitted
         << " probe_admits=" << sh.stats.probe_admits
         << " rejected=" << sh.stats.rejected
         << " migrations_in=" << sh.stats.migrations_in
         << " migrations_out=" << sh.stats.migrations_out
         << " demand_tests=" << sh.demand_tests
         << " peak_committed=" << sh.peak_committed_utilization << "\n";
    }
  }
  for (const StreamOutcome& so : r.streams) {
    os << "stream " << so.spec.id << " [" << mode_name(so.spec.mode) << " "
       << so.spec.width << "x" << so.spec.height << " K="
       << so.spec.buffer_capacity << "]: ";
    if (!so.placement.admitted) {
      os << "REJECTED (" << so.placement.reason << ")\n";
      continue;
    }
    os << "proc=" << so.placement.processor
       << " budget_Mcycles="
       << static_cast<double>(so.placement.table_budget) / 1e6
       << (so.placement.migrated ? " migrated" : "")
       << (so.placement.degraded ? " degraded" : "")
       << (so.placement.via_renegotiation ? " via_renegotiation" : "");
    if (so.placement.split) {
      os << " split tail_proc=" << so.placement.tail_processor
         << " head_Mcycles="
         << static_cast<double>(so.placement.head_cost) / 1e6;
    }
    if (so.renegotiated || so.restored) {
      // Label by where the budget ended up, not by which events ever
      // happened: a stream shrunk again after a restore is reported
      // as renegotiated.
      const std::vector<BudgetEpoch>& epochs = active_epochs(so);
      const bool ended_shrunk =
          epochs.back().table_budget < so.placement.table_budget;
      os << (ended_shrunk ? " renegotiated->Mcycles="
                          : " restored->Mcycles=")
         << static_cast<double>(epochs.back().table_budget) / 1e6;
    }
    os << " q_initial=" << so.placement.initial_quality
       << " frames=" << so.result.frames.size()
       << " skips=" << so.result.total_skips
       << " concealed=" << so.result.total_concealed
       << " display_misses=" << so.display_misses
       << " internal_misses=" << so.internal_misses
       << " mean_psnr=" << so.result.mean_psnr
       << " psnr_p5=" << so.result.psnr_stats.p5
       << " psnr_min=" << so.result.psnr_stats.min
       << " mean_ssim=" << so.result.mean_ssim
       << " mean_quality=" << so.result.mean_quality;
    if (so.faults.overruns_injected > 0 || so.faults.lost_frames > 0 ||
        so.faults.failure_drops > 0 || so.quarantined) {
      os << " overruns=" << so.faults.overruns_injected << "/policed="
         << so.faults.overruns_policed
         << " downgrades=" << so.faults.forced_downgrades
         << " lost=" << so.faults.lost_frames
         << " failure_drops=" << so.faults.failure_drops;
      if (so.quarantined) os << " QUARANTINED";
    }
    if (!so.failover.empty()) {
      os << " failovers=" << so.failover.size() << " (->proc";
      for (const FailoverSegment& seg : so.failover) {
        os << ' ' << seg.placement.processor;
      }
      os << ")";
    }
    os << "\n";
  }
  os << r.metrics.summary();
  // Windowed series and SLO sections only when asked for, so the
  // default summary stays byte-stable.
  if (r.series.window > 0) {
    os << "timeseries: window=" << r.series.window
       << " last_window=" << r.series.last_window() << "\n"
       << r.series.summary();
  }
  if (!r.slo.objectives.empty()) os << obs::slo_summary(r.slo);
  os << "trace: events=" << r.trace.size()
     << " trace_dropped=" << r.trace_dropped;
  // Per-buffer overflow attribution (tracing only): which processor's
  // ring actually lost events.
  if (!r.trace_dropped_per_buffer.empty()) {
    os << " (";
    for (std::size_t b = 0; b < r.trace_dropped_per_buffer.size(); ++b) {
      const bool control = b + 1 == r.trace_dropped_per_buffer.size();
      os << (b ? " " : "")
         << (control ? std::string("control") : "cpu" + std::to_string(b))
         << '=' << r.trace_dropped_per_buffer[b];
    }
    os << ")";
  }
  os << "\n";
  return os.str();
}

std::string to_json(const FarmResult& r) {
  util::JsonWriter w;
  w.begin_object();
  w.key("build");
  w.begin_object();
  const obs::BuildInfo info = obs::build_info();
  w.field("version", info.version);
  w.field("compiler", info.compiler);
  w.field("simd_backend", info.simd_backend);
  w.field("farm_seed", r.farm_seed);
  // 0 = the fault draws were derived from the farm seed.
  w.field("fault_seed", r.fault_spec.seed);
  w.end_object();
  w.key("fleet");
  w.begin_object();
  w.field("policy", sched::policy_name(r.sched.policy.kind));
  w.field("quantum", r.sched.policy.quantum);
  w.field("context_switch_cost", r.sched.policy.context_switch_cost);
  w.field("renegotiate", r.sched.renegotiate);
  w.field("restore", r.sched.restore);
  w.field("split", r.sched.split);
  w.field("preemptions", r.total_preemptions);
  w.field("overhead_cycles", r.total_overhead_cycles);
  w.field("total_streams", r.total_streams);
  w.field("admitted", r.admitted);
  w.field("rejected", r.rejected);
  w.field("migrated", r.migrated);
  w.field("degraded", r.degraded);
  w.field("split_streams", r.split_streams);
  w.field("admitted_via_renegotiation", r.admitted_via_renegotiation);
  w.field("renegotiated_streams", r.renegotiated_streams);
  w.field("restored_streams", r.restored_streams);
  w.field("rejection_rate", r.rejection_rate);
  w.field("total_frames", r.total_frames);
  w.field("encoded_frames", r.encoded_frames);
  w.field("total_skips", r.total_skips);
  w.field("display_misses", r.total_display_misses);
  w.field("internal_misses", r.total_internal_misses);
  w.field("mean_psnr", r.fleet_mean_psnr);
  w.field("mean_ssim", r.fleet_mean_ssim);
  w.field("total_concealed", r.total_concealed);
  write_faults(w, r.faults_total);
  w.field("quarantined_streams", r.quarantined_streams);
  w.field("failover_readmissions", r.failover_readmissions);
  w.field("failover_drops", r.failover_drops);
  w.field("mean_quality", r.fleet_mean_quality);
  w.key("quality_histogram");
  w.begin_array();
  for (const long long n : r.quality_histogram) w.value(n);
  w.end_array();
  w.end_object();
  w.key("faults");
  w.begin_object();
  w.field("overrun_probability", r.fault_spec.overrun.probability);
  w.field("overrun_factor", r.fault_spec.overrun.factor);
  w.field("overrun_policy", overrun_policy_name(r.fault_spec.overrun.policy));
  w.field("loss_probability", r.fault_spec.loss.probability);
  w.end_object();
  w.key("failures");
  w.begin_array();
  for (const FailureOutcome& fo : r.failures) {
    w.begin_object();
    w.field("processor", fo.event.processor);
    w.field("time", fo.event.time);
    w.field("permanent", fo.event.permanent());
    w.field("repair", fo.event.repair);
    w.field("displaced", fo.displaced);
    w.field("readmitted", fo.readmitted);
    w.field("dropped", fo.dropped);
    w.field("recovered", fo.recovered);
    w.field("first_recovery", fo.first_recovery);
    w.field("full_recovery", fo.full_recovery);
    w.end_object();
  }
  w.end_array();
  w.key("processors");
  w.begin_array();
  for (std::size_t p = 0; p < r.processors.size(); ++p) {
    const ProcessorOutcome& po = r.processors[p];
    w.begin_object();
    w.field("processor", p);
    w.field("streams", po.streams_hosted);
    w.field("frames", po.frames_encoded);
    w.field("busy_cycles", po.busy_cycles);
    w.field("span_cycles", po.span_cycles);
    w.field("utilization", po.utilization);
    w.field("preemptions", po.preemptions);
    w.field("overhead_cycles", po.overhead_cycles);
    w.field("failed", po.failed);
    w.field("failed_at", po.failed_at);
    w.field("fault_conceals", po.fault_conceals);
    w.field("peak_committed_utilization", po.peak_committed_utilization);
    w.end_object();
  }
  w.end_array();
  w.key("streams");
  w.begin_array();
  for (const StreamOutcome& so : r.streams) {
    w.begin_object();
    w.field("id", so.spec.id);
    w.field("mode", mode_name(so.spec.mode));
    w.field("width", so.spec.width);
    w.field("height", so.spec.height);
    w.field("buffer_capacity", so.spec.buffer_capacity);
    w.field("frame_period", period_of(so.spec));
    w.field("join_time", so.spec.join_time);
    w.field("num_frames", so.spec.num_frames);
    w.field("admitted", so.placement.admitted);
    if (!so.placement.admitted) {
      w.field("reason", so.placement.reason);
      w.end_object();
      continue;
    }
    w.field("processor", so.placement.processor);
    w.field("table_budget", so.placement.table_budget);
    w.field("committed_cost", so.placement.committed_cost);
    w.field("migrated", so.placement.migrated);
    w.field("degraded", so.placement.degraded);
    w.field("split", so.placement.split);
    w.field("tail_processor", so.placement.tail_processor);
    w.field("via_renegotiation", so.placement.via_renegotiation);
    w.field("renegotiated", so.renegotiated);
    w.field("restored", so.restored);
    w.field("final_budget", active_epochs(so).empty()
                                ? so.placement.table_budget
                                : active_epochs(so).back().table_budget);
    w.field("initial_quality", so.placement.initial_quality);
    w.field("skips", so.result.total_skips);
    w.field("concealed", so.result.total_concealed);
    w.field("display_misses", so.display_misses);
    w.field("internal_misses", so.internal_misses);
    w.field("max_start_lag", so.max_start_lag);
    w.field("mean_start_lag", so.mean_start_lag);
    w.field("start_lag_p95", so.start_lag_p95);
    write_faults(w, so.faults);
    w.field("quarantined", so.quarantined);
    w.field("failovers", so.failover.size());
    w.field("mean_psnr", so.result.mean_psnr);
    w.field("psnr_p5", so.result.psnr_stats.p5);
    w.field("psnr_min", so.result.psnr_stats.min);
    w.field("mean_ssim", so.result.mean_ssim);
    w.field("ssim_p5", so.result.ssim_stats.p5);
    w.field("ssim_min", so.result.ssim_stats.min);
    w.field("mean_quality", so.result.mean_quality);
    w.field("kbps", so.result.achieved_bps / 1e3);
    w.key("phase_cycles");
    w.begin_object();
    for (int ph = 0; ph < enc::kNumEncodePhases; ++ph) {
      w.field(enc::encode_phase_name(static_cast<enc::EncodePhase>(ph)),
              so.result.phase_cycles[static_cast<std::size_t>(ph)]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  // Shard block only when sharded, so single-shard JSON is unchanged.
  if (r.shards > 1) {
    w.key("shards");
    w.begin_object();
    w.field("count", r.shards);
    w.field("join_batches", r.join_batches);
    w.field("max_join_batch", r.max_join_batch);
    w.field("rebalance_migrations", r.rebalance_migrations);
    w.key("per_shard");
    w.begin_array();
    for (std::size_t s = 0; s < r.shard_outcomes.size(); ++s) {
      const ShardOutcome& sh = r.shard_outcomes[s];
      w.begin_object();
      w.field("shard", s);
      w.field("first_processor", sh.first_processor);
      w.field("num_processors", sh.num_processors);
      w.field("admitted", sh.stats.admitted);
      w.field("probe_admits", sh.stats.probe_admits);
      w.field("rejected", sh.stats.rejected);
      w.field("migrations_in", sh.stats.migrations_in);
      w.field("migrations_out", sh.stats.migrations_out);
      w.field("demand_tests", sh.demand_tests);
      w.field("peak_committed_utilization", sh.peak_committed_utilization);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.key("metrics");
  r.metrics.write_json(w);
  // Series / SLO blocks only when the features ran, so default JSON is
  // unchanged byte for byte.
  if (r.series.window > 0) {
    w.key("timeseries");
    r.series.write_json(w);
  }
  if (!r.slo.objectives.empty()) {
    w.key("slo");
    r.slo.write_json(w);
  }
  w.field("trace_events", r.trace.size());
  w.field("trace_dropped", r.trace_dropped);
  if (!r.trace_dropped_per_buffer.empty()) {
    w.key("trace_dropped_per_buffer");
    w.begin_array();
    for (const long long n : r.trace_dropped_per_buffer) w.value(n);
    w.end_array();
  }
  w.end_object();
  return w.take();
}

std::string to_csv(const FarmResult& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "id,mode,width,height,buffer_capacity,frame_period,join_time,"
        "num_frames,admitted,processor,table_budget,committed_cost,"
        "migrated,degraded,split,via_renegotiation,renegotiated,restored,"
        "final_budget,"
        "initial_quality,skips,display_misses,"
        "internal_misses,max_start_lag,mean_start_lag,mean_psnr,"
        "psnr_p5,psnr_min,mean_ssim,ssim_p5,ssim_min,"
        "mean_quality,kbps,"
        "concealed,start_lag_p95,overruns_injected,overruns_policed,"
        "aborted_frames,forced_downgrades,quarantines,quarantine_drops,"
        "lost_frames,failure_drops,quarantined,failovers\n";
  for (const StreamOutcome& so : r.streams) {
    os << so.spec.id << ',' << mode_name(so.spec.mode) << ','
       << so.spec.width << ',' << so.spec.height << ','
       << so.spec.buffer_capacity << ',' << period_of(so.spec) << ','
       << so.spec.join_time << ',' << so.spec.num_frames << ','
       << (so.placement.admitted ? 1 : 0) << ',';
    if (!so.placement.admitted) {
      os << "-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
            "0,0,0,0,0,0,0,0,0,0,0,0\n";
      continue;
    }
    os << so.placement.processor << ',' << so.placement.table_budget << ','
       << so.placement.committed_cost << ','
       << (so.placement.migrated ? 1 : 0) << ','
       << (so.placement.degraded ? 1 : 0) << ','
       << (so.placement.split ? 1 : 0) << ','
       << (so.placement.via_renegotiation ? 1 : 0) << ','
       << (so.renegotiated ? 1 : 0) << ',' << (so.restored ? 1 : 0) << ','
       << (active_epochs(so).empty()
               ? so.placement.table_budget
               : active_epochs(so).back().table_budget)
       << ','
       << so.placement.initial_quality << ',' << so.result.total_skips
       << ',' << so.display_misses << ',' << so.internal_misses << ','
       << so.max_start_lag << ',' << so.mean_start_lag << ','
       << so.result.mean_psnr << ',' << so.result.psnr_stats.p5 << ','
       << so.result.psnr_stats.min << ',' << so.result.mean_ssim << ','
       << so.result.ssim_stats.p5 << ',' << so.result.ssim_stats.min << ','
       << so.result.mean_quality << ','
       << so.result.achieved_bps / 1e3 << ','
       << so.result.total_concealed << ',' << so.start_lag_p95 << ','
       << so.faults.overruns_injected << ',' << so.faults.overruns_policed
       << ',' << so.faults.aborted_frames << ','
       << so.faults.forced_downgrades << ',' << so.faults.quarantines << ','
       << so.faults.quarantine_drops << ',' << so.faults.lost_frames << ','
       << so.faults.failure_drops << ',' << (so.quarantined ? 1 : 0) << ','
       << so.failover.size() << '\n';
  }
  // Metrics table, blank-line separated from the stream table so the
  // file stays trivially splittable.
  os << "\nmetric,kind,count,sum,min,max,p50,p95,p99\n";
  for (const auto& [name, h] : r.metrics.histograms()) {
    os << name << ",histogram," << h.count() << ',' << h.sum() << ','
       << h.min() << ',' << h.max() << ',' << h.percentile(0.50) << ','
       << h.percentile(0.95) << ',' << h.percentile(0.99) << '\n';
  }
  for (const auto& [name, v] : r.metrics.counters()) {
    os << name << ",counter," << v << ',' << v << ",0,0,0,0,0\n";
  }
  // SLO verdict table, again blank-line separated, only when
  // objectives were configured (the spec grammar has no commas).
  if (!r.slo.objectives.empty()) {
    os << "\nslo,points,violations,worst_window,worst_value,"
          "budget_remaining,alerts,met\n";
    for (const obs::SloOutcome& o : r.slo.objectives) {
      os << o.spec.text << ',' << o.points << ',' << o.violations << ','
         << o.worst_window << ',' << o.worst_value << ','
         << o.budget_remaining << ',' << o.alerts.size() << ','
         << (o.met ? 1 : 0) << '\n';
    }
  }
  return os.str();
}

}  // namespace qosctrl::farm
