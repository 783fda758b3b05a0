#include "farm/metrics.h"

#include <iomanip>
#include <sstream>

#include "encoder/body.h"
#include "obs/buildinfo.h"

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

void json_kv(std::ostringstream& os, const char* key, double v,
             bool comma = true) {
  os << '"' << key << "\":" << v;
  if (comma) os << ',';
}

void json_kv(std::ostringstream& os, const char* key, long long v,
             bool comma = true) {
  os << '"' << key << "\":" << v;
  if (comma) os << ',';
}

/// The eight StreamFaultStats counters, in report order.
void json_faults(std::ostringstream& os, const StreamFaultStats& f) {
  auto kv = [&](const char* key, int v) {
    json_kv(os, key, static_cast<long long>(v));
  };
  kv("overruns_injected", f.overruns_injected);
  kv("overruns_policed", f.overruns_policed);
  kv("aborted_frames", f.aborted_frames);
  kv("forced_downgrades", f.forced_downgrades);
  kv("quarantines", f.quarantines);
  kv("quarantine_drops", f.quarantine_drops);
  kv("lost_frames", f.lost_frames);
  kv("failure_drops", f.failure_drops);
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
         << " admitted=" << sh.admitted
         << " probe_admits=" << sh.probe_admits
         << " rejected=" << sh.rejected
         << " migrations_in=" << sh.migrations_in
         << " migrations_out=" << sh.migrations_out
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
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"build\":{" << obs::build_json_fields() << ',';
  json_kv(os, "farm_seed", static_cast<long long>(r.farm_seed));
  // 0 = the fault draws were derived from the farm seed.
  json_kv(os, "fault_seed", static_cast<long long>(r.fault_spec.seed),
          false);
  os << "},\"fleet\":{";
  os << "\"policy\":\"" << sched::policy_name(r.sched.policy.kind) << "\",";
  json_kv(os, "quantum", static_cast<long long>(r.sched.policy.quantum));
  json_kv(os, "context_switch_cost",
          static_cast<long long>(r.sched.policy.context_switch_cost));
  os << "\"renegotiate\":" << (r.sched.renegotiate ? "true" : "false")
     << ",\"restore\":" << (r.sched.restore ? "true" : "false")
     << ",\"split\":" << (r.sched.split ? "true" : "false") << ',';
  json_kv(os, "preemptions", r.total_preemptions);
  json_kv(os, "overhead_cycles",
          static_cast<long long>(r.total_overhead_cycles));
  json_kv(os, "total_streams", static_cast<long long>(r.total_streams));
  json_kv(os, "admitted", static_cast<long long>(r.admitted));
  json_kv(os, "rejected", static_cast<long long>(r.rejected));
  json_kv(os, "migrated", static_cast<long long>(r.migrated));
  json_kv(os, "degraded", static_cast<long long>(r.degraded));
  json_kv(os, "split_streams", static_cast<long long>(r.split_streams));
  json_kv(os, "admitted_via_renegotiation",
          static_cast<long long>(r.admitted_via_renegotiation));
  json_kv(os, "renegotiated_streams",
          static_cast<long long>(r.renegotiated_streams));
  json_kv(os, "restored_streams",
          static_cast<long long>(r.restored_streams));
  json_kv(os, "rejection_rate", r.rejection_rate);
  json_kv(os, "total_frames", r.total_frames);
  json_kv(os, "encoded_frames", r.encoded_frames);
  json_kv(os, "total_skips", static_cast<long long>(r.total_skips));
  json_kv(os, "display_misses",
          static_cast<long long>(r.total_display_misses));
  json_kv(os, "internal_misses",
          static_cast<long long>(r.total_internal_misses));
  json_kv(os, "mean_psnr", r.fleet_mean_psnr);
  json_kv(os, "mean_ssim", r.fleet_mean_ssim);
  json_kv(os, "total_concealed", r.total_concealed);
  json_faults(os, r.faults_total);
  json_kv(os, "quarantined_streams",
          static_cast<long long>(r.quarantined_streams));
  json_kv(os, "failover_readmissions",
          static_cast<long long>(r.failover_readmissions));
  json_kv(os, "failover_drops",
          static_cast<long long>(r.failover_drops));
  json_kv(os, "mean_quality", r.fleet_mean_quality, false);
  os << ",\"quality_histogram\":[";
  for (std::size_t q = 0; q < r.quality_histogram.size(); ++q) {
    os << (q ? "," : "") << r.quality_histogram[q];
  }
  os << "]},\"faults\":{";
  json_kv(os, "overrun_probability", r.fault_spec.overrun.probability);
  json_kv(os, "overrun_factor", r.fault_spec.overrun.factor);
  os << "\"overrun_policy\":\""
     << overrun_policy_name(r.fault_spec.overrun.policy) << "\",";
  json_kv(os, "loss_probability", r.fault_spec.loss.probability, false);
  os << "},\"failures\":[";
  for (std::size_t k = 0; k < r.failures.size(); ++k) {
    const FailureOutcome& fo = r.failures[k];
    os << (k ? "," : "") << "{";
    json_kv(os, "processor", static_cast<long long>(fo.event.processor));
    json_kv(os, "time", static_cast<long long>(fo.event.time));
    os << "\"permanent\":" << (fo.event.permanent() ? "true" : "false")
       << ',';
    json_kv(os, "repair", static_cast<long long>(fo.event.repair));
    json_kv(os, "displaced", static_cast<long long>(fo.displaced));
    json_kv(os, "readmitted", static_cast<long long>(fo.readmitted));
    json_kv(os, "dropped", static_cast<long long>(fo.dropped));
    json_kv(os, "recovered", static_cast<long long>(fo.recovered));
    json_kv(os, "first_recovery", static_cast<long long>(fo.first_recovery));
    json_kv(os, "full_recovery", static_cast<long long>(fo.full_recovery),
            false);
    os << "}";
  }
  os << "],\"processors\":[";
  for (std::size_t p = 0; p < r.processors.size(); ++p) {
    const ProcessorOutcome& po = r.processors[p];
    os << (p ? "," : "") << "{";
    json_kv(os, "processor", static_cast<long long>(p));
    json_kv(os, "streams", static_cast<long long>(po.streams_hosted));
    json_kv(os, "frames", static_cast<long long>(po.frames_encoded));
    json_kv(os, "busy_cycles", static_cast<long long>(po.busy_cycles));
    json_kv(os, "span_cycles", static_cast<long long>(po.span_cycles));
    json_kv(os, "utilization", po.utilization);
    json_kv(os, "preemptions", static_cast<long long>(po.preemptions));
    json_kv(os, "overhead_cycles",
            static_cast<long long>(po.overhead_cycles));
    os << "\"failed\":" << (po.failed ? "true" : "false") << ',';
    json_kv(os, "failed_at", static_cast<long long>(po.failed_at));
    json_kv(os, "fault_conceals",
            static_cast<long long>(po.fault_conceals));
    json_kv(os, "peak_committed_utilization",
            po.peak_committed_utilization, false);
    os << "}";
  }
  os << "],\"streams\":[";
  for (std::size_t i = 0; i < r.streams.size(); ++i) {
    const StreamOutcome& so = r.streams[i];
    os << (i ? "," : "") << "{";
    json_kv(os, "id", static_cast<long long>(so.spec.id));
    os << "\"mode\":\"" << mode_name(so.spec.mode) << "\",";
    json_kv(os, "width", static_cast<long long>(so.spec.width));
    json_kv(os, "height", static_cast<long long>(so.spec.height));
    json_kv(os, "buffer_capacity",
            static_cast<long long>(so.spec.buffer_capacity));
    json_kv(os, "frame_period", static_cast<long long>(period_of(so.spec)));
    json_kv(os, "join_time", static_cast<long long>(so.spec.join_time));
    json_kv(os, "num_frames", static_cast<long long>(so.spec.num_frames));
    os << "\"admitted\":" << (so.placement.admitted ? "true" : "false")
       << ',';
    if (!so.placement.admitted) {
      os << "\"reason\":\"" << so.placement.reason << "\"}";
      continue;
    }
    json_kv(os, "processor", static_cast<long long>(so.placement.processor));
    json_kv(os, "table_budget",
            static_cast<long long>(so.placement.table_budget));
    json_kv(os, "committed_cost",
            static_cast<long long>(so.placement.committed_cost));
    os << "\"migrated\":" << (so.placement.migrated ? "true" : "false")
       << ",\"degraded\":" << (so.placement.degraded ? "true" : "false")
       << ",\"split\":" << (so.placement.split ? "true" : "false")
       << ",\"tail_processor\":" << so.placement.tail_processor
       << ",\"via_renegotiation\":"
       << (so.placement.via_renegotiation ? "true" : "false")
       << ",\"renegotiated\":" << (so.renegotiated ? "true" : "false")
       << ",\"restored\":" << (so.restored ? "true" : "false") << ',';
    json_kv(os, "final_budget",
            static_cast<long long>(
                active_epochs(so).empty()
                    ? so.placement.table_budget
                    : active_epochs(so).back().table_budget));
    json_kv(os, "initial_quality",
            static_cast<long long>(so.placement.initial_quality));
    json_kv(os, "skips", static_cast<long long>(so.result.total_skips));
    json_kv(os, "concealed",
            static_cast<long long>(so.result.total_concealed));
    json_kv(os, "display_misses",
            static_cast<long long>(so.display_misses));
    json_kv(os, "internal_misses",
            static_cast<long long>(so.internal_misses));
    json_kv(os, "max_start_lag", static_cast<long long>(so.max_start_lag));
    json_kv(os, "mean_start_lag", so.mean_start_lag);
    json_kv(os, "start_lag_p95", static_cast<long long>(so.start_lag_p95));
    json_faults(os, so.faults);
    os << "\"quarantined\":" << (so.quarantined ? "true" : "false") << ',';
    json_kv(os, "failovers", static_cast<long long>(so.failover.size()));
    json_kv(os, "mean_psnr", so.result.mean_psnr);
    json_kv(os, "psnr_p5", so.result.psnr_stats.p5);
    json_kv(os, "psnr_min", so.result.psnr_stats.min);
    json_kv(os, "mean_ssim", so.result.mean_ssim);
    json_kv(os, "ssim_p5", so.result.ssim_stats.p5);
    json_kv(os, "ssim_min", so.result.ssim_stats.min);
    json_kv(os, "mean_quality", so.result.mean_quality);
    json_kv(os, "kbps", so.result.achieved_bps / 1e3);
    os << "\"phase_cycles\":{";
    for (int ph = 0; ph < enc::kNumEncodePhases; ++ph) {
      os << (ph ? "," : "") << '"'
         << enc::encode_phase_name(static_cast<enc::EncodePhase>(ph))
         << "\":" << so.result.phase_cycles[static_cast<std::size_t>(ph)];
    }
    os << "}}";
  }
  os << "],";
  // Shard block only when sharded, so single-shard JSON is unchanged.
  if (r.shards > 1) {
    os << "\"shards\":{";
    json_kv(os, "count", static_cast<long long>(r.shards));
    json_kv(os, "join_batches", r.join_batches);
    json_kv(os, "max_join_batch", static_cast<long long>(r.max_join_batch));
    json_kv(os, "rebalance_migrations",
            static_cast<long long>(r.rebalance_migrations));
    os << "\"per_shard\":[";
    for (std::size_t s = 0; s < r.shard_outcomes.size(); ++s) {
      const ShardOutcome& sh = r.shard_outcomes[s];
      os << (s ? "," : "") << "{";
      json_kv(os, "shard", static_cast<long long>(s));
      json_kv(os, "first_processor",
              static_cast<long long>(sh.first_processor));
      json_kv(os, "num_processors",
              static_cast<long long>(sh.num_processors));
      json_kv(os, "admitted", sh.admitted);
      json_kv(os, "probe_admits", sh.probe_admits);
      json_kv(os, "rejected", sh.rejected);
      json_kv(os, "migrations_in", sh.migrations_in);
      json_kv(os, "migrations_out", sh.migrations_out);
      json_kv(os, "demand_tests", sh.demand_tests);
      json_kv(os, "peak_committed_utilization",
              sh.peak_committed_utilization, false);
      os << "}";
    }
    os << "]},";
  }
  os << "\"metrics\":" << r.metrics.to_json() << ',';
  // Series / SLO blocks only when the features ran, so default JSON is
  // unchanged byte for byte.
  if (r.series.window > 0) {
    os << "\"timeseries\":" << r.series.to_json() << ',';
  }
  if (!r.slo.objectives.empty()) {
    os << "\"slo\":" << obs::slo_to_json(r.slo) << ',';
  }
  json_kv(os, "trace_events", static_cast<long long>(r.trace.size()));
  json_kv(os, "trace_dropped", r.trace_dropped, false);
  if (!r.trace_dropped_per_buffer.empty()) {
    os << ",\"trace_dropped_per_buffer\":[";
    for (std::size_t b = 0; b < r.trace_dropped_per_buffer.size(); ++b) {
      os << (b ? "," : "") << r.trace_dropped_per_buffer[b];
    }
    os << ']';
  }
  os << "}";
  return os.str();
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
