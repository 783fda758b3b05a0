#include "farm/metrics.h"

#include <charconv>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "encoder/body.h"
#include "obs/buildinfo.h"
#include "util/json.h"

namespace qosctrl::farm {
namespace {

const char* mode_name(pipe::ControlMode mode) {
  return obs::tracks::kClassNames[static_cast<std::size_t>(mode)];
}

/// Appends one CSV cell as the CSV has always printed its cells (an
/// ostream at precision 17): text as is, doubles as %.17g, bools as 0
/// or 1.
template <class T>
void append_cell(std::string& out, const T& value) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out += std::string_view(value);
  } else {
    char buf[32];
    std::to_chars_result res;
    if constexpr (std::is_floating_point_v<T>) {
      res = std::to_chars(buf, buf + sizeof buf, value,
                          std::chars_format::general, 17);
    } else {
      res = std::to_chars(buf, buf + sizeof buf, +value);
    }
    out.append(buf, res.ptr);
  }
}

/// Appends `cells` to `out`, each after a comma, then ends the line.
template <class... T>
void append_row(std::string& out, const T&... cells) {
  ((out += ',', append_cell(out, cells)), ...);
  out += '\n';
}

/// Where a per-stream field sits in the CSV row.  The column order is
/// frozen, as scripts read columns by position: the columns added
/// after the first layout sit at the end of the row (kTail), while the
/// JSON object keeps field order.
enum class Csv { kLead, kTail, kNone };

/// Calls `f(key, value)` for each field of an offered stream, in JSON
/// order.  A rejected stream's JSON object ends after these with its
/// "reason".
template <class F>
void offer_fields(const StreamOutcome& s, F&& f) {
  f("id", s.spec.id);
  f("mode", mode_name(s.spec.mode));
  f("width", s.spec.width);
  f("height", s.spec.height);
  f("buffer_capacity", s.spec.buffer_capacity);
  f("frame_period", period_of(s.spec));
  f("join_time", s.spec.join_time);
  f("num_frames", s.spec.num_frames);
  f("admitted", s.placement.admitted);
}

/// Calls `f(key, value[, block])` for each field of an admitted stream;
/// the block defaults to kLead.  A rejected stream's CSV row reads them
/// too: its defaults print processor -1 and zeros.
template <class F>
void admitted_fields(const StreamOutcome& s, F&& f) {
  const Placement& p = s.placement;
  const std::vector<BudgetEpoch>& epochs = active_epochs(s);
  f("processor", p.processor);
  f("table_budget", p.table_budget);
  f("committed_cost", p.committed_cost);
  f("migrated", p.migrated);
  f("degraded", p.degraded);
  f("split", p.split);
  f("tail_processor", p.tail_processor, Csv::kNone);
  f("via_renegotiation", p.via_renegotiation);
  f("renegotiated", s.renegotiated);
  f("restored", s.restored);
  f("final_budget",
    epochs.empty() ? p.table_budget : epochs.back().table_budget);
  f("initial_quality", p.initial_quality);
  f("skips", s.result.total_skips);
  f("concealed", s.result.total_concealed, Csv::kTail);
  f("display_misses", s.display_misses);
  f("internal_misses", s.internal_misses);
  f("max_start_lag", s.max_start_lag);
  f("mean_start_lag", s.mean_start_lag);
  f("start_lag_p95", s.start_lag_p95, Csv::kTail);
  for (const auto& [key, counter] : kFaultCounters) {
    f(key, s.faults.*counter, Csv::kTail);
  }
  f("quarantined", s.quarantined, Csv::kTail);
  f("failovers", s.failover.size(), Csv::kTail);
  f("mean_psnr", s.result.mean_psnr);
  f("psnr_p5", s.result.psnr_stats.p5);
  f("psnr_min", s.result.psnr_stats.min);
  f("mean_ssim", s.result.mean_ssim);
  f("ssim_p5", s.result.ssim_stats.p5);
  f("ssim_min", s.result.ssim_stats.min);
  f("mean_quality", s.result.mean_quality);
  f("kbps", s.result.achieved_bps / 1e3);
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
  for (const auto& [name, counter] : kFaultCounters) {
    w.field(name, r.faults_total.*counter);
  }
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
  const auto field = [&w](std::string_view key, const auto& value,
                          Csv = Csv::kLead) { w.field(key, value); };
  for (const StreamOutcome& so : r.streams) {
    w.begin_object();
    offer_fields(so, field);
    if (!so.placement.admitted) {
      w.field("reason", so.placement.reason);
      w.end_object();
      continue;
    }
    admitted_fields(so, field);
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
  std::string out;
  // One CSV line: the header when `header`, else the stream's row.  The
  // offer fields lead, then the kLead and the kTail admitted fields.
  const auto line = [&out](const StreamOutcome& so, bool header) {
    for (const Csv block : {Csv::kLead, Csv::kTail}) {
      const auto cell = [&](std::string_view key, const auto& value,
                            Csv in = Csv::kLead) {
        if (in != block) return;
        if (header) {
          out += key;
        } else {
          append_cell(out, value);
        }
        out += ',';
      };
      offer_fields(so, cell);
      admitted_fields(so, cell);
    }
    out.back() = '\n';
  };
  out.reserve(r.streams.size() * 128);  // rows run to ~100 bytes
  line(StreamOutcome{}, true);
  for (const StreamOutcome& so : r.streams) line(so, false);
  // Metrics table, blank-line separated from the stream table so the
  // file stays trivially splittable.  A counter row reads as a
  // histogram whose count and sum are the counter's value and whose
  // other stats are 0.
  out += "\nmetric,kind";
  for (const auto& [stat, of] : obs::kHistogramStats) (out += ',') += stat;
  out += '\n';
  for (const auto& [name, h] : r.metrics.histograms()) {
    (out += name) += ",histogram";
    for (const auto& [stat, of] : obs::kHistogramStats) {
      append_cell(out += ',', of(h));
    }
    out += '\n';
  }
  for (const auto& [name, v] : r.metrics.counters()) {
    (out += name) += ",counter";
    for (std::size_t i = 0; i < std::size(obs::kHistogramStats); ++i) {
      append_cell(out += ',', i < 2 ? v : 0);
    }
    out += '\n';
  }
  // SLO verdict table, again blank-line separated, only when
  // objectives were configured (the spec grammar has no commas).
  if (!r.slo.objectives.empty()) {
    out += "\nslo,points,violations,worst_window,worst_value,"
           "budget_remaining,alerts,met,verdict\n";
    for (const obs::SloOutcome& o : r.slo.objectives) {
      out += o.spec.text;
      append_row(out, o.points, o.violations, o.worst_window, o.worst_value,
                 o.budget_remaining, o.alerts.size(), o.met(),
                 obs::slo_verdict_name(o.verdict));
    }
  }
  return out;
}

}  // namespace qosctrl::farm
