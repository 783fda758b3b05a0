#include "replay.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>
#include <tuple>

#include "farm/shard.h"
#include "platform/cost_model.h"
#include "quality/distortion.h"
#include "util/rng.h"

namespace perfbench {

namespace farm = qosctrl::farm;
namespace pipe = qosctrl::pipe;
namespace rt = qosctrl::rt;
using qosctrl::util::Rng;

namespace {

constexpr rt::Cycles kNever = std::numeric_limits<rt::Cycles>::max();

/// The session config run_farm expands a StreamSpec to (seeds forked
/// from the farm seed by stream id).  The per-frame comparison against
/// the farm's records fails if this ever drifts from the farm's own.
pipe::PipelineConfig session_config(const farm::StreamSpec& spec,
                                    std::uint64_t farm_seed,
                                    double nominal_fps) {
  pipe::PipelineConfig cfg;
  cfg.video.width = spec.width;
  cfg.video.height = spec.height;
  cfg.video.num_frames = spec.num_frames;
  cfg.video.num_scenes = spec.num_scenes;
  cfg.frame_period = farm::period_of(spec);
  cfg.buffer_capacity = spec.buffer_capacity;
  cfg.mode = spec.mode;
  cfg.constant_quality = spec.constant_quality;
  cfg.rate.frame_rate =
      nominal_fps *
      static_cast<double>(
          farm::default_frame_period(farm::macroblocks_of(spec))) /
      static_cast<double>(farm::period_of(spec));
  Rng derive = Rng(farm_seed).fork(static_cast<std::uint64_t>(spec.id));
  cfg.seed = spec.seed != 0 ? spec.seed : derive.next_u64();
  cfg.video.seed = derive.next_u64();
  return cfg;
}

/// One stream segment as the replayed control plane decided it.
struct Segment {
  farm::Placement placement;
  int first_frame = 0;
  std::vector<farm::BudgetEpoch> epochs;
};

/// Per offered stream (scenario order): its segments, base first.
/// Empty when rejected.
using PlaneOutcome = std::vector<std::vector<Segment>>;

/// Replays run_farm's control plane: joins in (time, id) order, leaves
/// and permanent failures drained before each join (leaves first at
/// equal instants), renegotiations applied after every call.
PlaneOutcome replay_control_plane(const Workload& w, SpanRecorder* spans,
                                  long long* verdicts,
                                  long long* tables_compiled) {
  const farm::FarmScenario& sc = w.scenario;
  const farm::FarmConfig& cfg = w.config;
  PlaneOutcome out(sc.streams.size());
  std::map<int, std::size_t> index_of;
  for (std::size_t i = 0; i < sc.streams.size(); ++i) {
    index_of[sc.streams[i].id] = i;
  }
  std::vector<std::size_t> join_order(sc.streams.size());
  for (std::size_t i = 0; i < join_order.size(); ++i) join_order[i] = i;
  std::sort(join_order.begin(), join_order.end(),
            [&](std::size_t a, std::size_t b) {
              return std::tie(sc.streams[a].join_time, sc.streams[a].id) <
                     std::tie(sc.streams[b].join_time, sc.streams[b].id);
            });

  farm::TableCache tables(qosctrl::platform::figure5_cost_table());
  farm::ShardPlaneConfig pc;
  pc.shards = cfg.shards;
  pc.probe_shards = cfg.probe_shards;
  pc.rebalance_watermark = cfg.rebalance_watermark;
  std::unique_ptr<farm::ShardedControlPlane> plane;
  {
    Scope s(spans, "farm.admission.setup");
    plane = std::make_unique<farm::ShardedControlPlane>(
        cfg.num_processors, pc, cfg.admission, &tables, sc.sched);
  }

  auto admit = [&](const farm::StreamSpec& spec) {
    Scope s(spans, "farm.admission.admit");
    ++*verdicts;
    return plane->admit(spec);
  };
  auto release = [&](int id, rt::Cycles t) {
    Scope s(spans, "farm.admission.release");
    plane->release(id, t);
  };
  auto apply_renegotiations = [&] {
    std::vector<farm::BudgetRenegotiation> rs;
    {
      Scope s(spans, "farm.admission.renegotiate");
      rs = plane->take_renegotiations();
    }
    for (farm::BudgetRenegotiation& r : rs) {
      std::vector<Segment>& segs = out[index_of.at(r.stream_id)];
      segs.back().epochs.push_back(farm::BudgetEpoch{
          r.effective_time, r.table_budget, r.committed_cost,
          std::move(r.system)});
    }
  };

  using Leave = std::pair<rt::Cycles, int>;
  std::priority_queue<Leave, std::vector<Leave>, std::greater<Leave>> leaves;
  std::vector<std::size_t> perm;
  for (std::size_t k = 0; k < sc.faults.failures.size(); ++k) {
    if (sc.faults.failures[k].permanent()) perm.push_back(k);
  }
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    const farm::FailureEvent& ea = sc.faults.failures[a];
    const farm::FailureEvent& eb = sc.faults.failures[b];
    return std::tie(ea.time, ea.processor, a) <
           std::tie(eb.time, eb.processor, b);
  });
  std::size_t next_perm = 0;

  auto handle_failure = [&](std::size_t k) {
    const farm::FailureEvent& ev = sc.faults.failures[k];
    std::vector<int> residents;
    {
      Scope s(spans, "farm.admission.failover");
      if (plane->processor_failed(ev.processor)) return;
      plane->fail_processor(ev.processor);
      residents = plane->resident_stream_ids(ev.processor);
    }
    for (const int id : residents) {
      const std::size_t i = index_of.at(id);
      const farm::StreamSpec& spec = sc.streams[i];
      release(id, ev.time);
      apply_renegotiations();
      const rt::Cycles period = farm::period_of(spec);
      const rt::Cycles elapsed = ev.time - spec.join_time;
      const int ff = elapsed >= 0 ? static_cast<int>(elapsed / period) + 1 : 0;
      if (ff >= spec.num_frames) continue;
      farm::StreamSpec resume = spec;
      resume.join_time = spec.join_time + static_cast<rt::Cycles>(ff) * period;
      resume.num_frames = spec.num_frames - ff;
      const farm::Placement pl = admit(resume);
      apply_renegotiations();
      if (!pl.admitted) continue;
      Segment seg;
      seg.placement = pl;
      seg.first_frame = ff;
      seg.epochs.push_back(farm::BudgetEpoch{resume.join_time, pl.table_budget,
                                             pl.committed_cost, pl.system});
      out[i].push_back(std::move(seg));
    }
  };

  auto drain_until = [&](rt::Cycles t_limit) {
    while (true) {
      const rt::Cycles t_leave = leaves.empty() ? kNever : leaves.top().first;
      const rt::Cycles t_fail =
          next_perm < perm.size() ? sc.faults.failures[perm[next_perm]].time
                                  : kNever;
      if (t_leave == kNever && t_fail == kNever) break;
      if (t_leave > t_limit && t_fail > t_limit) break;
      if (t_leave <= t_fail) {
        const Leave l = leaves.top();
        leaves.pop();
        release(l.second, l.first);
        apply_renegotiations();
      } else {
        handle_failure(perm[next_perm++]);
      }
    }
  };

  for (const std::size_t i : join_order) {
    const farm::StreamSpec& spec = sc.streams[i];
    drain_until(spec.join_time);
    const farm::Placement pl = admit(spec);
    if (pl.admitted) {
      Segment base;
      base.placement = pl;
      out[i].push_back(std::move(base));
    }
    apply_renegotiations();
    if (pl.admitted) {
      // Renegotiations never target the newcomer itself, so its base
      // epoch is simply the first.
      std::vector<farm::BudgetEpoch>& ep = out[i].front().epochs;
      ep.insert(ep.begin(), farm::BudgetEpoch{spec.join_time, pl.table_budget,
                                              pl.committed_cost, pl.system});
      leaves.emplace(farm::leave_time_of(spec), spec.id);
    }
  }
  drain_until(kNever);
  *tables_compiled = static_cast<long long>(tables.compiled_systems());
  return out;
}

bool same_placement(const farm::Placement& a, const farm::Placement& b) {
  return a.admitted == b.admitted && a.processor == b.processor &&
         a.table_budget == b.table_budget &&
         a.committed_cost == b.committed_cost;
}

bool same_epochs(const std::vector<farm::BudgetEpoch>& a,
                 const std::vector<farm::BudgetEpoch>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].from_time != b[k].from_time ||
        a[k].table_budget != b[k].table_budget ||
        a[k].committed_cost != b[k].committed_cost) {
      return false;
    }
  }
  return true;
}

/// Control-plane verdicts that differ from the farm's.
long long placement_mismatches(const farm::FarmResult& farm,
                               const PlaneOutcome& plane) {
  long long bad = 0;
  for (std::size_t i = 0; i < farm.streams.size(); ++i) {
    const farm::StreamOutcome& so = farm.streams[i];
    const std::vector<Segment>& segs = plane[i];
    if (!so.placement.admitted) {
      bad += segs.empty() ? 0 : 1;
      continue;
    }
    if (segs.size() != 1 + so.failover.size() ||
        !same_placement(so.placement, segs[0].placement) ||
        !same_epochs(so.epochs, segs[0].epochs)) {
      ++bad;
      continue;
    }
    for (std::size_t k = 0; k < so.failover.size(); ++k) {
      const farm::FailoverSegment& fs = so.failover[k];
      if (fs.first_frame != segs[k + 1].first_frame ||
          !same_placement(fs.placement, segs[k + 1].placement) ||
          !same_epochs(fs.epochs, segs[k + 1].epochs)) {
        ++bad;
      }
    }
  }
  return bad;
}

/// One session call, at the simulated instant the farm made it.  At
/// equal instants the farm's event loop orders completions, repairs,
/// outage starts, arrivals, then dispatches.
enum class Call { kFinish, kReset, kOutage, kArrival, kEncode };

struct Event {
  rt::Cycles time = 0;
  Call rank = Call::kEncode;
  int frame = -1;
  enum Kind { kEncodeFrame, kDeliver, kLose, kSkip, kDrop, kResetRef };
  Kind kind = kEncodeFrame;
  bool operator<(const Event& o) const {
    return std::tie(time, rank, frame) < std::tie(o.time, o.rank, o.frame);
  }
};

struct OutageWindow {
  rt::Cycles start = 0;
  rt::Cycles end = kNever;
};

struct DataPlaneCounts {
  long long encodes = 0, deliveries = 0, decodes = 0, skips = 0,
            concealed = 0, sessions = 0;
};

/// The farm's per-frame call sequence for one segment, rebuilt from its
/// records.  A frame with bits was encoded at arrival + start lag and
/// finished encode_cycles later (the farm serves one frame of a stream
/// at a time); whether the finish delivered or lost it follows from the
/// record's flags and the processor's outage windows.
std::vector<Event> segment_events(const farm::StreamSpec& spec,
                                  const std::vector<pipe::FrameRecord>& recs,
                                  int first, int end,
                                  const std::vector<OutageWindow>& outages) {
  const rt::Cycles period = farm::period_of(spec);
  auto outage_start_at = [&](rt::Cycles t) {
    for (const OutageWindow& o : outages) {
      if (o.start == t) return true;
    }
    return false;
  };
  std::vector<Event> ev;
  for (int f = first; f < end; ++f) {
    const pipe::FrameRecord& r = recs[static_cast<std::size_t>(f)];
    const rt::Cycles arrival =
        spec.join_time + static_cast<rt::Cycles>(f) * period;
    if (r.skipped) {
      ev.push_back({arrival, Call::kArrival, f, Event::kSkip});
    } else if (r.bits == 0) {
      // Never serviced: dropped at arrival inside an outage, or queued
      // when an outage began.
      rt::Cycles when = kNever;
      Call rank = Call::kArrival;
      for (const OutageWindow& o : outages) {
        if (arrival >= o.start && arrival < o.end) {
          when = arrival;
          rank = Call::kArrival;
          break;
        }
        if (o.start > arrival && o.start < when) {
          when = o.start;
          rank = Call::kOutage;
        }
      }
      if (when == kNever) {
        throw std::runtime_error("replay: unserviced frame outside any outage "
                                 "(quarantine is not replayed)");
      }
      ev.push_back({when, rank, f, Event::kDrop});
    } else {
      const rt::Cycles start = arrival + r.start_lag;
      const rt::Cycles finish = start + r.encode_cycles;
      ev.push_back({start, Call::kEncode, f, Event::kEncodeFrame});
      const bool in_service_loss = r.concealed && !r.lost && !r.aborted &&
                                   outage_start_at(finish);
      const bool lose = r.lost || r.aborted || in_service_loss;
      ev.push_back({finish, in_service_loss ? Call::kOutage : Call::kFinish, f,
                    lose ? Event::kLose : Event::kDeliver});
    }
  }
  for (const OutageWindow& o : outages) {
    if (o.end != kNever) {
      ev.push_back({o.end, Call::kReset, -1, Event::kResetRef});
    }
  }
  std::sort(ev.begin(), ev.end());
  return ev;
}

bool same_record(const pipe::FrameRecord& a, const pipe::FrameRecord& b) {
  return a.skipped == b.skipped && a.concealed == b.concealed &&
         a.bits == b.bits && a.mean_quality == b.mean_quality &&
         a.psnr == b.psnr && a.ssim == b.ssim;
}

}  // namespace

bool ReplayOutcome::ok() const {
  if (frame_mismatches != 0 || placement_mismatches != 0) return false;
  for (const CountCheck& c : counts) {
    if (!c.ok()) return false;
  }
  return true;
}

ReplayOutcome replay_farm(const Workload& w, const farm::FarmResult& farm,
                          SpanRecorder* spans) {
  const farm::FarmScenario& sc = w.scenario;
  if (sc.sched.split || w.config.rebalance_watermark > 0.0 ||
      (sc.faults.overrun.enabled() &&
       sc.faults.overrun.policy != farm::OverrunPolicy::kAbortConceal)) {
    throw std::runtime_error(
        "replay: splits, rebalancing and ladder overrun policies are not "
        "replayed");
  }
  const auto t0 = std::chrono::steady_clock::now();
  ReplayOutcome r;

  long long verdicts = 0;
  const PlaneOutcome plane =
      replay_control_plane(w, spans, &verdicts, &r.tables_compiled);
  r.placement_mismatches = placement_mismatches(farm, plane);
  r.counts.push_back(
      {"verdicts",
       farm.admitted + farm.rejected + farm.failover_readmissions +
           farm.failover_drops,
       verdicts});

  std::vector<std::vector<OutageWindow>> outages(
      static_cast<std::size_t>(w.config.num_processors));
  for (const farm::FailureEvent& ev : sc.faults.failures) {
    outages[static_cast<std::size_t>(ev.processor)].push_back(
        {ev.time, ev.permanent() ? kNever : ev.time + ev.repair});
  }
  const bool tracking = sc.faults.any();

  DataPlaneCounts n;
  for (std::size_t i = 0; i < sc.streams.size() && r.placement_mismatches == 0;
       ++i) {
    const farm::StreamSpec& spec = sc.streams[i];
    const std::vector<Segment>& segs = plane[i];
    if (segs.empty()) continue;
    const std::vector<pipe::FrameRecord>& farm_recs =
        farm.streams[i].result.frames;
    std::vector<pipe::FrameRecord> recs(farm_recs.size());
    const std::int64_t mbs = farm::macroblocks_of(spec);
    for (std::size_t s = 0; s < segs.size(); ++s) {
      const Segment& seg = segs[s];
      const int end = s + 1 < segs.size() ? segs[s + 1].first_frame
                                          : spec.num_frames;
      std::unique_ptr<pipe::StreamSession> session;
      {
        Scope sp(spans, "pipeline.session");
        session = std::make_unique<pipe::StreamSession>(
            session_config(spec, w.config.seed, w.config.frame_rate),
            seg.epochs.front().table_budget, seg.epochs.front().system);
        if (tracking) session->track_delivery();
      }
      ++n.sessions;
      const rt::Cycles period = farm::period_of(spec);
      std::size_t epoch = 0;
      bool has_reference = false;  // encoder reference (untracked scoring)
      bool displayed = false;      // decoder output exists (tracked)

      // Shadows of the synthesis and scoring that lose / skip / drop
      // make internally: they always synthesise the frame, and score it
      // when there is a picture to score against.
      auto shadow_rescore = [&](int f, bool scores, int* synth_id,
                                int* score_id) {
        *synth_id = spans->begin("media.synth");
        const qosctrl::media::Frame in = session->video().frame(f);
        spans->end(*synth_id);
        if (scores) {
          *score_id = spans->begin("quality.score");
          qosctrl::quality::measure(in, in);
          spans->end(*score_id);
        }
      };
      auto adopt = [&](int parent, int synth_id, int score_id) {
        spans->set_shadow_parent(synth_id, parent);
        if (score_id >= 0) spans->set_shadow_parent(score_id, parent);
      };

      for (const Event& e :
           segment_events(spec, farm_recs, seg.first_frame, end,
                          outages[static_cast<std::size_t>(
                              seg.placement.processor)])) {
        const int f = e.frame;
        pipe::FrameRecord* rec =
            f >= 0 ? &recs[static_cast<std::size_t>(f)] : nullptr;
        const bool scores = tracking ? displayed : has_reference;
        int synth_id = -1, score_id = -1;
        switch (e.kind) {
          case Event::kEncodeFrame: {
            const rt::Cycles arrival =
                spec.join_time + static_cast<rt::Cycles>(f) * period;
            while (epoch + 1 < seg.epochs.size() &&
                   seg.epochs[epoch + 1].from_time <= arrival) {
              ++epoch;
            }
            if (seg.epochs[epoch].system.get() != &session->system()) {
              Scope sp(spans, "pipeline.switch_system");
              session->switch_system(seg.epochs[epoch].system);
            }
            synth_id = spans->begin("media.synth");
            const qosctrl::media::YuvFrame in = session->video().frame_yuv(f);
            spans->end(synth_id);
            score_id = spans->begin("quality.score");
            qosctrl::quality::measure(in.y, in.y);
            spans->end(score_id);
            Scope sp(spans, "encoder.encode", mbs);
            *rec = session->encode(f, 0);
            adopt(sp.id(), synth_id, score_id);
            has_reference = true;
            ++n.encodes;
            break;
          }
          case Event::kDeliver: {
            if (!tracking) {
              // Without tracking deliver() neither decodes nor scores.
              Scope sp(spans, "pipeline.deliver");
              *rec = session->deliver(*rec);
              ++n.deliveries;
              break;
            }
            // Decoding either succeeds (score against the decoded
            // picture) or conceals (score against the display, if any);
            // the score shadow runs once the outcome is known.
            synth_id = spans->begin("media.synth");
            const qosctrl::media::Frame in = session->video().frame(f);
            spans->end(synth_id);
            const bool had_display = displayed;
            int decode_id = -1;
            {
              Scope sp(spans, "encoder.decode");
              decode_id = sp.id();
              *rec = session->deliver(*rec);
            }
            if (rec->concealed) {
              ++r.decode_failures;
              ++n.concealed;
            } else {
              displayed = true;
            }
            if (!rec->concealed || had_display) {
              score_id = spans->begin("quality.score");
              qosctrl::quality::measure(in, in);
              spans->end(score_id);
            }
            adopt(decode_id, synth_id, score_id);
            ++n.deliveries;
            ++n.decodes;
            break;
          }
          case Event::kLose:
          case Event::kSkip:
          case Event::kDrop: {
            shadow_rescore(f, scores, &synth_id, &score_id);
            Scope sp(spans, "pipeline.conceal");
            if (e.kind == Event::kLose) {
              *rec = session->lose(*rec);
              ++n.concealed;
            } else if (e.kind == Event::kSkip) {
              *rec = session->skip(f);
              ++n.skips;
            } else {
              *rec = session->drop(f);
              ++n.concealed;
            }
            adopt(sp.id(), synth_id, score_id);
            break;
          }
          case Event::kResetRef:
            session->reset_reference();
            has_reference = false;
            break;
        }
      }
    }
    for (std::size_t f = 0; f < recs.size(); ++f) {
      ++r.frames_compared;
      if (!same_record(recs[f], farm_recs[f])) ++r.frame_mismatches;
      if (!recs[f].skipped && recs[f].bits > 0) r.bits += recs[f].bits;
    }
  }

  const auto counter = [&](const char* name) -> long long {
    const auto& c = farm.metrics.counters();
    const auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
  };
  const long long farm_deliveries = counter("frames_completed") -
                                    farm.faults_total.lost_frames -
                                    farm.faults_total.aborted_frames;
  r.counts.push_back(
      {"encoded_frames", counter("frames_dispatched"), n.encodes});
  r.counts.push_back({"deliveries", farm_deliveries, n.deliveries});
  r.counts.push_back({"decodes", tracking ? farm_deliveries : 0, n.decodes});
  r.counts.push_back({"camera_skips", counter("camera_skips"), n.skips});
  r.counts.push_back({"concealed", counter("frames_concealed"), n.concealed});
  long long farm_segments = 0;
  for (const farm::StreamOutcome& so : farm.streams) {
    if (so.placement.admitted) {
      farm_segments += 1 + static_cast<long long>(so.failover.size());
    }
  }
  r.counts.push_back({"sessions", farm_segments, n.sessions});
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

void replay_table_compiles(const farm::FarmResult& farm, SpanRecorder* spans) {
  std::set<std::pair<int, rt::Cycles>> keys;
  auto note = [&](const std::vector<farm::BudgetEpoch>& epochs) {
    for (const farm::BudgetEpoch& e : epochs) {
      if (e.system != nullptr) {
        keys.emplace(e.system->macroblocks, e.system->budget);
      }
    }
  };
  for (const farm::StreamOutcome& so : farm.streams) {
    note(so.epochs);
    for (const farm::FailoverSegment& fs : so.failover) note(fs.epochs);
  }
  farm::TableCache fresh(qosctrl::platform::figure5_cost_table());
  for (const auto& [mb, budget] : keys) {
    Scope s(spans, "farm.tables.compile");
    fresh.get(mb, budget);
  }
}

}  // namespace perfbench
