// Farm benchmark program.  perfbench/run.py runs it; see README.md.
//
//   farm_bench info
//       Provenance as JSON: nproc, compiler, SIMD backend, build type,
//       version, and whether the build may record results.
//   farm_bench run --workload W --seed S [--workers N]
//       One timed farm run -- run_farm plus farm::to_json (plus
//       obs::export_chrome_trace when the workload traces), what
//       `qosfarm run --json/--trace` pays -- and its correctness
//       checks, as one JSON line.  One run per process, so no cache
//       survives from one timed run into the next.
//   farm_bench trace --workload W --seed S --workers N --seconds T
//                    --out FILE
//       The traced run, in passes for T seconds (at least two): the
//       untraced farm run, the same run on N workers and with
//       observability flipped, then the layer replay (replay.h), its
//       spans written to FILE as Chrome trace JSON.  Prints a self-time
//       table per layer and the per-layer metrics (medians over passes)
//       as one JSON line.
//
// Both measuring modes refuse to run from a non-Release build or with
// a SIMD override unless --allow-unrepresentative is given.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "farm/metrics.h"
#include "farm/simulator.h"
#include "obs/buildinfo.h"
#include "obs/trace.h"
#include "replay.h"
#include "spans.h"
#include "workloads.h"

namespace farm = qosctrl::farm;
namespace rt = qosctrl::rt;
using perfbench::Workload;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

double mono_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double since_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Why this build or environment would not give representative
/// numbers; empty when it would.
std::vector<std::string> unrepresentative_reasons() {
  std::vector<std::string> why;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    why.push_back(std::string("build type is ") + PERFBENCH_BUILD_TYPE +
                  ", not Release");
  }
#ifdef PERFBENCH_FORCE_SCALAR
  why.push_back("library built with QOSCTRL_FORCE_SCALAR");
#endif
  for (const char* var : {"QOSCTRL_FORCE_SCALAR", "QOSCTRL_SIMD"}) {
    if (std::getenv(var) != nullptr) {
      why.push_back(std::string(var) + " is set in the environment");
    }
  }
  return why;
}

std::string info_json() {
  const qosctrl::obs::BuildInfo b = qosctrl::obs::build_info();
  std::string why;
  for (const std::string& r : unrepresentative_reasons()) {
    why += (why.empty() ? "\"" : ",\"") + json_escape(r) + "\"";
  }
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%u,\"compiler\":\"%s\",\"simd_backend\":\"%s\","
                "\"build_type\":\"%s\",\"version\":\"%s\","
                "\"unrepresentative\":[%s]}",
                std::thread::hardware_concurrency(),
                json_escape(b.compiler).c_str(),
                json_escape(b.simd_backend).c_str(), PERFBENCH_BUILD_TYPE,
                json_escape(b.version).c_str(), why.c_str());
  return buf;
}

struct Args {
  std::string mode, workload, out;
  std::uint64_t seed = 1;
  int workers = 1;
  double seconds = 0.0;
  bool allow_unrepresentative = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: farm_bench info\n"
               "       farm_bench run --workload W --seed S [--workers N]\n"
               "       farm_bench trace --workload W --seed S --workers N "
               "--seconds T --out FILE\n"
               "       [--allow-unrepresentative]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (k == "--allow-unrepresentative") {
      a->allow_unrepresentative = true;
    } else if (v == nullptr) {
      return false;
    } else if (k == "--workload") {
      a->workload = v, ++i;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (k == "--workers") {
      a->workers = std::atoi(v), ++i;
    } else if (k == "--seconds") {
      a->seconds = std::atof(v), ++i;
    } else if (k == "--out") {
      a->out = v, ++i;
    } else {
      return false;
    }
  }
  return a->workers >= 1;
}

/// One farm run as qosfarm pays it: simulate, render the JSON report,
/// and render the Chrome trace when the workload traces.
struct TimedRun {
  farm::FarmResult result;
  std::string report;
  std::size_t trace_bytes = 0;  ///< size of the Chrome trace, 0 untraced
  double wall_s = 0.0;          ///< run_farm + to_json (+ trace export)
};

TimedRun timed_run(const Workload& w, int workers) {
  farm::FarmConfig cfg = w.config;
  cfg.workers = workers;
  TimedRun t;
  const auto t0 = std::chrono::steady_clock::now();
  t.result = farm::run_farm(w.scenario, cfg);
  t.report = farm::to_json(t.result);
  if (cfg.trace) {
    t.trace_bytes = qosctrl::obs::export_chrome_trace(t.result.trace,
                                                      cfg.num_processors)
                        .size();
  }
  t.wall_s = since_s(t0);
  return t;
}

/// The per-run correctness checks; returns the names of those failed.
std::vector<std::string> check_run(const Workload& w,
                                   const farm::FarmResult& r) {
  std::vector<std::string> failed;
  auto expect = [&](bool ok, const char* name) {
    if (!ok) failed.push_back(name);
  };
  const long long offered = static_cast<long long>(w.scenario.streams.size());
  expect(r.total_streams == offered && r.admitted + r.rejected == offered,
         "admitted+rejected==offered");
  long long frames = 0, skipped = 0, concealed = 0, shown = 0;
  bool lengths_ok = true;
  for (const farm::StreamOutcome& so : r.streams) {
    if (!so.placement.admitted) continue;
    lengths_ok = lengths_ok && static_cast<int>(so.result.frames.size()) ==
                                   so.spec.num_frames;
    for (const auto& fr : so.result.frames) {
      ++frames;
      if (fr.skipped) {
        ++skipped;
      } else if (fr.concealed) {
        ++concealed;
      } else {
        ++shown;
      }
    }
  }
  expect(lengths_ok && frames == r.total_frames &&
             skipped + concealed + shown == r.total_frames &&
             skipped == r.total_skips && concealed == r.total_concealed,
         "frame_outcomes_sum_to_total_frames");
  if (w.name == "steady-qcif") {
    expect(r.total_display_misses == 0, "steady_zero_display_misses");
  }
  if (w.name == "faulted-qcif") {
    expect(r.total_concealed >= r.faults_total.lost_frames,
           "concealed>=lost");
    // Every stream the permanent failure displaced with frames still to
    // come is re-hosted on a survivor.  A stream whose last frame had
    // already arrived is displaced too, with nothing left to re-admit.
    bool rehosted = false;
    for (const farm::FailureOutcome& fo : r.failures) {
      if (!fo.event.permanent()) continue;
      const rt::Cycles t = fo.event.time;
      int nothing_left = 0;
      for (const farm::StreamOutcome& so : r.streams) {
        if (!so.placement.admitted || so.spec.join_time >= t ||
            farm::leave_time_of(so.spec) <= t ||
            so.placement.processor != fo.event.processor) {
          continue;
        }
        const rt::Cycles elapsed = t - so.spec.join_time;
        if (elapsed / farm::period_of(so.spec) + 1 >= so.spec.num_frames) {
          ++nothing_left;
        }
      }
      rehosted = fo.displaced >= 1 && fo.dropped == 0 &&
                 fo.readmitted == fo.displaced - nothing_left;
    }
    expect(rehosted,
           "permanent_failure_readmitted==displaced_with_frames_left");
  }
  return failed;
}

std::string string_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ",\"" : "\"") + json_escape(v[i]) + "\"";
  }
  return out + "]";
}

int cmd_run(const Workload& w, int workers, double ready_mono) {
  const TimedRun t = timed_run(w, workers);
  const farm::FarmResult& r = t.result;
  std::printf(
      "{\"ready_mono\":%.9f,\"wall_s\":%.9f,"
      "\"total_frames\":%lld,\"encoded_frames\":%lld,"
      "\"display_misses\":%d,\"mean_quality\":%.17g,\"admitted\":%d,"
      "\"digest\":\"%s\",\"report_bytes\":%zu,\"trace_bytes\":%zu,"
      "\"failed_checks\":%s}\n",
      ready_mono, t.wall_s, r.total_frames, r.encoded_frames,
      r.total_display_misses, r.fleet_mean_quality, r.admitted,
      hex(fnv1a(t.report)).c_str(), t.report.size(), t.trace_bytes,
      string_list(check_run(w, r)).c_str());
  return 0;
}

struct Metric {
  std::string name, unit;
  double value;
};

/// One traced pass: the untraced farm run the replay follows, the same
/// run on the worker pool and with observability flipped, then the
/// layer replay into `spans`.  Appends failed check names to `failed`.
std::vector<Metric> trace_pass(const Workload& w, int workers,
                               perfbench::SpanRecorder* spans,
                               perfbench::ReplayOutcome* rp,
                               std::vector<std::string>* failed) {
  const auto t0 = std::chrono::steady_clock::now();
  const farm::FarmResult farm = farm::run_farm(w.scenario, w.config);
  const double wall = since_s(t0);
  for (const std::string& c : check_run(w, farm)) failed->push_back(c);

  std::string report;
  {
    perfbench::Scope s(spans, "farm.report.to_json");
    report = farm::to_json(farm);
  }

  farm::FarmConfig multi = w.config;
  multi.workers = workers;
  const auto t1 = std::chrono::steady_clock::now();
  const farm::FarmResult pooled = farm::run_farm(w.scenario, multi);
  const double pooled_wall = since_s(t1);
  if (farm::to_json(pooled) != report) failed->push_back("worker_digest");

  farm::FarmConfig flipped = w.config;
  perfbench::set_observability(&flipped, !w.config.trace);
  const auto t2 = std::chrono::steady_clock::now();
  const farm::FarmResult other = farm::run_farm(w.scenario, flipped);
  const double other_wall = since_s(t2);
  const farm::FarmResult& with_obs = w.config.trace ? farm : other;
  const double obs_overhead =
      w.config.trace ? wall - other_wall : other_wall - wall;
  const auto t3 = std::chrono::steady_clock::now();
  qosctrl::obs::export_chrome_trace(with_obs.trace, w.config.num_processors);
  const double export_s = since_s(t3);

  *rp = perfbench::replay_farm(w, farm, spans);
  perfbench::replay_table_compiles(farm, spans);
  if (!rp->ok()) failed->push_back("replay_counts_match_farm");

  std::map<std::string, perfbench::LayerStats> agg =
      perfbench::aggregate(*spans);
  auto calls = [&](const char* name) {
    return static_cast<double>(agg[name].calls);
  };
  auto p = [&](const char* name, double pct) {
    return perfbench::percentile(agg[name].self_per_unit_ns, pct);
  };
  auto total_s = [&](const char* name) { return agg[name].total_ns * 1e-9; };
  auto self_s = [&](const char* name) { return agg[name].self_ns * 1e-9; };
  const auto counter = [&](const char* name) -> double {
    const auto& c = farm.metrics.counters();
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };

  // Synthesis and scoring are only ever recorded as shadows, so their
  // totals are their self times.
  const double synth_s = total_s("media.synth");
  const double score_s = total_s("quality.score");
  const double encode_self = self_s("encoder.encode");
  const double decode_self = self_s("encoder.decode");
  const double pipeline_self =
      self_s("pipeline.session") + self_s("pipeline.deliver") +
      self_s("pipeline.conceal") + self_s("pipeline.switch_system");
  double admission_busy = 0.0;
  for (const char* n : {"farm.admission.setup", "farm.admission.admit",
                        "farm.admission.release", "farm.admission.renegotiate",
                        "farm.admission.failover"}) {
    admission_busy += total_s(n);
  }
  const double unattributed = wall - synth_s - score_s - encode_self -
                              decode_self - pipeline_self - admission_busy;
  const double verdicts = calls("farm.admission.admit");
  const double admits = farm.admitted + farm.failover_readmissions;

  return {
      {"media.synth.calls", "count", calls("media.synth")},
      {"media.synth.ns_per_frame_p50", "ns", p("media.synth", 50)},
      {"media.synth.share", "ratio", synth_s / wall},
      {"encoder.encode.calls", "count", calls("encoder.encode")},
      {"encoder.encode.self_ns_per_mb_p50", "ns", p("encoder.encode", 50)},
      {"encoder.encode.self_share", "ratio", encode_self / wall},
      {"encoder.bits", "bits", static_cast<double>(rp->bits)},
      {"encoder.decode.calls", "count", calls("encoder.decode")},
      {"encoder.decode.ns_per_frame_p50", "ns", p("encoder.decode", 50)},
      {"encoder.decode.failed", "count",
       static_cast<double>(rp->decode_failures)},
      {"encoder.decode.self_share", "ratio", decode_self / wall},
      {"quality.score.calls", "count", calls("quality.score")},
      {"quality.score.ns_per_frame_p50", "ns", p("quality.score", 50)},
      {"quality.score.share", "ratio", score_s / wall},
      {"pipeline.session.calls", "count", calls("pipeline.session")},
      {"pipeline.session.setup_us_p50", "us",
       p("pipeline.session", 50) / 1e3},
      {"pipeline.self_share", "ratio", pipeline_self / wall},
      {"farm.admission.verdicts", "count", verdicts},
      {"farm.admission.us_per_verdict_p50", "us",
       p("farm.admission.admit", 50) / 1e3},
      {"farm.admission.us_per_verdict_p99", "us",
       p("farm.admission.admit", 99) / 1e3},
      {"farm.admission.admit_ratio", "ratio",
       verdicts > 0 ? admits / verdicts : 0.0},
      {"farm.admission.busy_s", "s", admission_busy},
      {"farm.admission.share", "ratio", admission_busy / wall},
      {"sched.demand_tests", "count", counter("admission_demand_tests")},
      {"sched.qpa_points", "count", counter("admission_qpa_points")},
      {"sched.busy_iterations", "count", counter("admission_busy_iterations")},
      {"farm.tables.compiled", "count",
       static_cast<double>(rp->tables_compiled)},
      {"farm.tables.compile_ms_p50", "ms", p("farm.tables.compile", 50) / 1e6},
      {"farm.report.json_s", "s", total_s("farm.report.to_json")},
      {"farm.report.json_bytes", "bytes", static_cast<double>(report.size())},
      {"obs.overhead_s", "s", obs_overhead},
      {"obs.trace.events", "count", static_cast<double>(with_obs.trace.size())},
      {"obs.trace.dropped", "count",
       static_cast<double>(with_obs.trace_dropped)},
      {"obs.series.windows", "count",
       static_cast<double>(with_obs.series.last_window() + 1)},
      {"obs.trace.export_s", "s", export_s},
      {"farm.run.wall_s", "s", wall},
      {"farm.unattributed_s", "s", unattributed},
      {"farm.unattributed_share", "ratio", unattributed / wall},
      {"farm.workers.speedup", "x", pooled_wall > 0 ? wall / pooled_wall : 0.0},
      {"bench.trace.overhead_s", "s", rp->wall_s - synth_s - score_s - wall},
  };
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int cmd_trace(const Workload& w, int workers, double seconds,
              const std::string& out_path) {
  // Passes for `seconds` (at least two; a pass that would end past them
  // is not started), each metric reported as its median over passes:
  // the host's speed drifts between the farm run and its replay.
  constexpr int kMinPasses = 2;
  std::vector<std::string> failed;
  std::vector<std::vector<Metric>> passes;
  perfbench::ReplayOutcome rp;
  const auto start = std::chrono::steady_clock::now();
  double last_pass_s = 0.0;
  while (static_cast<int>(passes.size()) < kMinPasses ||
         since_s(start) + last_pass_s <= seconds) {
    const auto t = std::chrono::steady_clock::now();
    perfbench::SpanRecorder spans;
    passes.push_back(trace_pass(w, workers, &spans, &rp, &failed));
    last_pass_s = since_s(t);
    if (passes.size() == 1 && !out_path.empty()) {
      std::ofstream f(out_path, std::ios::binary);
      f << spans.chrome_json();
      if (!f) failed.push_back("write_span_trace");
    }
  }
  std::vector<Metric> metrics = passes.front();
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    std::vector<double> v;
    for (const std::vector<Metric>& pass : passes) v.push_back(pass[m].value);
    metrics[m].value = median(v);
  }
  std::map<std::string, double> by_name;
  for (const Metric& m : metrics) by_name[m.name] = m.value;

  std::printf("self time per layer (%s, median of %zu passes; farm run "
              "%.3f s at 1 worker):\n",
              w.name.c_str(), passes.size(), by_name["farm.run.wall_s"]);
  const struct {
    const char* layer;
    const char* share;
  } rows[] = {
      {"media", "media.synth.share"},
      {"encoder.encode", "encoder.encode.self_share"},
      {"encoder.decode", "encoder.decode.self_share"},
      {"quality", "quality.score.share"},
      {"pipeline", "pipeline.self_share"},
      {"farm.admission", "farm.admission.share"},
      {"unattributed", "farm.unattributed_share"},
  };
  for (const auto& row : rows) {
    std::printf("  %-16s %7.1f%%\n", row.layer, 100.0 * by_name[row.share]);
  }
  std::printf("replayed counts vs the farm's (last pass):\n");
  for (const perfbench::CountCheck& c : rp.counts) {
    std::printf("  %-16s farm=%lld replay=%lld %s\n", c.name.c_str(), c.farm,
                c.replay, c.ok() ? "ok" : "MISMATCH");
  }
  std::printf("  frames compared=%lld mismatched=%lld; placements "
              "mismatched=%lld\n",
              rp.frames_compared, rp.frame_mismatches, rp.placement_mismatches);

  std::sort(failed.begin(), failed.end());
  failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
  std::string line = "{\"passes\":" + std::to_string(passes.size()) +
                     ",\"failed_checks\":" + string_list(failed) +
                     ",\"metrics\":{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i ? "," : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += buf;
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) return usage();
  if (a.mode == "info") {
    std::printf("%s\n", info_json().c_str());
    return 0;
  }
  if (a.mode != "run" && a.mode != "trace") return usage();
  const std::vector<std::string> why = unrepresentative_reasons();
  if (!why.empty() && !a.allow_unrepresentative) {
    for (const std::string& r : why) {
      std::fprintf(stderr, "farm_bench: refusing to record: %s\n", r.c_str());
    }
    std::fprintf(stderr, "farm_bench: pass --allow-unrepresentative to "
                         "measure anyway\n");
    return 3;
  }
  Workload w;
  if (!perfbench::make_workload(a.workload, a.seed, &w)) {
    std::fprintf(stderr, "farm_bench: unknown workload '%s'\n",
                 a.workload.c_str());
    return usage();
  }
  if (a.mode == "run") return cmd_run(w, a.workers, mono_now_s());
  return cmd_trace(w, a.workers, a.seconds, a.out);
}
