#include "obs/slo.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <sstream>
#include <utility>

namespace qosctrl::obs {
namespace {

/// Fast/slow burn spans in evaluation points (the classic multi-window
/// pair, scaled to the simulation's short horizons).
constexpr int kFastPoints = 4;
constexpr int kSlowPoints = 16;

/// Every spelling of each metric and scope; the first one listed for a
/// value is its canonical name.
constexpr std::pair<const char*, SloMetric> kMetricNames[] = {
    {"latency_p50", SloMetric::kLatencyP50},
    {"latency_p95", SloMetric::kLatencyP95},
    {"latency_p99", SloMetric::kLatencyP99},
    {"queue_p99", SloMetric::kQueueP99},
    {"miss_rate", SloMetric::kMissRate},
    {"conceal_rate", SloMetric::kConcealRate},
    {"recovery_latency", SloMetric::kRecoveryLatency},
    {"p50_latency", SloMetric::kLatencyP50},
    {"p95_latency", SloMetric::kLatencyP95},
    {"p99_latency", SloMetric::kLatencyP99},
    {"concealment_rate", SloMetric::kConcealRate},
};
constexpr std::pair<const char*, SloVerdict> kVerdictNames[] = {
    {"met", SloVerdict::kMet},
    {"missed", SloVerdict::kMissed},
    {"no_data", SloVerdict::kNoData},
};
constexpr std::pair<const char*, SloScope> kScopeNames[] = {
    {"fleet", SloScope::kFleet},
    {"controlled", SloScope::kControlled},
    {"constant", SloScope::kConstant},
    {"feedback", SloScope::kFeedback},
};

template <class Enum, std::size_t N>
bool parse_name(const std::pair<const char*, Enum> (&names)[N],
                const std::string& s, Enum* out) {
  for (const auto& [name, value] : names) {
    if (s == name) {
      *out = value;
      return true;
    }
  }
  return false;
}

template <class Enum, std::size_t N>
const char* name_of(const std::pair<const char*, Enum> (&names)[N],
                    Enum value) {
  for (const auto& [name, v] : names) {
    if (v == value) return name;
  }
  return "?";
}

bool is_rate(SloMetric m) {
  return m == SloMetric::kMissRate || m == SloMetric::kConcealRate;
}

bool is_latency(SloMetric m) {
  return m == SloMetric::kLatencyP50 || m == SloMetric::kLatencyP95 ||
         m == SloMetric::kLatencyP99;
}

/// "50ms" / "4Mc" / "400000c" -> cycles; false when it overflows.
bool parse_span(const std::string& s, rt::Cycles* out) {
  std::size_t i = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  const std::string unit = s.substr(i);
  const rt::Cycles scale = unit == "ms"   ? kCyclesPerMs
                           : unit == "Mc" ? 1000000
                           : unit == "c"  ? 1
                                          : 0;
  rt::Cycles n = 0;
  const auto parsed = std::from_chars(s.data(), s.data() + i, n);
  if (i == 0 || scale == 0 || parsed.ec != std::errc() ||
      n > std::numeric_limits<rt::Cycles>::max() / scale) {
    return false;
  }
  *out = n * scale;
  return *out > 0;
}

/// "0.8", "0.8w", "0.8*window" -> value + the in-windows flag.
bool parse_threshold(const std::string& s, double* value, bool* in_windows) {
  std::string num = s;
  *in_windows = false;
  if (num.size() > 7 && num.substr(num.size() - 7) == "*window") {
    num = num.substr(0, num.size() - 7);
    *in_windows = true;
  } else if (!num.empty() && num.back() == 'w') {
    num = num.substr(0, num.size() - 1);
    *in_windows = true;
  }
  if (num.empty()) return false;
  char* end = nullptr;
  *value = std::strtod(num.c_str(), &end);
  return end == num.c_str() + num.size() && std::isfinite(*value) &&
         *value >= 0.0;
}

/// The track an objective reads under its scope: the bare fleet track,
/// or the `@class` variant the data plane records next to it.
std::string scoped_track(const char* base, SloScope scope) {
  static_assert(static_cast<int>(SloScope::kFeedback) ==
                    static_cast<int>(tracks::kClassNames.size()),
                "one SLO scope per stream class, after kFleet");
  return scope == SloScope::kFleet
             ? std::string(base)
             : tracks::of_class(base, static_cast<std::size_t>(scope) - 1);
}

const SeriesTrack* find_track(const TimeSeries& series,
                              const std::string& name) {
  const auto it = series.tracks.find(name);
  return it == series.tracks.end() ? nullptr : &it->second;
}

/// Merges `track`'s histograms over base windows [lo, hi] (inclusive).
Histogram merge_span(const SeriesTrack& track, long long lo, long long hi) {
  Histogram h;
  for (auto it = track.lower_bound(lo);
       it != track.end() && it->first <= hi; ++it) {
    h.merge(it->second);
  }
  return h;
}

/// Rolling burn-rate state: remembers the last kSlowPoints verdicts.
class BurnWindow {
 public:
  void push(bool violated) {
    recent_.push_back(violated);
    if (recent_.size() > static_cast<std::size_t>(kSlowPoints)) {
      recent_.pop_front();
    }
  }
  double burn(int span, double budget) const {
    const int n = std::min<int>(span, static_cast<int>(recent_.size()));
    if (n == 0 || budget <= 0.0) return 0.0;
    int bad = 0;
    for (int i = 0; i < n; ++i) {
      if (recent_[recent_.size() - 1 - static_cast<std::size_t>(i)]) ++bad;
    }
    return static_cast<double>(bad) / (budget * n);
  }

 private:
  std::deque<bool> recent_;
};

void evaluate_windowed(const SloSpec& spec, const SloInputs& in,
                       SloOutcome* out) {
  const TimeSeries& series = *in.series;
  // Base windows per span, rounded up without overflowing near the
  // largest span.
  const long long w = series.window;
  const long long k =
      spec.span > 0 ? spec.span / w + (spec.span % w != 0 ? 1 : 0) : 1;
  const double threshold =
      spec.threshold_in_windows
          ? spec.threshold * static_cast<double>(in.reference_window)
          : spec.threshold;

  // The tracks this metric reads; evaluation covers their union range.
  const SeriesTrack* primary = nullptr;
  const SeriesTrack* denom = nullptr;
  switch (spec.metric) {
    case SloMetric::kLatencyP50:
    case SloMetric::kLatencyP95:
    case SloMetric::kLatencyP99:
      primary = find_track(series,
                           scoped_track(tracks::kFrameLatency, spec.scope));
      break;
    case SloMetric::kQueueP99:
      primary = find_track(series, tracks::kQueueDepth);
      break;
    case SloMetric::kMissRate:
      primary =
          find_track(series, scoped_track(tracks::kDisplayMisses, spec.scope));
      denom = find_track(series,
                         scoped_track(tracks::kFramesCompleted, spec.scope));
      break;
    case SloMetric::kConcealRate:
      primary = find_track(series,
                           scoped_track(tracks::kFramesConcealed, spec.scope));
      denom = find_track(series,
                         scoped_track(tracks::kFramesCompleted, spec.scope));
      break;
    case SloMetric::kRecoveryLatency:
      return;  // not windowed; handled by the caller
  }

  long long lo = -1, hi = -1;
  auto widen = [&](const SeriesTrack* t) {
    if (t == nullptr || t->empty()) return;
    const long long first = t->begin()->first;
    const long long last = t->rbegin()->first;
    lo = lo < 0 ? first : std::min(lo, first);
    hi = hi < 0 ? last : std::max(hi, last);
  };
  widen(denom);
  // Rates evaluate wherever the denominator has data (a window with
  // completions and no misses is a healthy point, not a gap) —
  // percentile metrics only where the primary track recorded.
  if (!is_rate(spec.metric)) widen(primary);
  if (lo < 0) return;  // zero points: no data

  BurnWindow burn;
  bool alerting = false;
  for (long long i = lo; i <= hi; ++i) {
    const long long span_lo = i - k + 1;
    double value = 0.0;
    if (is_rate(spec.metric)) {
      const Histogram d =
          denom != nullptr ? merge_span(*denom, span_lo, i) : Histogram{};
      const Histogram n =
          primary != nullptr ? merge_span(*primary, span_lo, i)
                             : Histogram{};
      long long den = d.count();
      if (spec.metric == SloMetric::kConcealRate) den += n.count();
      if (den == 0) continue;  // nothing delivered: no evaluation point
      value = static_cast<double>(n.count()) / static_cast<double>(den);
    } else {
      if (primary == nullptr) continue;
      const Histogram h = merge_span(*primary, span_lo, i);
      if (h.count() == 0) continue;
      double p = 0.99;
      if (spec.metric == SloMetric::kLatencyP50) p = 0.50;
      if (spec.metric == SloMetric::kLatencyP95) p = 0.95;
      value = static_cast<double>(h.percentile(p));
    }

    const bool violated =
        spec.inclusive ? value > threshold : value >= threshold;
    ++out->points;
    if (violated) ++out->violations;
    if (out->worst_window < 0 || value > out->worst_value) {
      out->worst_window = i;
      out->worst_value = value;
    }
    burn.push(violated);
    const double fast = burn.burn(kFastPoints, spec.budget);
    const double slow = burn.burn(kSlowPoints, spec.budget);
    const bool paging = fast >= 1.0 && slow >= 1.0;
    if (paging && !alerting) {
      out->alerts.push_back({i, fast, slow});
    }
    alerting = paging;
  }
}

void evaluate_recovery(const SloSpec& spec, const SloInputs& in,
                       SloOutcome* out) {
  const double threshold =
      spec.threshold_in_windows
          ? spec.threshold * static_cast<double>(in.reference_window)
          : spec.threshold;
  for (std::size_t i = 0; i < in.recovery_latencies.size(); ++i) {
    const rt::Cycles latency = in.recovery_latencies[i];
    ++out->points;
    const double value = static_cast<double>(latency);
    // A recovery that never completed busts any budget.
    const bool violated =
        latency < 0 ||
        (spec.inclusive ? value > threshold : value >= threshold);
    if (violated) ++out->violations;
    const double worst =
        latency < 0 ? threshold + 1.0 : value;  // rank unrecovered worst
    if (out->worst_window < 0 || worst > out->worst_value) {
      out->worst_window = static_cast<long long>(i);
      out->worst_value = worst;
    }
  }
}

}  // namespace

const char* slo_metric_name(SloMetric m) { return name_of(kMetricNames, m); }

const char* slo_scope_name(SloScope s) { return name_of(kScopeNames, s); }

const char* slo_verdict_name(SloVerdict v) {
  return name_of(kVerdictNames, v);
}

bool parse_slo(const std::string& text, SloSpec* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  *out = SloSpec{};
  out->text = text;

  const std::size_t op = text.find('<');
  if (op == std::string::npos) return fail("missing '<' or '<='");
  if (op == 0) return fail("missing metric name");
  if (!parse_name(kMetricNames, text.substr(0, op), &out->metric)) {
    return fail("unknown metric '" + text.substr(0, op) + "'");
  }
  std::size_t pos = op + 1;
  if (pos < text.size() && text[pos] == '=') {
    out->inclusive = true;
    ++pos;
  }

  // THRESH runs to the first suffix introducer; then @SPAN / :SCOPE /
  // %BUDGET segments in any order.
  const std::size_t suffix = text.find_first_of("@:%", pos);
  const std::string thresh =
      text.substr(pos, suffix == std::string::npos ? std::string::npos
                                                   : suffix - pos);
  if (!parse_threshold(thresh, &out->threshold,
                       &out->threshold_in_windows)) {
    return fail("bad threshold '" + thresh + "'");
  }
  pos = suffix;
  while (pos != std::string::npos && pos < text.size()) {
    const char kind = text[pos];
    const std::size_t next = text.find_first_of("@:%", pos + 1);
    const std::string seg =
        text.substr(pos + 1, next == std::string::npos ? std::string::npos
                                                       : next - pos - 1);
    if (kind == '@') {
      if (!parse_span(seg, &out->span)) {
        return fail("bad span '" + seg + "' (want e.g. 50ms, 4Mc, 400000c)");
      }
    } else if (kind == ':') {
      if (!parse_name(kScopeNames, seg, &out->scope)) {
        return fail("unknown scope '" + seg + "'");
      }
    } else {  // '%'
      char* end = nullptr;
      out->budget = std::strtod(seg.c_str(), &end);
      if (end != seg.c_str() + seg.size() ||
          !(out->budget > 0.0 && out->budget <= 1.0)) {
        return fail("bad budget '" + seg + "' (want a fraction in (0, 1])");
      }
    }
    pos = next;
  }

  // Per-metric sanity.
  if (is_rate(out->metric)) {
    if (out->threshold_in_windows) {
      return fail("rate thresholds are fractions, not window multiples");
    }
    if (out->threshold > 1.0) return fail("rate threshold exceeds 1");
  }
  if (out->metric == SloMetric::kQueueP99 && out->threshold_in_windows) {
    return fail("queue_p99 thresholds are depths, not window multiples");
  }
  if ((out->metric == SloMetric::kQueueP99 ||
       out->metric == SloMetric::kRecoveryLatency) &&
      out->scope != SloScope::kFleet) {
    return fail(std::string(slo_metric_name(out->metric)) +
                " supports only the fleet scope");
  }
  if (out->metric == SloMetric::kRecoveryLatency && out->span != 0) {
    return fail("recovery_latency has no rolling span");
  }
  if (is_latency(out->metric) && out->threshold <= 0.0) {
    return fail("latency threshold must be positive");
  }
  return true;
}

bool SloReport::all_met() const {
  for (const SloOutcome& o : objectives) {
    if (!o.met()) return false;
  }
  return true;
}

SloReport evaluate_slos(const std::vector<SloSpec>& specs,
                        const SloInputs& inputs) {
  SloReport report;
  report.objectives.reserve(specs.size());
  for (const SloSpec& spec : specs) {
    SloOutcome out;
    out.spec = spec;
    if (spec.metric == SloMetric::kRecoveryLatency) {
      evaluate_recovery(spec, inputs, &out);
    } else if (inputs.series != nullptr && inputs.series->window > 0) {
      evaluate_windowed(spec, inputs, &out);
    }
    out.budget_remaining =
        out.points > 0
            ? 1.0 - static_cast<double>(out.violations) /
                        (spec.budget * static_cast<double>(out.points))
            : 1.0;
    out.verdict = out.points == 0                ? SloVerdict::kNoData
                  : out.budget_remaining >= 0.0 ? SloVerdict::kMet
                                                : SloVerdict::kMissed;
    report.objectives.push_back(std::move(out));
  }
  return report;
}

void SloReport::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("objectives");
  w.begin_array();
  for (const SloOutcome& o : objectives) {
    w.begin_object();
    w.field("spec", o.spec.text);
    w.field("metric", slo_metric_name(o.spec.metric));
    w.field("scope", slo_scope_name(o.spec.scope));
    w.field("threshold", o.spec.threshold);
    w.field("threshold_in_windows", o.spec.threshold_in_windows);
    w.field("span", o.spec.span);
    w.field("budget", o.spec.budget);
    w.field("points", o.points);
    w.field("violations", o.violations);
    w.field("worst_window", o.worst_window);
    w.field("worst_value", o.worst_value);
    w.field("budget_remaining", o.budget_remaining);
    w.field("met", o.met());
    w.field("verdict", slo_verdict_name(o.verdict));
    w.key("alerts");
    w.begin_array();
    for (const SloAlert& a : o.alerts) {
      w.begin_object();
      w.field("window", a.window);
      w.field("fast_burn", a.fast_burn);
      w.field("slow_burn", a.slow_burn);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.field("all_met", all_met());
  w.end_object();
}

std::string slo_summary(const SloReport& report) {
  std::ostringstream os;
  for (const SloOutcome& o : report.objectives) {
    os << "slo " << o.spec.text << ": points=" << o.points
       << " violations=" << o.violations;
    if (o.worst_window >= 0) {
      os << " worst_window=" << o.worst_window
         << " worst_value=" << util::JsonWriter::number(o.worst_value);
    }
    os << " budget_remaining="
       << util::JsonWriter::number(o.budget_remaining)
       << " alerts=" << o.alerts.size() << ' ';
    for (const char* c = slo_verdict_name(o.verdict); *c != '\0'; ++c) {
      os << static_cast<char>(std::toupper(static_cast<unsigned char>(*c)));
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace qosctrl::obs
