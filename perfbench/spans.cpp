#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

std::int64_t SpanRecorder::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() : origin_ns_(now_ns()) {}

int SpanRecorder::begin(const char* name, std::int64_t units) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.units = units;
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  spans_[static_cast<std::size_t>(id)].start_ns = now_ns();
  return id;
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close innermost first; a mismatch is a benchmark bug.
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "perfbench: span %d closed out of order\n", id);
    std::abort();
  }
  open_.pop_back();
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    const std::int64_t d = s.end_ns - s.start_ns;
    if (s.shadow_of >= 0) {
      self[static_cast<std::size_t>(s.shadow_of)] -= d;
    } else if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= d;
    }
  }
  return self;
}

std::string SpanRecorder::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"replay\"}},"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"shadow children\"}}";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  ",{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"shadow_of\":%d,\"units\":%lld}}",
                  s.shadow_of >= 0 ? 2 : 1, s.name,
                  static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.shadow_of, static_cast<long long>(s.units));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

std::map<std::string, LayerStats> aggregate(const SpanRecorder& rec) {
  std::map<std::string, LayerStats> by_name;
  const std::vector<std::int64_t> self = rec.self_ns();
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    LayerStats& st = by_name[s.name];
    ++st.calls;
    st.total_ns += s.end_ns - s.start_ns;
    st.self_ns += self[i];
    st.self_per_unit_ns.push_back(static_cast<double>(self[i]) /
                                  static_cast<double>(std::max<std::int64_t>(
                                      1, s.units)));
  }
  return by_name;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

}  // namespace perfbench
