// In-memory span recorder for the traced replay.  Spans are recorded
// by the benchmark around its calls into each layer's public entry
// points, kept in memory, and written once at the end as Chrome
// trace-event JSON (loadable in Perfetto).
//
// Two kinds of child:
//  * nested spans, opened while the parent is open;
//  * shadow spans: a layer the library calls internally (frame
//    synthesis inside StreamSession::encode, say) cannot be bracketed
//    from outside, so the benchmark calls the same public entry point
//    on the same input just before the parent and records it as a
//    shadow child.  Its duration is subtracted from the parent's self
//    time; it is not part of the parent's interval.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;    ///< enclosing span, -1 at top level
  int shadow_of = -1; ///< span whose self time this one is taken from
  std::int64_t units = 1;  ///< work units (frames, macroblocks) covered
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span nested in the innermost open one.
  int begin(const char* name, std::int64_t units = 1);
  void end(int id);
  /// Makes closed span `id` a shadow child of span `of`.
  void set_shadow_parent(int id, int of) {
    spans_[static_cast<std::size_t>(id)].shadow_of = of;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span: duration minus nested and shadow children.
  std::vector<std::int64_t> self_ns() const;
  /// Chrome trace-event JSON of every span (complete "X" events on one
  /// thread for nested spans and on a second for shadows).
  std::string chrome_json() const;

  static std::int64_t now_ns();

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t origin_ns_ = 0;
};

/// Scoped span.
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name, std::int64_t units = 1)
      : rec_(rec), id_(rec->begin(name, units)) {}
  ~Scope() { rec_->end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Per-name aggregate of the recorded spans.
struct LayerStats {
  long long calls = 0;
  std::int64_t total_ns = 0;  ///< sum of durations
  std::int64_t self_ns = 0;   ///< sum of self times
  std::vector<double> self_per_unit_ns;  ///< self time / units, per call
};

std::map<std::string, LayerStats> aggregate(const SpanRecorder& rec);

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);

}  // namespace perfbench
