#include "obs/trace.h"

#include <algorithm>
#include <utility>

#include "encoder/body.h"
#include "util/check.h"
#include "util/json.h"

namespace qosctrl::obs {

TraceBuffer::TraceBuffer(std::uint16_t cpu, std::size_t capacity)
    : capacity_(capacity), cpu_(cpu) {
  QC_EXPECT(capacity > 0, "trace buffer capacity must be positive");
  ring_.reserve(capacity);
}

void TraceBuffer::push(EventKind kind, rt::Cycles time, std::int32_t stream,
                       std::int32_t frame, std::int64_t arg,
                       std::uint32_t aux) {
  TraceEvent ev;
  ev.time = time;
  ev.arg = arg;
  ev.stream = stream;
  ev.frame = frame;
  ev.kind = static_cast<std::uint16_t>(kind);
  ev.cpu = cpu_;
  ev.aux = aux;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[pushed_ % capacity_] = ev;  // overwrite the oldest
  }
  ++pushed_;
}

long long TraceBuffer::dropped() const {
  return static_cast<long long>(pushed_) -
         static_cast<long long>(ring_.size());
}

void TraceBuffer::drain_to(std::vector<TraceEvent>* out) const {
  if (ring_.size() < capacity_) {
    out->insert(out->end(), ring_.begin(), ring_.end());
    return;
  }
  // Full ring: the oldest retained event sits at pushed_ % capacity_.
  const std::size_t head = pushed_ % capacity_;
  out->insert(out->end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
              ring_.end());
  out->insert(out->end(), ring_.begin(),
              ring_.begin() + static_cast<std::ptrdiff_t>(head));
}

TraceRecorder::TraceRecorder(int num_processors,
                             std::size_t capacity_per_buffer) {
  QC_EXPECT(num_processors >= 1, "trace recorder needs >= 1 processor");
  buffers_.reserve(static_cast<std::size_t>(num_processors) + 1);
  for (int p = 0; p <= num_processors; ++p) {
    buffers_.emplace_back(static_cast<std::uint16_t>(p),
                          capacity_per_buffer);
  }
}

long long TraceRecorder::dropped() const {
  long long total = 0;
  for (const TraceBuffer& b : buffers_) total += b.dropped();
  return total;
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  std::vector<TraceEvent> out;
  std::size_t total = 0;
  for (const TraceBuffer& b : buffers_) {
    total += static_cast<std::size_t>(b.pushed() - b.dropped());
  }
  out.reserve(total);
  // Buffer-major (cpu ascending, emission order within), then a stable
  // sort by time: ties keep (cpu, sequence) order, so the merge is a
  // pure function of the buffer contents.
  for (const TraceBuffer& b : buffers_) b.drain_to(&out);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  return out;
}

namespace {

/// Export names of the CompleteOutcome and ConcealReason values.
constexpr const char* kOutcomeNames[] = {"delivered", "lost", "aborted"};
constexpr const char* kConcealReasonNames[] = {
    "queued_outage", "suspended_outage", "arrival_outage", "quarantine_drop"};

template <std::size_t N>
const char* name_of(const char* const (&names)[N], std::uint32_t aux) {
  return aux < N ? names[aux] : "?";
}

/// One Chrome trace event before it is written: phase, name, up to two
/// numeric args, then an optional text arg.  ph 0 = not exported.
struct ChromeEvent {
  char ph = 0;
  std::string name;
  std::pair<const char*, long long> nums[2] = {};
  const char* text_key = nullptr;
  const char* text = nullptr;
};

ChromeEvent describe(const TraceEvent& e) {
  // Frame events are named "s<stream>/f<frame>" so a stream's service
  // segments line up under one label per frame.
  const std::string frame =
      's' + std::to_string(e.stream) + "/f" + std::to_string(e.frame);
  const std::string stream = " s" + std::to_string(e.stream);
  const std::string cpu = "/cpu" + std::to_string(e.cpu);
  switch (static_cast<EventKind>(e.kind)) {
    case EventKind::kDispatch:
      return {'B', frame, {{"deadline", e.arg}}};
    case EventKind::kResume:
      return {'B', frame, {{"remaining", e.arg}}};
    case EventKind::kPreempt:
      return {'E', frame, {{"remaining", e.arg}}};
    case EventKind::kComplete:
      return {'E', frame, {{"cycles", e.arg}}, "outcome",
              name_of(kOutcomeNames, e.aux)};
    case EventKind::kConcealService:
      return {'E', frame, {{"cycles", e.arg}}, "outcome", "concealed"};
    case EventKind::kDeadlineMiss:
      return {'i', "deadline_miss " + frame, {{"lateness", e.arg}}};
    case EventKind::kEpochClose:
      return {'i', "epoch_close" + stream, {{"budget", e.arg}}};
    case EventKind::kEpochOpen:
      return {'i', "epoch_open" + stream, {{"budget", e.arg}}};
    case EventKind::kAdmit:
      return {'i', "admit" + stream, {{"budget", e.arg}, {"processor", e.aux}}};
    case EventKind::kReject:
      return {'i', "reject" + stream};
    case EventKind::kRenegotiate:
      return {'i', "renegotiate" + stream, {{"budget", e.arg}}};
    case EventKind::kRestore:
      return {'i', "restore" + stream, {{"budget", e.arg}}};
    case EventKind::kMigrate:
      return {'i', "migrate" + stream, {{"processor", e.aux}}};
    case EventKind::kFailover:
      return {'i', "failover" + stream,
              {{"processor", e.aux}, {"budget", e.arg}}};
    case EventKind::kFailoverDrop:
      return {'i', "failover_drop" + stream};
    case EventKind::kProcFail:
      return {'i', "processor_fail", {{"permanent", e.aux}}};
    case EventKind::kProcRepair:
      return {'i', "processor_repair"};
    case EventKind::kFaultInject:
      return {'i', "overrun " + frame, {{"demand", e.arg}}};
    case EventKind::kConceal:
      return {'i', "conceal " + frame, {}, "reason",
              name_of(kConcealReasonNames, e.aux)};
    case EventKind::kQuarantine:
      return {'i', "quarantine" + stream, {{"until", e.arg}}};
    case EventKind::kQueueDepth:
      return {'C', "queue_depth" + cpu, {{"frames", e.arg}}};
    case EventKind::kPhaseCycles:
      return {'C',
              std::string("phase_") +
                  enc::encode_phase_name(static_cast<enc::EncodePhase>(e.aux)) +
                  cpu,
              {{"cycles", e.arg}}};
    case EventKind::kJoinBatch:
      return {'i', "join_batch", {{"joins", e.arg}}};
    case EventKind::kRebalance:
      return {'i', "rebalance" + stream,
              {{"processor", e.arg}, {"shard", e.aux}}};
    case EventKind::kSloAlert:
      return {'i', "slo_alert", {{"window", e.arg}, {"objective", e.aux}}};
    case EventKind::kNone:
      break;
  }
  return {};
}

}  // namespace

std::string export_chrome_trace(const std::vector<TraceEvent>& events,
                                int num_processors) {
  util::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  // Timeline row names: one per virtual processor, one control plane.
  for (int t = 0; t <= num_processors; ++t) {
    w.newline();
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", 0);
    w.field("tid", t);
    w.key("args");
    w.begin_object();
    w.field("name", t < num_processors ? "cpu " + std::to_string(t)
                                       : std::string("control-plane"));
    w.end_object();
    w.end_object();
  }
  for (const TraceEvent& e : events) {
    const ChromeEvent c = describe(e);
    if (c.ph == 0) continue;
    w.newline();
    w.begin_object();
    w.field("name", c.name);
    w.field("ph", std::string_view(&c.ph, 1));
    w.field("ts", e.time);
    w.field("pid", 0);
    w.field("tid", e.cpu);
    if (c.ph == 'i') w.field("s", "t");
    if (c.nums[0].first != nullptr || c.text_key != nullptr) {
      w.key("args");
      w.begin_object();
      for (const auto& [key, v] : c.nums) {
        if (key != nullptr) w.field(key, v);
      }
      if (c.text_key != nullptr) w.field(c.text_key, c.text);
      w.end_object();
    }
    w.end_object();
  }
  w.newline();
  w.end_array();
  w.end_object();
  w.newline();
  return w.take();
}

}  // namespace qosctrl::obs
