// The farm event sink's fan-out contract: each event lands once in
// the metrics registry, in the fleet series track and its `@class` /
// `/shard<k>` variant, and in the trace ring — and with tracing and
// sampling off only the registry moves.  The display-miss path is
// pinned here because admission keeps every farm scenario miss-free.
#include "farm/event_sink.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace qosctrl::farm {
namespace {

long long series_sum(const obs::SeriesRecorder& rec, const std::string& name) {
  long long sum = 0;
  for (const auto& [w, h] : rec.tracks().at(name)) sum += h.sum();
  return sum;
}

std::vector<obs::TraceEvent> drained(const obs::TraceBuffer& buf) {
  std::vector<obs::TraceEvent> out;
  buf.drain_to(&out);
  return out;
}

TEST(EventSinkTest, DisplayMissFeedsAllThreeSinks) {
  obs::Registry metrics;
  obs::TraceBuffer trace(0, 16);
  obs::SeriesRecorder series(100);
  EventSink sink(&metrics, &trace, &series, 1);

  sink.display_miss(250, pipe::ControlMode::kConstantQuality, 7, 3, 40);

  EXPECT_EQ(metrics.counters().at("display_misses"), 1);
  EXPECT_EQ(series_sum(series, "display_misses"), 40);
  EXPECT_EQ(series_sum(series, "display_misses@constant"), 40);
  EXPECT_EQ(series_sum(series, "display_misses@controlled"), 0);
  EXPECT_EQ(series.tracks().at("display_misses").begin()->first, 2);
  const std::vector<obs::TraceEvent> events = drained(trace);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind,
            static_cast<std::uint16_t>(obs::EventKind::kDeadlineMiss));
  EXPECT_EQ(events[0].time, 250);
  EXPECT_EQ(events[0].stream, 7);
  EXPECT_EQ(events[0].frame, 3);
  EXPECT_EQ(events[0].arg, 40);
}

TEST(EventSinkTest, LostCompletionAlsoCountsAsConcealed) {
  obs::Registry metrics;
  obs::SeriesRecorder series(100);
  EventSink sink(&metrics, nullptr, &series, 1);

  sink.complete(10, pipe::ControlMode::kControlled, 1, 0, 500, 300,
                obs::CompleteOutcome::kDelivered);
  sink.complete(20, pipe::ControlMode::kControlled, 1, 1, 700, 400,
                obs::CompleteOutcome::kLost);

  EXPECT_EQ(metrics.counters().at("frames_completed"), 2);
  EXPECT_EQ(metrics.counters().at("frames_concealed"), 1);
  EXPECT_EQ(metrics.histograms().at("frame_latency_cycles").sum(), 1200);
  EXPECT_EQ(metrics.histograms().at("encode_cycles").sum(), 700);
  EXPECT_EQ(series_sum(series, "frames_completed@controlled"), 2);
  EXPECT_EQ(series_sum(series, "frames_concealed@controlled"), 1);
  EXPECT_EQ(series_sum(series, "frame_latency_cycles@controlled"), 1200);
}

TEST(EventSinkTest, OffSinksTouchOnlyTheRegistry) {
  obs::Registry metrics;
  EventSink sink(&metrics, nullptr, nullptr, 4);

  sink.conceal(5, pipe::ControlMode::kFeedback, 2, 9,
               obs::ConcealReason::kArrivalOutage);
  sink.busy(5, 1000);
  sink.admit(5, 2, Placement{}, 3);
  sink.slo_alert(5, 0, 0);

  EXPECT_EQ(metrics.counters().at("frames_concealed"), 1);
  EXPECT_EQ(metrics.counters().at("admission_accepted"), 1);
}

TEST(EventSinkTest, ControlEventsCountAndFeedShardTracks) {
  obs::Registry metrics;
  obs::TraceBuffer trace(2, 16);
  obs::SeriesRecorder series(100);
  EventSink sink(&metrics, &trace, &series, 2);

  Placement migrated;
  migrated.admitted = true;
  migrated.processor = 1;
  migrated.migrated = true;
  sink.admit(0, 4, migrated, 1);
  sink.renegotiate(10, 4, 900, /*grow=*/false, /*first=*/true);
  sink.renegotiate(20, 4, 800, /*grow=*/false, /*first=*/false);
  sink.rebalance(30, 4, 0, 0);

  EXPECT_EQ(metrics.counters().at("admission_accepted"), 1);
  EXPECT_EQ(metrics.counters().at("admission_migrations"), 1);
  EXPECT_EQ(metrics.counters().at("admission_renegotiations"), 1);
  EXPECT_EQ(metrics.counters().at("rebalance_migrations"), 1);
  EXPECT_EQ(series_sum(series, "admitted/shard1"), 1);
  EXPECT_EQ(series_sum(series, "admitted/shard0"), 0);
  EXPECT_EQ(series_sum(series, "rebalance/shard0"), 1);
  std::vector<obs::EventKind> kinds;
  for (const obs::TraceEvent& e : drained(trace)) {
    kinds.push_back(static_cast<obs::EventKind>(e.kind));
  }
  EXPECT_EQ(kinds, (std::vector<obs::EventKind>{
                       obs::EventKind::kAdmit, obs::EventKind::kMigrate,
                       obs::EventKind::kRenegotiate,
                       obs::EventKind::kRenegotiate,
                       obs::EventKind::kRebalance}));
}

}  // namespace
}  // namespace qosctrl::farm
