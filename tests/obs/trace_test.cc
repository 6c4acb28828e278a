#include "nmine/obs/trace.h"

#include <gtest/gtest.h>

#include "../test_json.h"

namespace nmine {
namespace obs {
namespace {

/// Every test leaves the global tracer stopped.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::Global().Stop(); }
  void TearDown() override { Tracer::Global().Stop(); }
};

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  {
    TraceSpan span("never", "test");
    EXPECT_FALSE(span.armed());
    span.Arg("k", "v");
  }
  // Start() clears the buffer, so check before starting: the span above
  // must not have appended to whatever was there.
  size_t before = Tracer::Global().NumEvents();
  {
    TraceSpan span("still nothing", "test");
  }
  EXPECT_EQ(Tracer::Global().NumEvents(), before);
}

TEST_F(TracerTest, RecordsNestedSpans) {
  Tracer::Global().Start();
  {
    TraceSpan outer("phase3.border_collapse", "phase3");
    EXPECT_TRUE(outer.armed());
    {
      TraceSpan inner("phase3.scan", "phase3");
      inner.Arg("probed", 512).Arg("ratio", 0.25);
    }
    {
      TraceSpan inner2("phase3.scan", "phase3");
    }
  }
  Tracer::Global().Stop();

  std::vector<TraceEvent> events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 3u);
  // Spans are recorded at destruction: inner events first, outer last.
  const TraceEvent& inner = events[0];
  const TraceEvent& inner2 = events[1];
  const TraceEvent& outer = events[2];
  EXPECT_EQ(inner.name, "phase3.scan");
  EXPECT_EQ(outer.name, "phase3.border_collapse");

  // Nesting: both inner spans lie within the outer span, and the second
  // inner span starts at or after the first one ends.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_GE(inner2.ts_us, inner.ts_us + inner.dur_us);
  EXPECT_LE(inner2.ts_us + inner2.dur_us, outer.ts_us + outer.dur_us);

  ASSERT_EQ(inner.args.size(), 2u);
  EXPECT_EQ(inner.args[0].first, "probed");
  EXPECT_EQ(inner.args[0].second, "512");
  EXPECT_EQ(inner.args[1].second, "0.25");
}

TEST_F(TracerTest, SnapshotIsWellFormedTraceEventJson) {
  Tracer::Global().Start();
  {
    TraceSpan span("mine.border_collapse", "mining");
    span.Arg("note", "quotes \"inside\"");
    TraceSpan child("phase1.symbol_scan", "phase1");
  }
  Tracer::Global().Stop();

  auto parsed = testjson::ParseJson(Tracer::Global().SnapshotJson());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  const testjson::JsonValue* events = parsed->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  for (const testjson::JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.Get("name"), nullptr);
    ASSERT_NE(e.Get("cat"), nullptr);
    ASSERT_NE(e.Get("ph"), nullptr);
    EXPECT_EQ(e.Get("ph")->string_value, "X");  // complete event
    ASSERT_NE(e.Get("ts"), nullptr);
    EXPECT_TRUE(e.Get("ts")->is_number());
    ASSERT_NE(e.Get("dur"), nullptr);
    EXPECT_TRUE(e.Get("dur")->is_number());
    EXPECT_GE(e.Get("dur")->number_value, 0.0);
    ASSERT_NE(e.Get("pid"), nullptr);
    ASSERT_NE(e.Get("tid"), nullptr);
    ASSERT_NE(e.Get("args"), nullptr);
    EXPECT_TRUE(e.Get("args")->is_object());
  }
  // The string arg survived JSON escaping.
  EXPECT_EQ(events->array[1].Get("name")->string_value,
            "mine.border_collapse");
  EXPECT_EQ(events->array[1].Get("args")->Get("note")->string_value,
            "quotes \"inside\"");
}

TEST_F(TracerTest, EmptySnapshotStillParses) {
  Tracer::Global().Start();
  Tracer::Global().Stop();
  auto parsed = testjson::ParseJson(Tracer::Global().SnapshotJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->Get("traceEvents")->array.empty());
}

TEST_F(TracerTest, RestartClearsButRedundantStartKeepsBuffer) {
  Tracer::Global().Start();
  {
    TraceSpan span("old", "test");
  }
  EXPECT_EQ(Tracer::Global().NumEvents(), 1u);
  // Start() on a running tracer is a no-op: a component (re)starting
  // inside a live server must not discard other traces' buffered spans.
  Tracer::Global().Start();
  EXPECT_EQ(Tracer::Global().NumEvents(), 1u);
  // A full stop/start cycle does clear.
  Tracer::Global().Stop();
  Tracer::Global().Start();
  EXPECT_EQ(Tracer::Global().NumEvents(), 0u);
  Tracer::Global().Stop();
}

TEST_F(TracerTest, StartAnchorsWallClock) {
  // A fresh tracer: the global one keeps the anchor of any earlier test.
  Tracer tracer;
  EXPECT_EQ(tracer.WallEpochUs(), 0);
  tracer.Start();
  // Trace ts 0 is the process epoch, which is in the past: the anchor
  // must be a plausible recent wall-clock time (after 2020-01-01).
  EXPECT_GT(tracer.WallEpochUs(), 1577836800LL * 1000000LL);
  tracer.Stop();
}

TEST_F(TracerTest, RingCapacityBoundsBufferAndCountsDrops) {
  Tracer::Global().SetCapacity(4);
  Tracer::Global().Start();
  uint64_t dropped_before = Tracer::Global().dropped();
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.name = "e";
    e.name += std::to_string(i);
    e.category = "test";
    e.ts_us = i;
    Tracer::Global().AddComplete(std::move(e));
  }
  Tracer::Global().Stop();
  EXPECT_EQ(Tracer::Global().NumEvents(), 4u);
  EXPECT_EQ(Tracer::Global().dropped() - dropped_before, 6u);
  // The ring keeps the most recent events, in order.
  std::vector<TraceEvent> events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[3].name, "e9");
  Tracer::Global().SetCapacity(Tracer::kDefaultCapacity);
}

TEST_F(TracerTest, TraceJsonFiltersByTraceIdAndShiftsToWallClock) {
  Tracer::Global().Start();
  const int64_t wall_epoch = Tracer::Global().WallEpochUs();
  TraceEvent mine;
  mine.name = "job.run";
  mine.category = "serve";
  mine.ts_us = 100;
  mine.dur_us = 50;
  mine.trace_hi = 0xabc;
  mine.trace_lo = 0xdef;
  mine.span_id = 7;
  Tracer::Global().AddComplete(std::move(mine));
  TraceEvent other;
  other.name = "unrelated";
  other.category = "serve";
  other.trace_hi = 1;
  other.trace_lo = 2;
  Tracer::Global().AddComplete(std::move(other));
  Tracer::Global().Stop();

  std::string json = Tracer::Global().TraceJson(0xabc, 0xdef);
  // Single line (it is embedded as one line-JSON response member).
  EXPECT_EQ(json.find('\n'), std::string::npos);
  auto parsed = testjson::ParseJson(json);
  ASSERT_TRUE(parsed.has_value());
  const testjson::JsonValue* events = parsed->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  const testjson::JsonValue& e = events->array[0];
  EXPECT_EQ(e.Get("name")->string_value, "job.run");
  EXPECT_EQ(e.Get("ts")->number_value,
            static_cast<double>(wall_epoch + 100));
  EXPECT_EQ(e.Get("args")->Get("trace_id")->string_value,
            "0000000000000abc0000000000000def");

  // No matches -> still a valid document with an empty event array.
  auto empty = testjson::ParseJson(Tracer::Global().TraceJson(9, 9));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->Get("traceEvents")->array.empty());
}

}  // namespace
}  // namespace obs
}  // namespace nmine
