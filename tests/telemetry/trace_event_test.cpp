// Unit tests for the trace primitives: the bounded ring sink, the event
// describe() renderer, the Perfetto trace_events JSON writer, and the
// in-process schema validator the CI smoke check relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/trace_event.hpp"

namespace rasoc::telemetry {
namespace {

TraceEvent makeEvent(std::uint64_t cycle, std::uint64_t packet,
                     TraceEventKind kind) {
  TraceEvent e;
  e.cycle = cycle;
  e.packet = packet;
  e.kind = kind;
  return e;
}

// --- TraceSink -------------------------------------------------------------

TEST(TraceSinkTest, RecordsInOrderBelowCapacity) {
  TraceSink sink(8);
  EXPECT_EQ(sink.capacity(), 8u);
  EXPECT_EQ(sink.size(), 0u);
  for (std::uint64_t i = 0; i < 5; ++i)
    sink.record(makeEvent(i, i + 1, TraceEventKind::LinkTransfer));
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.recorded(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
  for (std::size_t i = 0; i < sink.size(); ++i) {
    EXPECT_EQ(sink.at(i).cycle, i);
    EXPECT_EQ(sink.at(i).packet, i + 1);
  }
}

TEST(TraceSinkTest, OverwritesOldestWhenFull) {
  TraceSink sink(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    sink.record(makeEvent(i, i, TraceEventKind::FifoEnqueue));
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  // Retained window is the newest four, oldest first.
  const std::vector<TraceEvent> events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].cycle, 6 + i);
}

TEST(TraceSinkTest, CapacityClampedToOne) {
  TraceSink sink(0);
  EXPECT_EQ(sink.capacity(), 1u);
  sink.record(makeEvent(1, 1, TraceEventKind::PacketQueued));
  sink.record(makeEvent(2, 2, TraceEventKind::PacketEjected));
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.at(0).cycle, 2u);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceSinkTest, ClearForgetsEverything) {
  TraceSink sink(4);
  for (std::uint64_t i = 0; i < 6; ++i)
    sink.record(makeEvent(i, i, TraceEventKind::ArbGrant));
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  sink.record(makeEvent(42, 7, TraceEventKind::ArbGrant));
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.at(0).cycle, 42u);
}

// --- describe --------------------------------------------------------------

TEST(TraceEventTest, DescribeRendersLocationFlowAndValue) {
  TraceEvent e;
  e.cycle = 123;
  e.packet = 7;
  e.node = 5;
  e.port = 2;  // East in router/params.hpp Port order
  e.src = 0;
  e.dst = 12;
  e.value = 2;
  e.kind = TraceEventKind::FifoDequeue;
  const std::string line = describe(e);
  EXPECT_NE(line.find("c123"), std::string::npos) << line;
  EXPECT_NE(line.find("fifo_dequeue"), std::string::npos) << line;
  EXPECT_NE(line.find("r5.E"), std::string::npos) << line;
  EXPECT_NE(line.find("pkt7"), std::string::npos) << line;
  EXPECT_NE(line.find("0->12"), std::string::npos) << line;
}

TEST(TraceEventTest, PortLettersFollowParamsOrder) {
  // Port enum order is Local, North, East, South, West.
  const char* expected[] = {"L", "N", "E", "S", "W"};
  for (int p = 0; p < 5; ++p) {
    TraceEvent e;
    e.node = 1;
    e.port = static_cast<std::int8_t>(p);
    e.kind = TraceEventKind::LinkTransfer;
    EXPECT_NE(describe(e).find(std::string("r1.") + expected[p]),
              std::string::npos)
        << describe(e);
  }
}

TEST(TraceEventTest, KindNamesAreDistinct) {
  std::vector<std::string> names;
  for (int k = 0; k <= static_cast<int>(TraceEventKind::PacketEjected); ++k)
    names.emplace_back(name(static_cast<TraceEventKind>(k)));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
  }
}

// --- PerfettoWriter --------------------------------------------------------

TEST(PerfettoWriterTest, EmitsValidJsonWithAllPhases) {
  PerfettoWriter writer;
  writer.processName(100, "r0 (0,0)");
  writer.threadName(100, 1, "in.N");
  writer.complete(100, 1, 10, 3, "pkt1",
                  {{"kind", "packet"}, {"hops", "2"}});
  writer.instant(100, 1, 15, "eject");
  EXPECT_EQ(writer.events(), 4u);
  const std::string json = writer.toJson();
  std::string error;
  EXPECT_TRUE(validatePerfettoJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
}

TEST(PerfettoWriterTest, OutputIsDeterministic) {
  auto build = [] {
    PerfettoWriter writer;
    writer.processName(1, "flow 0->3");
    writer.complete(1, 4, 7, 9, "pkt2", {{"blocked", "1"}});
    writer.instant(1, 4, 16, "eject");
    return writer.toJson();
  };
  EXPECT_EQ(build(), build());
}

TEST(PerfettoWriterTest, EscapesStringsInNamesAndArgs) {
  PerfettoWriter writer;
  writer.complete(1, 1, 0, 1, "quote\"back\\slash",
                  {{"k", "line\nbreak\ttab"}});
  const std::string json = writer.toJson();
  std::string error;
  EXPECT_TRUE(validatePerfettoJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos) << json;
  EXPECT_NE(json.find("line\\nbreak\\ttab"), std::string::npos) << json;
}

TEST(PerfettoWriterTest, EmptyWriterStillValidates) {
  PerfettoWriter writer;
  std::string error;
  EXPECT_TRUE(validatePerfettoJson(writer.toJson(), &error)) << error;
}

// --- validatePerfettoJson --------------------------------------------------

TEST(PerfettoValidatorTest, AcceptsMinimalTrace) {
  EXPECT_TRUE(validatePerfettoJson(
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"ph":"X","pid":1,"tid":2,"ts":0,"dur":3,"name":"a"}]})"));
}

TEST(PerfettoValidatorTest, RejectsMalformedInput) {
  std::string error;
  // Truncated JSON.
  EXPECT_FALSE(validatePerfettoJson(R"({"traceEvents":[)", &error));
  EXPECT_FALSE(error.empty());
  // Root is not an object.
  EXPECT_FALSE(validatePerfettoJson(R"([1,2,3])"));
  // Missing traceEvents.
  EXPECT_FALSE(validatePerfettoJson(R"({"foo":[]})"));
  // traceEvents not an array.
  EXPECT_FALSE(validatePerfettoJson(R"({"traceEvents":{}})"));
  // Unknown phase.
  EXPECT_FALSE(validatePerfettoJson(
      R"({"traceEvents":[{"ph":"Z","pid":1,"ts":0,"name":"a"}]})"));
  // X span without dur.
  EXPECT_FALSE(validatePerfettoJson(
      R"({"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":0,"name":"a"}]})"));
  // Missing name.
  EXPECT_FALSE(validatePerfettoJson(
      R"({"traceEvents":[{"ph":"i","pid":1,"tid":1,"ts":0}]})"));
  // Trailing garbage after the root object.
  EXPECT_FALSE(validatePerfettoJson(R"({"traceEvents":[]} trailing)"));
}

}  // namespace
}  // namespace rasoc::telemetry
