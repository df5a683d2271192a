#include "noc/stats.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace rasoc::noc {
namespace {

TEST(LatencyStatsTest, EmptyStatsAreZero) {
  LatencyStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

TEST(LatencyStatsTest, SummaryStatistics) {
  LatencyStats stats;
  for (double v : {4.0, 8.0, 6.0, 2.0}) stats.record(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 8.0);
}

TEST(LatencyStatsTest, Percentiles) {
  LatencyStats stats;
  for (int i = 1; i <= 100; ++i) stats.record(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(stats.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 100.0);
  EXPECT_THROW(stats.percentile(1.5), std::invalid_argument);
}

TEST(LatencyStatsTest, EmptyStatsPercentileIsZero) {
  LatencyStats stats;
  EXPECT_DOUBLE_EQ(stats.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 0.0);
}

TEST(LatencyStatsTest, PercentileRejectsNanAndOutOfRangeQ) {
  // q is checked before anything else: an empty set rejects it too, and
  // NaN never reaches the rank computation.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LatencyStats empty;
  EXPECT_THROW(empty.percentile(1.5), std::invalid_argument);
  EXPECT_THROW(empty.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW(empty.percentile(nan), std::invalid_argument);
  LatencyStats stats;
  for (double v : {3.0, 1.0, 2.0}) stats.record(v);
  EXPECT_THROW(stats.percentile(nan), std::invalid_argument);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 2.0);
}

TEST(LatencyStatsTest, SingleSamplePercentileIsThatSample) {
  LatencyStats stats;
  stats.record(7.0);
  EXPECT_DOUBLE_EQ(stats.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 7.0);
}

TEST(LatencyStatsTest, PercentileTracksLateRecords) {
  LatencyStats stats;
  stats.record(1.0);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 1.0);
  stats.record(10.0);  // sorted cache must invalidate
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 10.0);
}

TEST(LatencyStatsTest, InterleavedRecordsAndQueriesStayConsistent) {
  // Exercises the incremental sorted-view maintenance: every query after a
  // burst of records must see the full sample set, including values that
  // sort below the existing minimum.
  LatencyStats stats;
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 5; ++i)
      stats.record(static_cast<double>((7 * burst + 3 * i) % 50));
    EXPECT_DOUBLE_EQ(stats.percentile(0.0), stats.min());
    EXPECT_DOUBLE_EQ(stats.percentile(1.0), stats.max());
  }
  EXPECT_EQ(stats.count(), 50u);
}

TEST(DeliveryLedgerTest, MatchesInjectionsToDeliveriesPerFlow) {
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 0};
  PacketRecord r;
  r.src = a;
  r.dst = b;
  r.createdCycle = 10;
  r.flits = 4;
  ledger.onQueued(r);
  ledger.onHeaderInjected(a, b, 12);
  const PacketRecord closed = ledger.onDelivered(a, b, 20);
  EXPECT_EQ(closed.createdCycle, 10u);
  EXPECT_EQ(closed.injectedCycle, 12u);
  EXPECT_EQ(ledger.delivered(), 1u);
  EXPECT_EQ(ledger.flitsDelivered(), 4u);
  EXPECT_EQ(ledger.inFlight(), 0u);
  ASSERT_EQ(ledger.packetLatency().count(), 1u);
  EXPECT_DOUBLE_EQ(ledger.packetLatency().mean(), 10.0);
  EXPECT_DOUBLE_EQ(ledger.networkLatency().mean(), 8.0);
}

TEST(DeliveryLedgerTest, FifoOrderWithinAFlow) {
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 1};
  for (int i = 0; i < 3; ++i) {
    PacketRecord r;
    r.src = a;
    r.dst = b;
    r.createdCycle = static_cast<std::uint64_t>(i);
    r.flits = 1;
    ledger.onQueued(r);
  }
  ledger.onHeaderInjected(a, b, 5);
  ledger.onHeaderInjected(a, b, 6);
  EXPECT_EQ(ledger.onDelivered(a, b, 9).createdCycle, 0u);
  EXPECT_EQ(ledger.onDelivered(a, b, 10).createdCycle, 1u);
}

TEST(DeliveryLedgerTest, WarmupExcludesEarlyPackets) {
  DeliveryLedger ledger;
  ledger.setWarmupCycles(100);
  const NodeId a{0, 0}, b{1, 0};
  PacketRecord early;
  early.src = a;
  early.dst = b;
  early.createdCycle = 50;
  early.flits = 2;
  ledger.onQueued(early);
  ledger.onHeaderInjected(a, b, 51);
  ledger.onDelivered(a, b, 60);
  EXPECT_EQ(ledger.packetLatency().count(), 0u);
  EXPECT_EQ(ledger.delivered(), 1u);

  PacketRecord late = early;
  late.createdCycle = 200;
  ledger.onQueued(late);
  ledger.onHeaderInjected(a, b, 201);
  ledger.onDelivered(a, b, 215);
  EXPECT_EQ(ledger.packetLatency().count(), 1u);
}

TEST(DeliveryLedgerTest, ErrorsOnProtocolViolations) {
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 0};
  EXPECT_THROW(ledger.onDelivered(a, b, 1), std::logic_error);
  EXPECT_THROW(ledger.onHeaderInjected(a, b, 1), std::logic_error);
  PacketRecord r;
  r.src = a;
  r.dst = b;
  r.flits = 1;
  ledger.onQueued(r);
  // Delivered before its header was ever injected.
  EXPECT_THROW(ledger.onDelivered(a, b, 2), std::logic_error);
}

TEST(DeliveryLedgerTest, ThroughputAccounting) {
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 0};
  for (int i = 0; i < 10; ++i) {
    PacketRecord r;
    r.src = a;
    r.dst = b;
    r.createdCycle = static_cast<std::uint64_t>(i);
    r.flits = 8;
    ledger.onQueued(r);
    ledger.onHeaderInjected(a, b, static_cast<std::uint64_t>(i));
    ledger.onDelivered(a, b, static_cast<std::uint64_t>(i + 20));
  }
  // 80 flits over 100 cycles across 2 nodes = 0.4 flits/cycle/node.
  EXPECT_DOUBLE_EQ(ledger.throughputFlitsPerCyclePerNode(100, 2), 0.4);
  EXPECT_EQ(ledger.throughputFlitsPerCyclePerNode(0, 2), 0.0);
}

}  // namespace
}  // namespace rasoc::noc
