// Robustness and scale: progress watchdog, 8x8 meshes (the largest the
// 8-bit RIB addresses), histogram rendering.
#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "noc/observe.hpp"
#include "noc/watchdog.hpp"

namespace rasoc::noc {
namespace {

TEST(WatchdogTest, QuietNetworkNeverTrips) {
  Network mesh(std::make_shared<MeshTopology>(2, 2), NetworkConfig{});
  Watchdog dog("dog", mesh.ledger(), 50);
  mesh.simulator().add(dog);
  mesh.run(500);  // nothing in flight: idle is not a stall
  EXPECT_FALSE(dog.stallDetected());
}

TEST(WatchdogTest, DetectsAnArtificialStall) {
  // Queue a packet into the ledger that nobody will ever deliver.
  DeliveryLedger ledger;
  PacketRecord r;
  r.src = NodeId{0, 0};
  r.dst = NodeId{1, 0};
  r.flits = 2;
  ledger.onQueued(r);
  Watchdog dog("dog", ledger, 20);
  sim::Simulator sim;
  sim.add(dog);
  sim.reset();
  sim.run(100);
  EXPECT_TRUE(dog.stallDetected());
  EXPECT_GE(dog.longestStall(), 20u);
}

TEST(WatchdogTest, SnapshotCapturesStallForensics) {
  // One delivery at a known watchdog cycle, then a packet that never
  // completes: the snapshot must pin down when progress stopped and how
  // much was stuck.
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 0};
  PacketRecord r;
  r.src = a;
  r.dst = b;
  r.flits = 1;
  ledger.onQueued(r);
  ledger.onHeaderInjected(a, b, 0);
  Watchdog dog("dog", ledger, 20);
  sim::Simulator sim;
  sim.add(dog);
  sim.reset();
  sim.run(5);
  ledger.onDelivered(a, b, 5);  // observed on watchdog cycle 6
  ledger.onQueued(r);           // and this one is stuck forever
  sim.run(100);
  const WatchdogSnapshot& snapshot = dog.snapshot();
  EXPECT_TRUE(snapshot.stalled);
  EXPECT_EQ(snapshot.lastDeliveryCycle, 6u);
  EXPECT_EQ(snapshot.stallCycle, 26u);  // last delivery + timeout
  EXPECT_EQ(snapshot.inFlightAtStall, 1u);
  EXPECT_GE(snapshot.longestStall, 20u);
}

TEST(WatchdogTest, ForcedStallSnapshotReachesTheRunReport) {
  Network mesh(std::make_shared<MeshTopology>(2, 2), NetworkConfig{});
  Watchdog dog("dog", mesh.ledger(), 30);
  mesh.simulator().add(dog);
  mesh.ni(NodeId{0, 0}).send(NodeId{1, 1}, {0x1});
  ASSERT_TRUE(mesh.drain(500));
  // Force a stall: ledger sees a packet that no NI will ever deliver.
  PacketRecord phantom;
  phantom.src = NodeId{0, 0};
  phantom.dst = NodeId{1, 1};
  phantom.flits = 1;
  mesh.ledger().onQueued(phantom);
  mesh.run(200);
  ASSERT_TRUE(dog.stallDetected());
  const std::string json = buildRunReport("stall", mesh, &dog).toJson();
  EXPECT_NE(json.find("\"stalled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"in_flight_at_stall\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"stall_cycle\": "), std::string::npos);
  EXPECT_NE(json.find("\"last_delivery_cycle\": "), std::string::npos);
  EXPECT_NE(json.find("\"longest_stall\": "), std::string::npos);
}

TEST(WatchdogTest, DeliveriesKeepResettingTheTimer) {
  NetworkConfig cfg;
  cfg.params.n = 16;
  Network mesh(std::make_shared<MeshTopology>(3, 3), cfg);
  Watchdog dog("dog", mesh.ledger(), 200);
  mesh.simulator().add(dog);
  TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.seed = 21;
  mesh.attachTraffic(traffic);
  mesh.run(3000);
  EXPECT_FALSE(dog.stallDetected());
  EXPECT_LT(dog.longestStall(), 100u);
}

TEST(ScaleTest, EightByEightSaturatedMeshStaysDeadlockFree) {
  // 8x8 is the largest mesh an 8-bit RIB can address (offsets up to 7).
  NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 2;
  Network mesh(std::make_shared<MeshTopology>(8, 8), cfg);
  Watchdog dog("dog", mesh.ledger(), 500);
  mesh.simulator().add(dog);
  TrafficConfig traffic;
  traffic.offeredLoad = 1.0;  // saturating
  traffic.payloadFlits = 4;
  traffic.seed = 8;
  mesh.attachTraffic(traffic);
  mesh.run(1200);
  EXPECT_TRUE(mesh.healthy());
  EXPECT_FALSE(dog.stallDetected()) << "longest stall "
                                    << dog.longestStall();
  EXPECT_GT(mesh.ledger().delivered(), 200u);
}

TEST(ScaleTest, AsymmetricMeshesWork) {
  for (auto [w, h] : {std::pair{8, 1}, std::pair{1, 8}, std::pair{5, 2}}) {
    NetworkConfig cfg;
    cfg.params.n = 16;
    Network mesh(std::make_shared<MeshTopology>(w, h), cfg);
    mesh.ni(NodeId{0, 0}).send(NodeId{w - 1, h - 1}, {0xab});
    ASSERT_TRUE(mesh.drain(1000)) << w << "x" << h;
    EXPECT_TRUE(mesh.healthy());
    EXPECT_EQ(mesh.ni(NodeId{w - 1, h - 1}).received().size(), 1u);
  }
}

TEST(HistogramTest, RendersBinsAndBars) {
  LatencyStats stats;
  for (int i = 0; i < 90; ++i) stats.record(10.0);
  for (int i = 0; i < 10; ++i) stats.record(100.0);
  const std::string histogram = stats.histogram(9, 20);
  EXPECT_NE(histogram.find("####################"), std::string::npos);
  // The sparse bin still gets a labelled row.
  EXPECT_NE(histogram.find("10 "), std::string::npos);
}

TEST(HistogramTest, EmptyAndDegenerateInputs) {
  LatencyStats stats;
  EXPECT_NE(stats.histogram().find("(no samples)"), std::string::npos);
  stats.record(5.0);
  EXPECT_NO_THROW(stats.histogram());  // single value: zero range
  EXPECT_THROW(stats.histogram(0), std::invalid_argument);
}

}  // namespace
}  // namespace rasoc::noc
