// Integration tests: full meshes of RASoC routers with NIs and traffic.
#include "noc/network.hpp"

#include <gtest/gtest.h>

namespace rasoc::noc {
namespace {

using router::FifoImpl;

NetworkConfig config(FifoImpl impl = FifoImpl::Eab, int p = 4) {
  NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = p;
  cfg.params.fifoImpl = impl;
  return cfg;
}

TEST(MeshTest, SinglePacketCrossesTheMesh) {
  Network mesh(std::make_shared<MeshTopology>(3, 3), config());
  mesh.ni(NodeId{0, 0}).send(NodeId{2, 2}, {0xaaa, 0xbbb});
  ASSERT_TRUE(mesh.drain(500));
  EXPECT_TRUE(mesh.healthy());
  const auto& rx = mesh.ni(NodeId{2, 2}).received();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0], (std::vector<std::uint32_t>{0xaaa, 0xbbb}));
  EXPECT_EQ(mesh.ledger().delivered(), 1u);
}

TEST(MeshTest, AllPairsDeliverOnThreeByThree) {
  const MeshShape shape{3, 3};
  Network mesh(std::make_shared<MeshTopology>(shape), config());
  int sent = 0;
  for (int s = 0; s < shape.nodes(); ++s) {
    for (int d = 0; d < shape.nodes(); ++d) {
      if (s == d) continue;
      mesh.ni(shape.nodeAt(s))
          .send(shape.nodeAt(d), {static_cast<std::uint32_t>(s * 16 + d)});
      ++sent;
    }
  }
  ASSERT_TRUE(mesh.drain(5000));
  EXPECT_TRUE(mesh.healthy());
  EXPECT_EQ(mesh.ledger().delivered(), static_cast<std::uint64_t>(sent));
  // Every node received exactly nodes-1 packets with its own id marker.
  for (int d = 0; d < shape.nodes(); ++d) {
    const auto& rx = mesh.ni(shape.nodeAt(d)).received();
    EXPECT_EQ(rx.size(), static_cast<std::size_t>(shape.nodes() - 1));
    for (const auto& payload : rx) {
      ASSERT_EQ(payload.size(), 1u);
      EXPECT_EQ(payload[0] & 0xfu, static_cast<std::uint32_t>(d));
    }
  }
}

TEST(MeshTest, PayloadIntegrityUnderConcurrentTraffic) {
  const MeshShape shape{4, 4};
  Network mesh(std::make_shared<MeshTopology>(shape), config());
  // Every node sends a distinctive pattern to its bit-complement partner.
  for (int s = 0; s < shape.nodes(); ++s) {
    const NodeId src = shape.nodeAt(s);
    const NodeId dst{shape.width - 1 - src.x, shape.height - 1 - src.y};
    std::vector<std::uint32_t> payload;
    for (int i = 0; i < 6; ++i)
      payload.push_back(static_cast<std::uint32_t>((s << 8) | i));
    mesh.ni(src).send(dst, payload);
  }
  ASSERT_TRUE(mesh.drain(5000));
  EXPECT_TRUE(mesh.healthy());
  for (int d = 0; d < shape.nodes(); ++d) {
    const NodeId dst = shape.nodeAt(d);
    const NodeId src{shape.width - 1 - dst.x, shape.height - 1 - dst.y};
    const auto& rx = mesh.ni(dst).received();
    ASSERT_EQ(rx.size(), 1u);
    ASSERT_EQ(rx[0].size(), 6u);
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(rx[0][static_cast<std::size_t>(i)],
                static_cast<std::uint32_t>((shape.indexOf(src) << 8) | i));
    }
  }
}

TEST(MeshTest, FlowsAreDeliveredInOrder) {
  Network mesh(std::make_shared<MeshTopology>(3, 2), config());
  const NodeId src{0, 0}, dst{2, 1};
  for (std::uint32_t i = 0; i < 20; ++i) mesh.ni(src).send(dst, {100 + i});
  ASSERT_TRUE(mesh.drain(5000));
  const auto& rx = mesh.ni(dst).received();
  ASSERT_EQ(rx.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(rx[i][0], 100 + i);
}

TEST(MeshTest, UniformTrafficIsDeliveredHealthily) {
  Network mesh(std::make_shared<MeshTopology>(4, 4), config());
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::UniformRandom;
  traffic.offeredLoad = 0.1;
  traffic.payloadFlits = 4;
  traffic.seed = 77;
  mesh.attachTraffic(traffic);
  mesh.run(3000);
  EXPECT_TRUE(mesh.healthy());
  EXPECT_GT(mesh.ledger().delivered(), 100u);
  ASSERT_TRUE(mesh.drain(20000));
  EXPECT_EQ(mesh.ledger().delivered(), mesh.ledger().queued());
}

TEST(MeshTest, SaturationMakesProgressWithoutDeadlock) {
  // XY routing on a mesh is deadlock-free; under saturating load the
  // network must keep delivering packets (progress property).
  Network mesh(std::make_shared<MeshTopology>(4, 4),
               config(FifoImpl::Eab, 2));
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::UniformRandom;
  traffic.offeredLoad = 1.0;
  traffic.payloadFlits = 4;
  traffic.seed = 5;
  mesh.attachTraffic(traffic);
  mesh.run(1500);
  const std::uint64_t mid = mesh.ledger().delivered();
  mesh.run(1500);
  const std::uint64_t end = mesh.ledger().delivered();
  EXPECT_TRUE(mesh.healthy());
  EXPECT_GT(mid, 50u);
  EXPECT_GT(end, mid + 50u);  // still flowing in the second half
}

TEST(MeshTest, FfAndEabMeshesBehaveIdentically) {
  // The FIFO microarchitecture must be behaviourally invisible.
  auto runOne = [](FifoImpl impl) {
    Network mesh(std::make_shared<MeshTopology>(3, 3), config(impl));
    TrafficConfig traffic;
    traffic.offeredLoad = 0.15;
    traffic.payloadFlits = 3;
    traffic.seed = 11;
    mesh.attachTraffic(traffic);
    mesh.run(1200);
    return std::pair{mesh.ledger().delivered(),
                     mesh.ledger().packetLatency().mean()};
  };
  const auto ff = runOne(FifoImpl::FlipFlop);
  const auto eab = runOne(FifoImpl::Eab);
  EXPECT_EQ(ff.first, eab.first);
  EXPECT_DOUBLE_EQ(ff.second, eab.second);
}

TEST(MeshTest, NetworkLatencyMatchesHopCountAtLowLoad) {
  Network mesh(std::make_shared<MeshTopology>(4, 4), config());
  const NodeId src{0, 0}, dst{3, 0};
  mesh.ni(src).send(dst, {1, 2});
  ASSERT_TRUE(mesh.drain(500));
  // 4 routers x ~3 cycles each + 4 flits serialization; just bound sanity.
  const double latency = mesh.ledger().networkLatency().mean();
  EXPECT_GT(latency, 8.0);
  EXPECT_LT(latency, 40.0);
}

TEST(MeshTest, CreditModeMeshDeliversTraffic) {
  NetworkConfig cfg = config();
  cfg.params.flowControl = router::FlowControl::CreditBased;
  Network mesh(std::make_shared<MeshTopology>(3, 3), cfg);
  TrafficConfig traffic;
  traffic.offeredLoad = 0.1;
  traffic.payloadFlits = 3;
  traffic.seed = 23;
  mesh.attachTraffic(traffic);
  mesh.run(1500);
  EXPECT_TRUE(mesh.healthy());
  EXPECT_GT(mesh.ledger().delivered(), 50u);
}

TEST(MeshTest, OneByTwoMinimalMesh) {
  Network mesh(std::make_shared<MeshTopology>(2, 1), config());
  mesh.ni(NodeId{0, 0}).send(NodeId{1, 0}, {7});
  mesh.ni(NodeId{1, 0}).send(NodeId{0, 0}, {8});
  ASSERT_TRUE(mesh.drain(200));
  EXPECT_EQ(mesh.ni(NodeId{1, 0}).received()[0][0], 7u);
  EXPECT_EQ(mesh.ni(NodeId{0, 0}).received()[0][0], 8u);
}

TEST(MeshTest, RejectsMeshWiderThanRibRange) {
  // max offset 8 > 7 at m=8
  EXPECT_THROW(Network(std::make_shared<MeshTopology>(9, 1), config()),
               std::invalid_argument);
}

TEST(MeshTest, LinkUtilizationIsTrackedAndBounded) {
  Network mesh(std::make_shared<MeshTopology>(3, 3), config());
  TrafficConfig traffic;
  traffic.offeredLoad = 0.3;
  traffic.seed = 31;
  mesh.attachTraffic(traffic);
  mesh.run(2000);
  EXPECT_GT(mesh.meanLinkUtilization(), 0.0);
  EXPECT_LE(mesh.maxLinkUtilization(), 1.0);
  EXPECT_EQ(mesh.linkCount(), 2u * (2 * 3 + 3 * 2));
}

TEST(MeshTest, LinkUtilizationIsZeroBeforeAnyCycleRuns) {
  // Regression: utilization queries on a freshly built mesh (cycle 0) must
  // return 0.0 instead of dividing by zero cycles.
  Network mesh(std::make_shared<MeshTopology>(3, 3), config());
  EXPECT_EQ(mesh.simulator().cycle(), 0u);
  EXPECT_DOUBLE_EQ(mesh.meanLinkUtilization(), 0.0);
  EXPECT_DOUBLE_EQ(mesh.maxLinkUtilization(), 0.0);
  EXPECT_DOUBLE_EQ(mesh.linkUtilization(NodeId{0, 0}, router::Port::East),
                   0.0);
  // After one cycle the denominators are live again.
  mesh.run(1);
  EXPECT_LE(mesh.maxLinkUtilization(), 1.0);
}

TEST(MeshTest, SelfSendThrows) {
  Network mesh(std::make_shared<MeshTopology>(2, 2), config());
  EXPECT_THROW(mesh.ni(NodeId{0, 0}).send(NodeId{0, 0}, {1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rasoc::noc
