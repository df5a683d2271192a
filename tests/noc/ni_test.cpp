// Unit tests for the network interface, driven against a single router so
// the send and receive paths are exercised end to end.
#include "noc/ni.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "router/rasoc.hpp"
#include "sim/simulator.hpp"

namespace rasoc::noc {
namespace {

// Two NIs on one router: one on Local, one impersonating the East
// neighbour (connected to the East port wires directly).
struct NiHarness {
  explicit NiHarness(router::RouterParams params = {}, NiOptions options = {})
      : router("r", params),
        local("niL", params, mesh, NodeId{0, 0}, router.in(router::Port::Local),
              router.out(router::Port::Local), ledger, options),
        east("niE", params, mesh, NodeId{1, 0}, router.in(router::Port::East),
             router.out(router::Port::East), ledger, options) {
    sim.add(router);
    sim.add(local);
    sim.add(east);
    sim.reset();
  }

  std::shared_ptr<const Topology> mesh = std::make_shared<MeshTopology>(2, 1);
  DeliveryLedger ledger;
  router::Rasoc router;
  NetworkInterface local;
  NetworkInterface east;
  sim::Simulator sim;
};

TEST(NiTest, SendsAndReceivesAPacket) {
  NiHarness h;
  h.local.send(NodeId{1, 0}, {0x11, 0x22});
  h.sim.run(50);
  ASSERT_EQ(h.east.packetsReceived(), 1u);
  ASSERT_EQ(h.east.received().size(), 1u);
  EXPECT_EQ(h.east.received()[0], (std::vector<std::uint32_t>{0x11, 0x22}));
  EXPECT_EQ(h.local.packetsSent(), 1u);
  EXPECT_EQ(h.ledger.delivered(), 1u);
}

TEST(NiTest, QueueDrainsInOrder) {
  NiHarness h;
  for (std::uint32_t i = 0; i < 5; ++i) h.local.send(NodeId{1, 0}, {i});
  EXPECT_EQ(h.local.sendQueuePackets(), 5u);
  EXPECT_EQ(h.local.sendQueueFlits(), 5u * 3u);
  h.sim.run(100);
  EXPECT_TRUE(h.local.idle());
  ASSERT_EQ(h.east.received().size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i)
    EXPECT_EQ(h.east.received()[i][0], i);
}

TEST(NiTest, LedgerTimestampsAreOrdered) {
  NiHarness h;
  h.sim.run(10);
  h.local.send(NodeId{1, 0}, {0x7});
  h.sim.run(50);
  ASSERT_EQ(h.ledger.packetLatency().count(), 1u);
  const double endToEnd = h.ledger.packetLatency().mean();
  const double network = h.ledger.networkLatency().mean();
  EXPECT_GE(endToEnd, network);
  EXPECT_GT(network, 0.0);
}

TEST(NiTest, RejectsSelfAndOffMeshDestinations) {
  NiHarness h;
  EXPECT_THROW(h.local.send(NodeId{0, 0}, {1}), std::invalid_argument);
  EXPECT_THROW(h.local.send(NodeId{5, 5}, {1}), std::invalid_argument);
}

TEST(NiTest, MisdeliveryFlagStartsClear) {
  NiHarness h;
  h.local.send(NodeId{1, 0}, {1, 2, 3});
  h.sim.run(50);
  EXPECT_FALSE(h.east.misdeliveryDetected());
  EXPECT_FALSE(h.local.misdeliveryDetected());
}

TEST(NiTest, ResetClearsAllState) {
  NiHarness h;
  h.local.send(NodeId{1, 0}, {1});
  h.sim.run(50);
  EXPECT_EQ(h.east.packetsReceived(), 1u);
  h.sim.reset();
  EXPECT_EQ(h.east.packetsReceived(), 0u);
  EXPECT_EQ(h.local.packetsSent(), 0u);
  EXPECT_TRUE(h.local.idle());
  EXPECT_EQ(h.east.received().size(), 0u);
}

TEST(NiTest, ParityOptionProtectsAndStrips) {
  router::RouterParams params;
  params.n = 16;
  NiOptions options;
  options.hlpParity = true;
  NiHarness h(params, options);
  h.local.send(NodeId{1, 0}, {0x1234, 0x7fff});
  h.sim.run(50);
  ASSERT_EQ(h.east.received().size(), 1u);
  EXPECT_EQ(h.east.received()[0][0], 0x1234u);
  EXPECT_EQ(h.east.received()[0][1], 0x7fffu);
  EXPECT_EQ(h.east.parityErrors(), 0u);
  EXPECT_EQ(h.local.payloadBits(), 15);
}

TEST(NiTest, MeshTooLargeForIndexFlitThrows) {
  router::RouterParams params;
  params.n = 4;  // 16 node indices max
  params.m = 4;
  router::Rasoc router("r", params);
  DeliveryLedger ledger;
  // 5x4 = 20 nodes > 16: the source-index flit cannot address them.
  EXPECT_THROW(NetworkInterface("ni", params,
                                std::make_shared<MeshTopology>(5, 4),
                                NodeId{0, 0}, router.in(router::Port::Local),
                                router.out(router::Port::Local), ledger),
               std::invalid_argument);
}

TEST(NiTest, QosOnARingNeedsTwoAdaptiveVcsAboveBothEscapeVcs) {
  // A ring wraps, so its routers reserve two escape VCs: a standalone NI
  // rejects qosClasses at numVCs = 3, which the mesh escape layer admits.
  router::RouterParams params;
  params.n = 16;
  params.qosClasses = true;
  const auto ring = makeTopology("ring", 8, 1);
  router::ChannelWires toRouter, fromRouter;
  DeliveryLedger ledger;
  params.numVCs = 3;
  try {
    NetworkInterface("ni", params, ring, ring->nodeAt(0), toRouter,
                     fromRouter, ledger);
    FAIL() << "3 VCs leave one adaptive VC on a ring";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "qosClasses on ring8 needs numVCs >= 4 (2 escape VCs + two "
                 "adaptive VCs for class separation)");
  }
  params.numVCs = 4;
  EXPECT_NO_THROW(NetworkInterface("ni", params, ring, ring->nodeAt(0),
                                   toRouter, fromRouter, ledger));
}

TEST(NiTest, CreditModeNiRespectsBufferDepth) {
  router::RouterParams params;
  params.flowControl = router::FlowControl::CreditBased;
  params.p = 2;
  NiHarness h(params);
  std::vector<std::uint32_t> payload(12, 0xab);
  h.local.send(NodeId{1, 0}, payload);
  h.sim.run(120);
  ASSERT_EQ(h.east.received().size(), 1u);
  EXPECT_EQ(h.east.received()[0].size(), payload.size());
  EXPECT_FALSE(h.router.overflowDetected());
}

}  // namespace
}  // namespace rasoc::noc
