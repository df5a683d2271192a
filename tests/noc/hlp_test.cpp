// HLP parity + link fault injection (the paper's data-integrity extension).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "noc/network.hpp"
#include "router/faulty_link.hpp"
#include "sim/simulator.hpp"

namespace rasoc::noc {
namespace {

NetworkConfig config(bool parity, double faultRate) {
  NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.hlpParity = parity;
  cfg.linkFaultRate = faultRate;
  return cfg;
}

TEST(HlpParityTest, CleanLinksProduceNoParityErrors) {
  Network mesh(std::make_shared<MeshTopology>(3, 3),
               config(/*parity=*/true, /*faultRate=*/0.0));
  TrafficConfig traffic;
  traffic.offeredLoad = 0.15;
  traffic.payloadFlits = 4;
  traffic.seed = 3;
  mesh.attachTraffic(traffic);
  mesh.run(2000);
  EXPECT_TRUE(mesh.healthy());
  EXPECT_GT(mesh.ledger().delivered(), 50u);
  EXPECT_EQ(mesh.parityErrorsDetected(), 0u);
  EXPECT_EQ(mesh.unattributedPackets(), 0u);
}

TEST(HlpParityTest, ParityCostsOneDataBit) {
  Network mesh(std::make_shared<MeshTopology>(3, 3), config(true, 0.0));
  // Payload words are truncated to n-1 bits under parity.
  mesh.ni(NodeId{0, 0}).send(NodeId{1, 0}, {0xffff});
  ASSERT_TRUE(mesh.drain(300));
  const auto& rx = mesh.ni(NodeId{1, 0}).received();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0][0], 0x7fffu);  // top bit carries parity, not data
  EXPECT_EQ(mesh.ni(NodeId{0, 0}).payloadBits(), 15);
}

TEST(HlpParityTest, SingleBitFlipsAreAlwaysDetected) {
  // Single-bit faults are exactly what even parity catches: every
  // corrupted flit must raise a parity error.
  Network mesh(std::make_shared<MeshTopology>(3, 3), config(true, 0.02));
  TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.payloadFlits = 6;
  traffic.seed = 7;
  mesh.attachTraffic(traffic);
  mesh.run(4000);
  EXPECT_GT(mesh.flitsCorrupted(), 20u) << "fault injector must be active";
  // Every corrupted payload flit that reached an NI was flagged.  Some
  // corrupted flits may still be in flight, and a flit can be corrupted on
  // several hops (two flips on the same bit cancel), so compare loosely:
  EXPECT_GT(mesh.parityErrorsDetected(), mesh.flitsCorrupted() / 2);
}

TEST(HlpParityTest, WithoutParityCorruptionGoesUnnoticed) {
  Network mesh(std::make_shared<MeshTopology>(3, 3),
               config(/*parity=*/false, 0.02));
  TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.payloadFlits = 6;
  traffic.seed = 7;
  mesh.attachTraffic(traffic);
  mesh.run(4000);
  EXPECT_GT(mesh.flitsCorrupted(), 20u);
  EXPECT_EQ(mesh.parityErrorsDetected(), 0u);  // nothing checks -> silent
}

TEST(HlpParityTest, FaultFreeRunsAreUnchangedByTheParityOption) {
  auto runOne = [](bool parity) {
    Network mesh(std::make_shared<MeshTopology>(3, 3), config(parity, 0.0));
    TrafficConfig traffic;
    traffic.offeredLoad = 0.1;
    traffic.payloadFlits = 4;
    traffic.seed = 11;
    mesh.attachTraffic(traffic);
    mesh.run(1500);
    return mesh.ledger().delivered();
  };
  // Parity only re-encodes payload bits; timing and delivery are identical.
  EXPECT_EQ(runOne(false), runOne(true));
}

TEST(FaultyLinkTest, ZeroRateNeverCorrupts) {
  Network mesh(std::make_shared<MeshTopology>(3, 3), config(false, 0.0));
  TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.seed = 1;
  mesh.attachTraffic(traffic);
  mesh.run(1000);
  EXPECT_EQ(mesh.flitsCorrupted(), 0u);
}

TEST(FaultyLinkTest, CorruptionRateTracksProbability) {
  Network mesh(std::make_shared<MeshTopology>(3, 3), config(false, 0.05));
  TrafficConfig traffic;
  traffic.offeredLoad = 0.3;
  traffic.payloadFlits = 6;
  traffic.seed = 13;
  mesh.attachTraffic(traffic);
  mesh.run(5000);
  // Payload flits are 7 of 8 per packet; corrupted ~5% of payload crossings.
  std::uint64_t payloadCrossings = 0;
  // Approximate payload share of all link flits: 7/8.
  std::uint64_t totalFlits = 0;
  (void)payloadCrossings;
  // Use the aggregate: corrupted / (transferred * 7/8) should be near 5%.
  // The network does not expose per-link totals; derive from utilization.
  const double cycles = static_cast<double>(mesh.simulator().cycle());
  const double meanUtil = mesh.meanLinkUtilization();
  totalFlits = static_cast<std::uint64_t>(meanUtil * cycles *
                                          static_cast<double>(
                                              mesh.linkCount()));
  ASSERT_GT(totalFlits, 1000u);
  const double rate = static_cast<double>(mesh.flitsCorrupted()) /
                      (static_cast<double>(totalFlits) * 7.0 / 8.0);
  EXPECT_NEAR(rate, 0.05, 0.02);
}

TEST(FaultyLinkTest, InvalidConfigThrows) {
  router::ChannelWires a, b;
  EXPECT_THROW(router::FaultyLink("f", a, b, 0, 0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(router::FaultyLink("f", a, b, 16, 1.5, 1),
               std::invalid_argument);
}

TEST(FaultyLinkTest, NanProbabilitiesThrow) {
  router::ChannelWires a, b;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(router::FaultyLink("f", a, b, 16, nan, 1),
               std::invalid_argument);
  router::FaultyLink link("f", a, b, 16, 0.0, 1);
  router::FaultWindow window;
  window.duration = 10;
  window.rate = nan;
  EXPECT_THROW(link.setWindows({window}), std::invalid_argument);
}

TEST(FaultyLinkTest, HeadersAreNeverCorrupted) {
  // Run a fault-heavy mesh and require zero misroutes/misdeliveries: the
  // payload-only fault model leaves RIBs intact, so routing stays correct.
  Network mesh(std::make_shared<MeshTopology>(3, 3), config(false, 0.3));
  TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.seed = 17;
  mesh.attachTraffic(traffic);
  mesh.run(2000);
  for (int i = 0; i < mesh.topology().nodes(); ++i) {
    const NodeId n = mesh.topology().nodeAt(i);
    EXPECT_FALSE(mesh.router(n).misrouteDetected());
    EXPECT_FALSE(mesh.ni(n).misdeliveryDetected());
  }
}

}  // namespace
}  // namespace rasoc::noc
