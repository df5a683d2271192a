// XY vs YX routing at the network level: both orders deliver correctly and
// stay deadlock-free; dimension order redistributes which links carry a
// given traffic pattern.
#include <gtest/gtest.h>

#include "noc/network.hpp"

namespace rasoc::noc {
namespace {

using router::Port;
using router::RoutingAlgorithm;

NetworkConfig config(RoutingAlgorithm routing) {
  NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.params.routing = routing;
  return cfg;
}

TEST(RoutingTest, YxDeliversAllPairs) {
  const MeshShape shape{4, 4};
  Network mesh(std::make_shared<MeshTopology>(shape),
               config(RoutingAlgorithm::YX));
  int sent = 0;
  for (int s = 0; s < shape.nodes(); ++s) {
    for (int d = 0; d < shape.nodes(); ++d) {
      if (s == d) continue;
      mesh.ni(shape.nodeAt(s)).send(shape.nodeAt(d),
                                    {static_cast<std::uint32_t>(s)});
      ++sent;
    }
  }
  ASSERT_TRUE(mesh.drain(10000));
  EXPECT_TRUE(mesh.healthy());
  EXPECT_EQ(mesh.ledger().delivered(), static_cast<std::uint64_t>(sent));
}

TEST(RoutingTest, YxSaturationStaysDeadlockFree) {
  Network mesh(std::make_shared<MeshTopology>(4, 4),
               config(RoutingAlgorithm::YX));
  TrafficConfig traffic;
  traffic.offeredLoad = 1.0;
  traffic.payloadFlits = 4;
  traffic.seed = 5;
  mesh.attachTraffic(traffic);
  mesh.run(1500);
  const std::uint64_t mid = mesh.ledger().delivered();
  mesh.run(1500);
  EXPECT_TRUE(mesh.healthy());
  EXPECT_GT(mesh.ledger().delivered(), mid + 50);
}

TEST(RoutingTest, DimensionOrderMovesCornerTurns) {
  // A single (0,0) -> (2,2) packet: XY uses the East links of row 0 then
  // the North links of column 2; YX uses the North links of column 0 then
  // the East links of row 2.
  auto linkFlits = [](RoutingAlgorithm routing, NodeId from, Port port) {
    Network mesh(std::make_shared<MeshTopology>(4, 4), config(routing));
    mesh.ni(NodeId{0, 0}).send(NodeId{2, 2}, {1, 2, 3});
    if (!mesh.drain(500)) ADD_FAILURE() << "drain timeout";
    return mesh.linkUtilization(from, port);
  };
  EXPECT_GT(linkFlits(RoutingAlgorithm::XY, NodeId{0, 0}, Port::East), 0.0);
  EXPECT_EQ(linkFlits(RoutingAlgorithm::XY, NodeId{0, 0}, Port::North), 0.0);
  EXPECT_EQ(linkFlits(RoutingAlgorithm::YX, NodeId{0, 0}, Port::East), 0.0);
  EXPECT_GT(linkFlits(RoutingAlgorithm::YX, NodeId{0, 0}, Port::North), 0.0);
}

TEST(RoutingTest, BothOrdersDeliverTheSameTransposeTrafficVolume) {
  auto runOne = [](RoutingAlgorithm routing) {
    Network mesh(std::make_shared<MeshTopology>(4, 4), config(routing));
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::Transpose;
    traffic.offeredLoad = 0.15;
    traffic.payloadFlits = 4;
    traffic.seed = 9;
    mesh.attachTraffic(traffic);
    mesh.run(2500);
    return mesh.ledger().delivered();
  };
  const auto xy = runOne(RoutingAlgorithm::XY);
  const auto yx = runOne(RoutingAlgorithm::YX);
  // Transpose is symmetric under dimension exchange: both orders must
  // carry essentially the same volume at moderate load.
  EXPECT_NEAR(static_cast<double>(xy), static_cast<double>(yx),
              0.05 * static_cast<double>(xy));
}

}  // namespace
}  // namespace rasoc::noc
