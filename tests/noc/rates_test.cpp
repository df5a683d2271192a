// Statistical behaviour of the traffic machinery: offered load accuracy,
// per-node seeding independence, and link-utilization accessors.
#include <gtest/gtest.h>

#include <algorithm>

#include "noc/network.hpp"

namespace rasoc::noc {
namespace {

TEST(RatesTest, InjectedLoadTracksOfferedLoadWhenUncongested) {
  NetworkConfig cfg;
  cfg.params.n = 16;
  Network mesh(std::make_shared<MeshTopology>(4, 4), cfg);
  TrafficConfig traffic;
  traffic.offeredLoad = 0.08;
  traffic.payloadFlits = 6;
  traffic.seed = 51;
  mesh.attachTraffic(traffic);
  const std::uint64_t cycles = 12000;
  mesh.run(cycles);
  // Queued flits per cycle per node across the run.
  std::uint64_t queuedFlits = 0;
  for (int i = 0; i < mesh.topology().nodes(); ++i) {
    // Every queued packet is packetFlits() flits.
    const NodeId n = mesh.topology().nodeAt(i);
    queuedFlits += mesh.generator(n).packetsGenerated() *
                   static_cast<std::uint64_t>(traffic.packetFlits());
  }
  const double measured = static_cast<double>(queuedFlits) /
                          static_cast<double>(cycles) / 16.0;
  EXPECT_NEAR(measured, traffic.offeredLoad, 0.01);
}

TEST(RatesTest, NodesGenerateIndependently) {
  NetworkConfig cfg;
  cfg.params.n = 16;
  Network mesh(std::make_shared<MeshTopology>(3, 3), cfg);
  TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.seed = 5;
  mesh.attachTraffic(traffic);
  mesh.run(4000);
  // All nodes active, with sane spread (same Bernoulli process, different
  // streams).
  std::uint64_t lo = ~0ull, hi = 0;
  for (int i = 0; i < mesh.topology().nodes(); ++i) {
    const std::uint64_t n =
        mesh.generator(mesh.topology().nodeAt(i)).packetsGenerated();
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LT(hi, lo * 2);
}

TEST(RatesTest, LinkUtilizationAccessorMatchesTopology) {
  Network mesh(std::make_shared<MeshTopology>(2, 2), NetworkConfig{});
  mesh.ni(NodeId{0, 0}).send(NodeId{1, 0}, {1, 2});
  ASSERT_TRUE(mesh.drain(200));
  EXPECT_GT(mesh.linkUtilization(NodeId{0, 0}, router::Port::East), 0.0);
  EXPECT_EQ(mesh.linkUtilization(NodeId{1, 0}, router::Port::West), 0.0);
  // Dangling edge links do not exist.
  EXPECT_THROW(mesh.linkUtilization(NodeId{1, 0}, router::Port::East),
               std::out_of_range);
  EXPECT_THROW(mesh.linkUtilization(NodeId{0, 0}, router::Port::South),
               std::out_of_range);
  // Local "links" are NI connections, not Link modules.
  EXPECT_THROW(mesh.linkUtilization(NodeId{0, 0}, router::Port::Local),
               std::out_of_range);
}

TEST(RatesTest, GeneratorBackpressureSkipsWhenQueueIsFull) {
  NetworkConfig cfg;
  cfg.params.p = 1;
  Network mesh(std::make_shared<MeshTopology>(2, 1), cfg);
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::NearestNeighbor;
  traffic.offeredLoad = 1.0;
  traffic.payloadFlits = 8;
  traffic.maxQueuedPackets = 2;
  traffic.seed = 3;
  mesh.attachTraffic(traffic);
  mesh.run(2000);
  std::uint64_t skipped = 0;
  for (int i = 0; i < 2; ++i)
    skipped += mesh.generator(mesh.topology().nodeAt(i)).injectionsSkipped();
  EXPECT_GT(skipped, 0u);
  // And queues stayed bounded.
  for (int i = 0; i < 2; ++i)
    EXPECT_LE(mesh.ni(mesh.topology().nodeAt(i)).sendQueuePackets(),
              traffic.maxQueuedPackets);
}

}  // namespace
}  // namespace rasoc::noc
