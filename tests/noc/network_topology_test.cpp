// Topology-layer properties and topology-driven Network behaviour: the
// adjacency/routing contracts every Topology instance must satisfy, the
// deadlock-freedom drain tests for the wraparound topologies, and the
// lockstep fingerprint proving the refactored MeshTopology network is
// cycle-identical to the pre-refactor hard-wired mesh.
#include "noc/network.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace rasoc::noc {
namespace {

using router::Port;
using sim::Simulator;

std::vector<std::shared_ptr<const Topology>> sampleTopologies() {
  return {
      std::make_shared<MeshTopology>(4, 4),
      std::make_shared<MeshTopology>(5, 3),
      std::make_shared<TorusTopology>(4, 4),
      std::make_shared<TorusTopology>(5, 3),
      std::make_shared<RingTopology>(8),
      std::make_shared<RingTopology>(2),
  };
}

TEST(TopologyContractTest, IndexingRoundTripsAndThrowsOutside) {
  for (const auto& topo : sampleTopologies()) {
    SCOPED_TRACE(topo->describe());
    for (int i = 0; i < topo->nodes(); ++i) {
      EXPECT_EQ(topo->indexOf(topo->nodeAt(i)), i);
      EXPECT_TRUE(topo->contains(topo->nodeAt(i)));
    }
    EXPECT_THROW(topo->nodeAt(-1), std::out_of_range);
    EXPECT_THROW(topo->nodeAt(topo->nodes()), std::out_of_range);
    EXPECT_THROW(topo->indexOf(NodeId{-1, 0}), std::out_of_range);
    EXPECT_THROW(topo->indexOf(NodeId{0, 99}), std::out_of_range);
  }
}

TEST(TopologyContractTest, AdjacencyIsSymmetricWithMatchingPortMasks) {
  for (const auto& topo : sampleTopologies()) {
    SCOPED_TRACE(topo->describe());
    EXPECT_NO_THROW(topo->checkAdjacency());
    // The property spelled out, independent of checkAdjacency's own code.
    for (int i = 0; i < topo->nodes(); ++i) {
      const NodeId n = topo->nodeAt(i);
      for (Port p : router::kAllPorts) {
        if (p == Port::Local) continue;
        const auto nb = topo->neighbor(n, p);
        EXPECT_EQ(nb.has_value(),
                  (topo->portMask(n) >> router::index(p)) & 1u);
        if (!nb) continue;
        const auto back = topo->neighbor(*nb, router::opposite(p));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, n);
      }
    }
  }
}

TEST(TopologyContractTest, EveryRibRoutesToItsDestinationOnBothOrders) {
  // routePath walks the adjacency with the router's own route/consumeHop
  // logic and throws if the route leaves the links, loops, or ends at the
  // wrong node - so this is the residual-RIB-zero property in one sweep.
  for (const auto& topo : sampleTopologies()) {
    SCOPED_TRACE(topo->describe());
    for (auto algorithm :
         {router::RoutingAlgorithm::XY, router::RoutingAlgorithm::YX}) {
      for (int s = 0; s < topo->nodes(); ++s) {
        for (int d = 0; d < topo->nodes(); ++d) {
          const NodeId src = topo->nodeAt(s), dst = topo->nodeAt(d);
          const auto path = topo->routePath(src, dst, algorithm);
          EXPECT_EQ(path.empty(), s == d);
          EXPECT_EQ(topo->hops(src, dst),
                    static_cast<int>(topo->routePath(src, dst).size()) + 1);
        }
      }
    }
  }
}

TEST(TopologyContractTest, WrapRoutesFollowTheVcContract) {
  // The deadlock-freedom contract on wrapping topologies: numVCs == 1
  // routes stay inside the mesh/line sub-network (no wrap link is ever a
  // channel dependency), and numVCs >= 2 routes are minimal - at most
  // half of each ring per axis, so the escape VC's wrap classes apply.
  for (const auto& topo :
       {std::shared_ptr<const Topology>(std::make_shared<TorusTopology>(5, 4)),
        std::shared_ptr<const Topology>(std::make_shared<RingTopology>(8))}) {
    SCOPED_TRACE(topo->describe());
    const Extent ext = topo->extent();
    for (int s = 0; s < topo->nodes(); ++s) {
      for (int d = 0; d < topo->nodes(); ++d) {
        const NodeId src = topo->nodeAt(s), dst = topo->nodeAt(d);
        // numVCs == 1: every hop moves strictly toward the destination
        // coordinate, so the wrap edges (x: W-1 <-> 0, y: H-1 <-> 0) are
        // never crossed.
        NodeId at = src;
        for (const LinkId& hop : topo->routePath(src, dst)) {
          EXPECT_EQ(hop.from, at);
          const NodeId next = *topo->neighbor(at, hop.port);
          EXPECT_LE(std::abs(next.x - at.x), 1) << "crossed the X wrap";
          EXPECT_LE(std::abs(next.y - at.y), 1) << "crossed the Y wrap";
          at = next;
        }
        EXPECT_EQ(at, dst);
        // numVCs == 2: minimal per axis.
        const router::Rib r = topo->ribFor(src, dst, 2);
        EXPECT_LE(std::abs(r.dx), ext.width / 2);
        EXPECT_LE(std::abs(r.dy), ext.height / 2);
        EXPECT_EQ(static_cast<int>(topo->routePath(src, dst, router::RoutingAlgorithm::XY, 2).size()),
                  std::abs(r.dx) + std::abs(r.dy));
      }
    }
  }
}

TEST(MinimalRingOffsetTest, PicksShorterDirectionPreferringNonWrapTies) {
  EXPECT_EQ(minimalRingOffset(0, 3, 8), 3);
  EXPECT_EQ(minimalRingOffset(3, 0, 8), -3);
  EXPECT_EQ(minimalRingOffset(0, 5, 8), -3);  // wrap down: 3 hops, not 5
  EXPECT_EQ(minimalRingOffset(5, 0, 8), 3);   // wrap up
  EXPECT_EQ(minimalRingOffset(1, 7, 8), -2);  // minimal now crosses 0 freely
  EXPECT_EQ(minimalRingOffset(7, 1, 8), 2);
  EXPECT_EQ(minimalRingOffset(0, 4, 8), 4);   // tie: prefer non-wrapping
  EXPECT_EQ(minimalRingOffset(4, 0, 8), -4);
  EXPECT_EQ(minimalRingOffset(2, 2, 8), 0);
}

TEST(TopologyDescribeTest, StableNamesAndFactory) {
  EXPECT_EQ(MeshTopology(4, 4).describe(), "mesh4x4");
  EXPECT_EQ(TorusTopology(8, 8).describe(), "torus8x8");
  EXPECT_EQ(RingTopology(16).describe(), "ring16");
  EXPECT_EQ(makeTopology("mesh", 3, 2)->nodes(), 6);
  EXPECT_EQ(makeTopology("torus", 4, 4)->kind(), "torus");
  EXPECT_EQ(makeTopology("ring", 4, 2)->describe(), "ring8");
  EXPECT_THROW(makeTopology("hypercube", 4, 4), std::invalid_argument);
}

TEST(TopologyContractTest, EveryInstanceStatesItsDeadlockFreedom) {
  for (const auto& topo : sampleTopologies())
    EXPECT_FALSE(topo->deadlockFreedom().empty()) << topo->describe();
}

TEST(NetworkBuildTest, RejectsTopologiesExceedingTheRibRange) {
  NetworkConfig cfg;  // m = 8: per-axis offsets up to 7
  EXPECT_NO_THROW(Network(std::make_shared<MeshTopology>(8, 8), cfg));
  // A 32-node ring needs non-wrapping offsets up to 31, far beyond m=8.
  EXPECT_THROW(Network(std::make_shared<RingTopology>(32), cfg),
               std::invalid_argument);
  cfg.params.m = 12;  // per-axis range 31
  cfg.params.n = 16;  // the header flit must hold the wider RIB
  EXPECT_NO_THROW(Network(std::make_shared<RingTopology>(32), cfg));
}

TEST(NetworkBuildTest, RejectsLinkFaultRateOutsideUnitIntervalByName) {
  // NaN and negative rates used to build ideal links; 1.5 failed inside
  // FaultyLink without naming the network parameter.
  const auto mesh = std::make_shared<MeshTopology>(2, 2);
  for (const double rate :
       {std::numeric_limits<double>::quiet_NaN(), -0.5, 1.5}) {
    SCOPED_TRACE(rate);
    NetworkConfig cfg;
    cfg.linkFaultRate = rate;
    try {
      Network net(mesh, cfg);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("linkFaultRate"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(NetworkBuildTest, LinkCountMatchesTheAdjacency) {
  NetworkConfig cfg;
  // A W x H mesh: 2*(W*(H-1) + H*(W-1)) directed links.
  EXPECT_EQ(Network(std::make_shared<MeshTopology>(4, 4), cfg).linkCount(),
            48u);
  // Torus W x H: every node drives all four directions.
  EXPECT_EQ(Network(std::make_shared<TorusTopology>(4, 4), cfg).linkCount(),
            64u);
  // Ring N: East + West out of every node.
  EXPECT_EQ(Network(std::make_shared<RingTopology>(8), cfg).linkCount(),
            16u);
}

// All-pairs single-packet delivery: the residual-RIB-zero invariant is
// enforced by every destination NI (healthy() fails otherwise), so this
// checks RIB consumption through the actual routers on every topology and
// both simulator kernels.
TEST(NetworkDeliveryTest, AllPairsDeliverWithZeroResidualRib) {
  for (auto kernel : {Simulator::Kernel::Naive, Simulator::Kernel::Compiled}) {
    for (const auto& topo :
         {makeTopology("mesh", 3, 3), makeTopology("torus", 3, 3),
          makeTopology("ring", 6, 1)}) {
      SCOPED_TRACE(topo->describe() + (kernel == Simulator::Kernel::Naive
                                           ? " naive"
                                           : " compiled"));
      NetworkConfig cfg;
      cfg.kernel = kernel;
      Network net(topo, cfg);
      std::uint64_t sent = 0;
      for (int s = 0; s < topo->nodes(); ++s) {
        for (int d = 0; d < topo->nodes(); ++d) {
          if (s == d) continue;
          net.ni(topo->nodeAt(s)).send(topo->nodeAt(d), {0xabcu, 0xdefu});
          ++sent;
        }
      }
      ASSERT_TRUE(net.drain(20000));
      EXPECT_TRUE(net.healthy());
      EXPECT_EQ(net.ledger().delivered(), sent);
      EXPECT_EQ(net.unattributedPackets(), 0u);
    }
  }
}

// Saturated drain: flood every NI with pattern traffic far beyond the
// network's capacity, then require a complete drain - a routing deadlock
// would hang the drain, so success demonstrates the non-wrapping numVCs==1
// routing restriction does its job under wormhole backpressure.
void floodAndDrain(const std::shared_ptr<const Topology>& topo,
                   TrafficPattern pattern, Simulator::Kernel kernel) {
  NetworkConfig cfg;
  cfg.kernel = kernel;
  Network net(topo, cfg);
  TrafficConfig traffic;
  traffic.pattern = pattern;
  sim::Xoshiro256 rng(99);
  std::uint64_t sent = 0;
  for (int round = 0; round < 6; ++round) {
    for (int s = 0; s < topo->nodes(); ++s) {
      const NodeId src = topo->nodeAt(s);
      const NodeId dst = destinationFor(pattern, src, *topo, rng, traffic);
      if (dst == src) continue;  // pattern fixed point
      net.ni(src).send(dst, {1u, 2u, 3u, 4u});
      ++sent;
    }
  }
  ASSERT_TRUE(net.drain(60000)) << topo->describe();
  EXPECT_TRUE(net.healthy()) << topo->describe();
  EXPECT_EQ(net.ledger().delivered(), sent);
}

TEST(NetworkDrainTest, TorusDrainsSaturatedUniformAndTransposeBothKernels) {
  for (auto kernel :
       {Simulator::Kernel::Naive, Simulator::Kernel::Compiled}) {
    floodAndDrain(makeTopology("torus", 4, 4), TrafficPattern::UniformRandom,
                  kernel);
    floodAndDrain(makeTopology("torus", 4, 4), TrafficPattern::Transpose,
                  kernel);
  }
}

TEST(NetworkDrainTest, RingDrainsSaturatedUniformAndComplementBothKernels) {
  // Transpose cannot exist on a ring (non-square extent); BitComplement is
  // the long-haul equivalent, pairing node i with node N-1-i.
  for (auto kernel :
       {Simulator::Kernel::Naive, Simulator::Kernel::Compiled}) {
    floodAndDrain(makeTopology("ring", 8, 1), TrafficPattern::UniformRandom,
                  kernel);
    floodAndDrain(makeTopology("ring", 8, 1), TrafficPattern::BitComplement,
                  kernel);
  }
}

TEST(NetworkDrainTest, GeneratorDrivenTorusAndRingStayHealthyUnderLoad) {
  for (const auto& topo :
       {makeTopology("torus", 4, 4), makeTopology("ring", 8, 1)}) {
    SCOPED_TRACE(topo->describe());
    NetworkConfig cfg;
    Network net(topo, cfg);
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.offeredLoad = 0.8;
    traffic.payloadFlits = 3;
    traffic.seed = 11;
    net.attachTraffic(traffic);
    net.run(1500);
    const std::uint64_t mid = net.ledger().delivered();
    net.run(1500);
    EXPECT_TRUE(net.healthy());
    EXPECT_GT(mid, 50u);
    EXPECT_GT(net.ledger().delivered(), mid + 50u);  // still flowing
  }
}

TEST(NetworkDeliveryTest, TorusWrapLinksCarryTrafficWithVCs) {
  // Without virtual channels a torus routes like a mesh (no wrap links);
  // with an escape VC the corner-to-corner route takes the wrap links
  // (1 hop per axis instead of W-1).  Check both the route computation and
  // that the wrap channel actually moves the flits through real routers.
  const auto torus = std::make_shared<TorusTopology>(4, 4);
  EXPECT_EQ(torus->rib(NodeId{0, 0}, NodeId{3, 3}), (router::Rib{3, 3}));
  EXPECT_EQ(torus->ribFor(NodeId{0, 0}, NodeId{3, 3}, 2),
            (router::Rib{-1, -1}));
  EXPECT_EQ(torus->hops(NodeId{0, 0}, NodeId{3, 3}), 7);  // numVCs == 1
  EXPECT_EQ(static_cast<int>(
                torus->routePath(NodeId{0, 0}, NodeId{3, 3},
                                 router::RoutingAlgorithm::XY, 2)
                    .size()),
            2);

  NetworkConfig cfg;
  cfg.params.numVCs = 2;
  Network net(torus, cfg);
  net.ni(NodeId{0, 0}).send(NodeId{3, 3}, {7u});
  ASSERT_TRUE(net.drain(500));
  EXPECT_TRUE(net.healthy());
  // The West wrap link out of (0,0) moved the packet's flits.
  EXPECT_GT(net.linkUtilization(NodeId{0, 0}, Port::West), 0.0);
}

// The acceptance fingerprint: a Network over MeshTopology must be
// cycle-identical to the pre-refactor hard-wired mesh.  The constants
// below were captured from the seed implementation (commit 1e06a2b) with
// exactly this harness: 8x8, n=16, p=4, payloadFlits=4, seed=2026, 2000
// cycles; both kernels produced identical numbers there too.
struct Golden {
  TrafficPattern pattern;
  double load;
  std::uint64_t queued, delivered, flits;
  double latMean, netMean;
};

TEST(LockstepGoldenTest, MeshTopologyNetworkMatchesPreRefactorMesh) {
  const Golden goldens[] = {
      {TrafficPattern::UniformRandom, 0.05, 1031, 1023, 6138,
       19.066471163245357, 18.885630498533725},
      {TrafficPattern::UniformRandom, 0.20, 4302, 4244, 25464,
       36.793826578699338, 31.726672950047124},
      {TrafficPattern::UniformRandom, 0.50, 5109, 4805, 28830,
       115.77023933402705, 56.147138397502601},
      {TrafficPattern::Transpose, 0.05, 881, 875, 5250, 20.017142857142858,
       19.850285714285715},
      {TrafficPattern::Transpose, 0.20, 3227, 3098, 18588,
       69.399935442220794, 42.611039380245316},
      {TrafficPattern::Transpose, 0.50, 3936, 3707, 22242,
       106.40814674939304, 48.710008092797409},
  };
  for (const Golden& golden : goldens) {
    for (auto kernel :
         {Simulator::Kernel::Naive, Simulator::Kernel::Compiled}) {
      SCOPED_TRACE(std::string(name(golden.pattern)) + " load " +
                   std::to_string(golden.load));
      NetworkConfig cfg;
      cfg.params.n = 16;
      cfg.params.p = 4;
      cfg.kernel = kernel;
      Network net(std::make_shared<MeshTopology>(8, 8), cfg);
      TrafficConfig traffic;
      traffic.pattern = golden.pattern;
      traffic.offeredLoad = golden.load;
      traffic.payloadFlits = 4;
      traffic.seed = 2026;
      net.attachTraffic(traffic);
      net.run(2000);
      EXPECT_TRUE(net.healthy());
      EXPECT_EQ(net.ledger().queued(), golden.queued);
      EXPECT_EQ(net.ledger().delivered(), golden.delivered);
      EXPECT_EQ(net.ledger().flitsDelivered(), golden.flits);
      EXPECT_DOUBLE_EQ(net.ledger().packetLatency().mean(), golden.latMean);
      EXPECT_DOUBLE_EQ(net.ledger().networkLatency().mean(), golden.netMean);
    }
  }
}

}  // namespace
}  // namespace rasoc::noc
