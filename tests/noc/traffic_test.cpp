#include "noc/traffic.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "noc/ni.hpp"
#include "router/rasoc.hpp"

namespace rasoc::noc {
namespace {

TEST(DestinationTest, UniformCoversAllOtherNodesAndNeverSelf) {
  const MeshShape shape{3, 3};
  const NodeId src{1, 1};
  sim::Xoshiro256 rng(3);
  TrafficConfig config;
  std::map<int, int> histogram;
  for (int i = 0; i < 8000; ++i) {
    const NodeId dst = destinationFor(TrafficPattern::UniformRandom, src,
                                      shape, rng, config);
    ASSERT_NE(dst, src);
    ASSERT_TRUE(shape.contains(dst));
    ++histogram[shape.indexOf(dst)];
  }
  EXPECT_EQ(histogram.size(), 8u);  // all other nodes hit
  for (const auto& [node, hits] : histogram)
    EXPECT_NEAR(hits, 1000, 200) << "node " << node;
}

TEST(DestinationTest, TransposeSwapsCoordinates) {
  const MeshShape shape{4, 4};
  sim::Xoshiro256 rng(1);
  TrafficConfig config;
  EXPECT_EQ(destinationFor(TrafficPattern::Transpose, NodeId{3, 1}, shape,
                           rng, config),
            (NodeId{1, 3}));
  // Diagonal nodes are fixed points (the generator skips them).
  EXPECT_EQ(destinationFor(TrafficPattern::Transpose, NodeId{2, 2}, shape,
                           rng, config),
            (NodeId{2, 2}));
}

TEST(DestinationTest, TransposeRequiresSquareMesh) {
  const MeshShape shape{4, 2};
  sim::Xoshiro256 rng(1);
  TrafficConfig config;
  EXPECT_THROW(destinationFor(TrafficPattern::Transpose, NodeId{0, 0}, shape,
                              rng, config),
               std::invalid_argument);
}

TEST(DestinationTest, BitComplementMirrorsBothAxes) {
  const MeshShape shape{4, 4};
  sim::Xoshiro256 rng(1);
  TrafficConfig config;
  EXPECT_EQ(destinationFor(TrafficPattern::BitComplement, NodeId{0, 0}, shape,
                           rng, config),
            (NodeId{3, 3}));
  EXPECT_EQ(destinationFor(TrafficPattern::BitComplement, NodeId{1, 2}, shape,
                           rng, config),
            (NodeId{2, 1}));
}

TEST(DestinationTest, HotSpotBiasesTowardTheHotNode) {
  const MeshShape shape{4, 4};
  sim::Xoshiro256 rng(9);
  TrafficConfig config;
  config.hotspot = NodeId{3, 3};
  config.hotspotFraction = 0.5;
  int hot = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    if (destinationFor(TrafficPattern::HotSpot, NodeId{0, 0}, shape, rng,
                       config) == config.hotspot)
      ++hot;
  }
  // 50% direct + uniform residue also occasionally hits the hot node.
  EXPECT_GT(hot, trials / 2 - 200);
}

TEST(DestinationTest, NearestNeighborWraps) {
  const MeshShape shape{4, 4};
  sim::Xoshiro256 rng(1);
  TrafficConfig config;
  EXPECT_EQ(destinationFor(TrafficPattern::NearestNeighbor, NodeId{3, 2},
                           shape, rng, config),
            (NodeId{0, 2}));
}

TEST(TrafficConfigTest, PacketFlitsIncludesHeaderAndSourceIndex) {
  TrafficConfig config;
  config.payloadFlits = 6;
  EXPECT_EQ(config.packetFlits(), 8);
}

TEST(PatternNamesTest, AllNamed) {
  EXPECT_EQ(name(TrafficPattern::UniformRandom), "uniform");
  EXPECT_EQ(name(TrafficPattern::Transpose), "transpose");
  EXPECT_EQ(name(TrafficPattern::BitComplement), "complement");
  EXPECT_EQ(name(TrafficPattern::HotSpot), "hotspot");
  EXPECT_EQ(name(TrafficPattern::NearestNeighbor), "neighbor");
}

TEST(PatternValidationTest, TransposeRejectsNonSquareTopologies) {
  TrafficConfig config;
  config.pattern = TrafficPattern::Transpose;
  EXPECT_NO_THROW(
      validatePattern(config.pattern, MeshTopology(4, 4), config));
  EXPECT_NO_THROW(
      validatePattern(config.pattern, TorusTopology(3, 3), config));
  EXPECT_THROW(validatePattern(config.pattern, MeshTopology(4, 2), config),
               std::invalid_argument);
  EXPECT_THROW(validatePattern(config.pattern, TorusTopology(2, 4), config),
               std::invalid_argument);
  // A ring's extent is Nx1: transpose is inexpressible, and the message
  // should steer callers to the ring-capable pattern.
  const RingTopology ring(8);
  try {
    validatePattern(config.pattern, ring, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("square"), std::string::npos) << what;
    EXPECT_NE(what.find("ring8"), std::string::npos) << what;
  }
}

TEST(PatternValidationTest, HotSpotTargetMustBeANode) {
  TrafficConfig config;
  config.pattern = TrafficPattern::HotSpot;
  config.hotspot = NodeId{3, 3};
  EXPECT_NO_THROW(
      validatePattern(config.pattern, MeshTopology(4, 4), config));
  EXPECT_THROW(validatePattern(config.pattern, RingTopology(8), config),
               std::invalid_argument);
  config.hotspot = NodeId{5, 0};
  EXPECT_NO_THROW(validatePattern(config.pattern, RingTopology(8), config));
}

TEST(PatternValidationTest, RingFriendlyPatternsPass) {
  TrafficConfig config;
  const RingTopology ring(8);
  EXPECT_NO_THROW(
      validatePattern(TrafficPattern::UniformRandom, ring, config));
  EXPECT_NO_THROW(
      validatePattern(TrafficPattern::BitComplement, ring, config));
  EXPECT_NO_THROW(
      validatePattern(TrafficPattern::NearestNeighbor, ring, config));
  sim::Xoshiro256 rng(4);
  EXPECT_EQ(destinationFor(TrafficPattern::BitComplement, NodeId{1, 0}, ring,
                           rng, config),
            (NodeId{6, 0}));
  EXPECT_EQ(destinationFor(TrafficPattern::NearestNeighbor, NodeId{7, 0},
                           ring, rng, config),
            (NodeId{0, 0}));
}

TEST(TrafficGeneratorTest, ConstructorValidatesThePattern) {
  const MeshShape shape{4, 2};
  router::RouterParams params;
  router::Rasoc router("r", params);
  DeliveryLedger ledger;
  NetworkInterface ni("ni", params, shape, NodeId{0, 0},
                      router.in(router::Port::Local),
                      router.out(router::Port::Local), ledger);
  TrafficConfig config;
  config.pattern = TrafficPattern::Transpose;  // 4x2 is not square
  EXPECT_THROW(TrafficGenerator("tg", shape, NodeId{0, 0}, ni, config),
               std::invalid_argument);
}

TEST(TrafficGeneratorTest, RejectsInvalidConfigs) {
  const MeshShape shape{2, 2};
  router::RouterParams params;
  router::Rasoc router("r", params);
  DeliveryLedger ledger;
  NetworkInterface ni("ni", params, shape, NodeId{0, 0},
                      router.in(router::Port::Local),
                      router.out(router::Port::Local), ledger);
  TrafficConfig config;
  config.offeredLoad = 1.5;
  EXPECT_THROW(TrafficGenerator("tg", shape, NodeId{0, 0}, ni, config),
               std::invalid_argument);
  config.offeredLoad = 0.5;
  config.payloadFlits = 0;
  EXPECT_THROW(TrafficGenerator("tg", shape, NodeId{0, 0}, ni, config),
               std::invalid_argument);
}

TEST(TrafficGeneratorTest, RejectsNanOfferedLoadByName) {
  // NaN compares false against both bounds, so it must fail the range
  // check rather than silently generate nothing.
  const MeshShape shape{2, 2};
  router::RouterParams params;
  router::Rasoc router("r", params);
  DeliveryLedger ledger;
  NetworkInterface ni("ni", params, shape, NodeId{0, 0},
                      router.in(router::Port::Local),
                      router.out(router::Port::Local), ledger);
  TrafficConfig config;
  config.offeredLoad = std::numeric_limits<double>::quiet_NaN();
  try {
    TrafficGenerator("tg", shape, NodeId{0, 0}, ni, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offeredLoad"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rasoc::noc
