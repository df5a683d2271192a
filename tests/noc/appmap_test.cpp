// Application mapping: cost model, placements, link-load prediction and
// its validation against the cycle-accurate mesh.
#include "noc/appmap.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "noc/network.hpp"

namespace rasoc::noc {
namespace {

using router::Port;

CoreGraph pipelineGraph(int stages, double bandwidth) {
  CoreGraph graph;
  for (int i = 0; i < stages; ++i)
    graph.addCore("stage" + std::to_string(i));
  for (int i = 0; i + 1 < stages; ++i) graph.addFlow(i, i + 1, bandwidth);
  return graph;
}

TEST(CoreGraphTest, ValidationCatchesBadFlows) {
  CoreGraph graph;
  graph.addCore("a");
  graph.addCore("b");
  graph.addFlow(0, 1, 0.2);
  EXPECT_NO_THROW(graph.validate());
  graph.addFlow(0, 0, 0.1);
  EXPECT_THROW(graph.validate(), std::invalid_argument);
  graph.flows.back() = CoreGraph::Flow{0, 5, 0.1};
  EXPECT_THROW(graph.validate(), std::invalid_argument);
  graph.flows.back() = CoreGraph::Flow{0, 1, 1.5};
  EXPECT_THROW(graph.validate(), std::invalid_argument);
}

TEST(CoreGraphTest, ValidationRejectsNaNBandwidth) {
  CoreGraph graph;
  graph.addCore("a");
  graph.addCore("b");
  graph.addFlow(0, 1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(graph.validate(), std::invalid_argument);
}

TEST(CoreGraphTest, TrafficOfSumsBothDirections) {
  CoreGraph graph;
  graph.addCore("a");
  graph.addCore("b");
  graph.addCore("c");
  graph.addFlow(0, 1, 0.2);
  graph.addFlow(2, 0, 0.3);
  EXPECT_DOUBLE_EQ(graph.trafficOf(0), 0.5);
  EXPECT_DOUBLE_EQ(graph.trafficOf(1), 0.2);
  EXPECT_DOUBLE_EQ(graph.trafficOf(2), 0.3);
}

TEST(MapperTest, XyPathFollowsXThenY) {
  const auto path = Mapper::xyPath(NodeId{0, 0}, NodeId{2, 1});
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], (LinkId{NodeId{0, 0}, Port::East}));
  EXPECT_EQ(path[1], (LinkId{NodeId{1, 0}, Port::East}));
  EXPECT_EQ(path[2], (LinkId{NodeId{2, 0}, Port::North}));
  EXPECT_TRUE(Mapper::xyPath(NodeId{1, 1}, NodeId{1, 1}).empty());
}

TEST(MapperTest, EvaluateComputesHopBandwidthExactly) {
  Mapper mapper(MeshShape{4, 4});
  CoreGraph graph = pipelineGraph(3, 0.25);
  // Place along a row: each flow travels 1 hop (xyHops counts dst router
  // too, so 2 each).
  const MappingResult result = mapper.evaluate(
      graph, {NodeId{0, 0}, NodeId{1, 0}, NodeId{2, 0}});
  EXPECT_DOUBLE_EQ(result.hopBandwidth, 2 * 0.25 * 2.0);
  EXPECT_DOUBLE_EQ(result.maxLinkLoad, 0.25);
  EXPECT_EQ(result.linkLoads.size(), 2u);
}

TEST(MapperTest, EvaluateRejectsOverlapsAndOffMesh) {
  Mapper mapper(MeshShape{2, 2});
  CoreGraph graph = pipelineGraph(2, 0.1);
  EXPECT_THROW(mapper.evaluate(graph, {NodeId{0, 0}, NodeId{0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(mapper.evaluate(graph, {NodeId{0, 0}, NodeId{5, 0}}),
               std::invalid_argument);
  EXPECT_THROW(mapper.evaluate(graph, {NodeId{0, 0}}),
               std::invalid_argument);
}

TEST(MapperTest, LinkLoadsAccumulateSharedSegments) {
  Mapper mapper(MeshShape{4, 1});
  CoreGraph graph;
  graph.addCore("a");
  graph.addCore("b");
  graph.addCore("c");
  graph.addFlow(0, 2, 0.2);  // a -> c crosses b's link
  graph.addFlow(1, 2, 0.3);  // b -> c
  const MappingResult result = mapper.evaluate(
      graph, {NodeId{0, 0}, NodeId{1, 0}, NodeId{2, 0}});
  EXPECT_DOUBLE_EQ(
      result.linkLoads.at(LinkId{NodeId{1, 0}, Port::East}), 0.5);
  EXPECT_DOUBLE_EQ(result.maxLinkLoad, 0.5);
}

TEST(MapperTest, GreedyKeepsChattyCoresAdjacent) {
  Mapper mapper(MeshShape{4, 4});
  CoreGraph graph = pipelineGraph(4, 0.3);
  const MappingResult greedy = mapper.mapGreedy(graph);
  // Worst case (corners) would be far higher; greedy must do much better
  // than a spread-out placement.
  const MappingResult spread = mapper.evaluate(
      graph, {NodeId{0, 0}, NodeId{3, 0}, NodeId{0, 3}, NodeId{3, 3}});
  EXPECT_LT(greedy.hopBandwidth, spread.hopBandwidth);
}

TEST(MapperTest, AnnealingNeverWorsensTheGreedySeed) {
  Mapper mapper(MeshShape{4, 4}, /*seed=*/5);
  CoreGraph graph;
  for (int i = 0; i < 8; ++i)
    graph.addCore(std::string("c").append(std::to_string(i)));
  // A ring of flows plus two chords.
  for (int i = 0; i < 8; ++i) graph.addFlow(i, (i + 1) % 8, 0.1);
  graph.addFlow(0, 4, 0.2);
  graph.addFlow(2, 6, 0.2);
  const MappingResult greedy = mapper.mapGreedy(graph);
  const MappingResult annealed = mapper.mapAnnealed(graph, 3000);
  EXPECT_LE(annealed.hopBandwidth, greedy.hopBandwidth);
}

TEST(MapperTest, PipelinePlacementReachesTheOptimum) {
  // A 4-stage pipeline on a 2x2 mesh has an optimal cost of
  // 3 flows x bw x 2 hops; annealing must find it.
  Mapper mapper(MeshShape{2, 2}, 7);
  CoreGraph graph = pipelineGraph(4, 0.2);
  const MappingResult result = mapper.mapAnnealed(graph, 4000);
  EXPECT_NEAR(result.hopBandwidth, 3 * 0.2 * 2.0, 1e-9);
}

TEST(FlowReplayTest, SimulatedLinkLoadsMatchThePrediction) {
  // The headline validation: predicted per-link loads from the mapper
  // match what the cycle-accurate RASoC mesh actually carries.
  const MeshShape shape{3, 3};
  NetworkConfig cfg;
  cfg.params.n = 16;
  Network mesh(std::make_shared<MeshTopology>(shape), cfg);

  CoreGraph graph;
  graph.addCore("dma");
  graph.addCore("cpu");
  graph.addCore("dsp");
  graph.addFlow(0, 1, 0.20);
  graph.addFlow(1, 2, 0.12);

  Mapper mapper(shape);
  const MappingResult mapping = mapper.evaluate(
      graph, {NodeId{0, 0}, NodeId{1, 0}, NodeId{2, 0}});
  auto replayers = attachFlows(mesh, graph, mapping, /*payloadFlits=*/6,
                               /*seed=*/3);
  ASSERT_EQ(replayers.size(), 2u);
  mesh.run(20000);
  EXPECT_TRUE(mesh.healthy());

  for (const auto& [link, predicted] : mapping.linkLoads) {
    const double measured = mesh.linkUtilization(link.from, link.port);
    EXPECT_NEAR(measured, predicted, 0.05)
        << "link (" << link.from.x << "," << link.from.y << ") "
        << router::name(link.port);
  }
}

TEST(FlowReplayTest, MappingMustCoverEveryCore) {
  Network mesh(std::make_shared<MeshTopology>(2, 2), NetworkConfig{});
  CoreGraph graph = pipelineGraph(3, 0.1);
  MappingResult incomplete;
  incomplete.placement = {NodeId{0, 0}, NodeId{1, 0}};
  EXPECT_THROW(attachFlows(mesh, graph, incomplete), std::invalid_argument);
}

}  // namespace
}  // namespace rasoc::noc
