// Application mapping - the "design methodologies" use of RASoC the paper
// reports ("Such architecture has been used in the building of
// networks-on-chip and in researches targeting different issues in the NoC
// domain: design methodologies and SoC test planning").
//
// Given an application core graph (cores + directed communication flows
// with bandwidth demands in flits/cycle), place the cores onto topology
// nodes so communication stays local:
//
//  * cost(placement) = sum over flows of bandwidth x routed hop count
//    (Topology::hops, so torus/ring wrap links shorten distances),
//  * link loads are predicted by walking each flow's deterministic route
//    (Topology::routePath) and accumulating demand per directed link,
//  * mapGreedy() seeds a placement by laying cores out in descending
//    total-traffic order around the extent centre; mapAnnealed() improves
//    it with swap-based simulated annealing.
//
// The prediction is validated against the cycle-accurate network by
// attachFlows(), which replays the core graph as per-flow Bernoulli
// traffic (see examples/app_mapping.cpp and tests/noc/appmap_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "sim/rng.hpp"

#include "noc/topology.hpp"

namespace rasoc::noc {

struct CoreGraph {
  struct Core {
    std::string name;
  };
  struct Flow {
    int src = 0;
    int dst = 0;
    double bandwidth = 0.0;  // offered flits/cycle
  };

  std::vector<Core> cores;
  std::vector<Flow> flows;

  int addCore(std::string name);
  void addFlow(int src, int dst, double bandwidth);
  void validate() const;

  // Total bandwidth touching a core (in + out), used for placement order.
  double trafficOf(int core) const;
};

// LinkId (the channel leaving `from` through `port`) lives in
// noc/topology.hpp alongside the routing interface that produces it.

struct MappingResult {
  std::vector<NodeId> placement;  // core index -> topology node
  double hopBandwidth = 0.0;      // sum of bandwidth x hops
  double maxLinkLoad = 0.0;       // worst predicted link load (flits/cycle)
  std::map<LinkId, double> linkLoads;
};

// Replays a placed core graph on the cycle-accurate mesh: one module per
// core, emitting Bernoulli packet traffic per outgoing flow at its
// configured bandwidth.
class FlowReplayer : public sim::Module {
 public:
  struct OutFlow {
    NodeId dst;
    double bandwidth = 0.0;
  };

  FlowReplayer(std::string name, class NetworkInterface& ni,
               std::vector<OutFlow> flows, int payloadFlits,
               std::uint64_t seed);

  std::uint64_t packetsGenerated() const { return packetsGenerated_; }

  // Compiled-kernel lowering: purely sequential (no evaluate()), so the
  // module contributes only its clockEdge() to the edge tape.
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;
  void clockEdge() override;

 private:
  NetworkInterface* ni_;
  std::vector<OutFlow> flows_;
  int payloadFlits_;
  std::uint64_t seed_;
  sim::Xoshiro256 rng_;
  std::uint64_t packetsGenerated_ = 0;
};

// Builds one FlowReplayer per core of a placed graph and registers them
// with the network's simulator.  The returned modules must outlive the
// runs.
std::vector<std::unique_ptr<FlowReplayer>> attachFlows(
    class Network& network, const CoreGraph& graph,
    const MappingResult& mapping, int payloadFlits = 6,
    std::uint64_t seed = 1);

class Mapper {
 public:
  // Places onto the nodes of `topology`, costing flows by its routed
  // distances; the topology must outlive the mapper.
  explicit Mapper(std::shared_ptr<const Topology> topology,
                  std::uint64_t seed = 1);

  // Convenience: a mapper over a standalone 2D mesh of `shape`.
  explicit Mapper(MeshShape shape, std::uint64_t seed = 1);

  // Traffic-descending placement spiralling out from the extent centre.
  MappingResult mapGreedy(const CoreGraph& graph) const;

  // Swap-based simulated annealing starting from the greedy placement.
  MappingResult mapAnnealed(const CoreGraph& graph, int iterations = 2000);

  // Scores an arbitrary placement (must be a permutation prefix of the
  // topology's nodes, one entry per core).
  MappingResult evaluate(const CoreGraph& graph,
                         std::vector<NodeId> placement) const;

  // The directed links an XY-routed packet src -> dst traverses on a plain
  // mesh (kept for callers reasoning about meshes without a topology).
  static std::vector<LinkId> xyPath(NodeId src, NodeId dst);

 private:
  double cost(const CoreGraph& graph,
              const std::vector<NodeId>& placement) const;

  std::shared_ptr<const Topology> topology_;
  sim::Xoshiro256 rng_;
};

}  // namespace rasoc::noc
