#include "noc/appmap.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sim/compile.hpp"

#include "noc/network.hpp"
#include "noc/ni.hpp"

namespace rasoc::noc {

FlowReplayer::FlowReplayer(std::string name, NetworkInterface& ni,
                           std::vector<OutFlow> flows, int payloadFlits,
                           std::uint64_t seed)
    : Module(std::move(name)),
      ni_(&ni),
      flows_(std::move(flows)),
      payloadFlits_(payloadFlits),
      seed_(seed),
      rng_(seed) {
  if (payloadFlits_ < 1)
    throw std::invalid_argument("payloadFlits must be >= 1");
}

void FlowReplayer::onReset() {
  rng_ = sim::Xoshiro256(seed_);
  packetsGenerated_ = 0;
}

bool FlowReplayer::describe(sim::Lowering& lw) {
  lw.edgeCall(*this);
  return true;
}

void FlowReplayer::clockEdge() {
  for (const OutFlow& flow : flows_) {
    const double packetProbability =
        flow.bandwidth / static_cast<double>(payloadFlits_ + 2);
    if (!rng_.chance(packetProbability)) continue;
    if (ni_->sendQueuePackets() >= 8) continue;  // finite injection queue
    std::vector<std::uint32_t> payload;
    payload.reserve(static_cast<std::size_t>(payloadFlits_));
    for (int i = 0; i < payloadFlits_; ++i)
      payload.push_back(static_cast<std::uint32_t>(rng_.next()));
    ni_->send(flow.dst, payload);
    ++packetsGenerated_;
  }
}

std::vector<std::unique_ptr<FlowReplayer>> attachFlows(
    Network& network, const CoreGraph& graph, const MappingResult& mapping,
    int payloadFlits, std::uint64_t seed) {
  graph.validate();
  if (mapping.placement.size() != graph.cores.size())
    throw std::invalid_argument("mapping does not cover every core");
  std::vector<std::unique_ptr<FlowReplayer>> replayers;
  for (std::size_t core = 0; core < graph.cores.size(); ++core) {
    std::vector<FlowReplayer::OutFlow> out;
    for (const CoreGraph::Flow& flow : graph.flows) {
      if (static_cast<std::size_t>(flow.src) != core) continue;
      out.push_back(FlowReplayer::OutFlow{
          mapping.placement[static_cast<std::size_t>(flow.dst)],
          flow.bandwidth});
    }
    if (out.empty()) continue;
    const NodeId at = mapping.placement[core];
    auto replayer = std::make_unique<FlowReplayer>(
        "flow:" + graph.cores[core].name, network.ni(at), std::move(out),
        payloadFlits, seed * 131 + core + 1);
    network.simulator().add(*replayer);
    replayers.push_back(std::move(replayer));
  }
  return replayers;
}

int CoreGraph::addCore(std::string name) {
  cores.push_back(Core{std::move(name)});
  return static_cast<int>(cores.size()) - 1;
}

void CoreGraph::addFlow(int src, int dst, double bandwidth) {
  flows.push_back(Flow{src, dst, bandwidth});
}

void CoreGraph::validate() const {
  const int n = static_cast<int>(cores.size());
  for (const Flow& flow : flows) {
    if (flow.src < 0 || flow.src >= n || flow.dst < 0 || flow.dst >= n)
      throw std::invalid_argument("flow references an unknown core");
    if (flow.src == flow.dst)
      throw std::invalid_argument("flow must connect two distinct cores");
    if (!(flow.bandwidth >= 0.0 && flow.bandwidth <= 1.0))
      throw std::invalid_argument("flow bandwidth must be in [0,1]");
  }
}

double CoreGraph::trafficOf(int core) const {
  double total = 0.0;
  for (const Flow& flow : flows) {
    if (flow.src == core || flow.dst == core) total += flow.bandwidth;
  }
  return total;
}

Mapper::Mapper(std::shared_ptr<const Topology> topology, std::uint64_t seed)
    : topology_(std::move(topology)), rng_(seed) {
  if (!topology_) throw std::invalid_argument("mapper needs a topology");
  topology_->validate();
}

Mapper::Mapper(MeshShape shape, std::uint64_t seed)
    : Mapper(std::make_shared<MeshTopology>(shape), seed) {}

std::vector<LinkId> Mapper::xyPath(NodeId src, NodeId dst) {
  std::vector<LinkId> path;
  NodeId at = src;
  while (at.x != dst.x) {
    const bool east = dst.x > at.x;
    path.push_back(LinkId{at, east ? router::Port::East : router::Port::West});
    at.x += east ? 1 : -1;
  }
  while (at.y != dst.y) {
    const bool north = dst.y > at.y;
    path.push_back(
        LinkId{at, north ? router::Port::North : router::Port::South});
    at.y += north ? 1 : -1;
  }
  return path;
}

double Mapper::cost(const CoreGraph& graph,
                    const std::vector<NodeId>& placement) const {
  double total = 0.0;
  for (const CoreGraph::Flow& flow : graph.flows) {
    const NodeId a = placement[static_cast<std::size_t>(flow.src)];
    const NodeId b = placement[static_cast<std::size_t>(flow.dst)];
    total += flow.bandwidth * static_cast<double>(topology_->hops(a, b));
  }
  return total;
}

MappingResult Mapper::evaluate(const CoreGraph& graph,
                               std::vector<NodeId> placement) const {
  graph.validate();
  if (placement.size() != graph.cores.size())
    throw std::invalid_argument("placement size must match core count");
  std::vector<int> used;
  for (NodeId n : placement) {
    if (!topology_->contains(n))
      throw std::invalid_argument("placement node outside the topology");
    used.push_back(topology_->indexOf(n));
  }
  std::sort(used.begin(), used.end());
  if (std::adjacent_find(used.begin(), used.end()) != used.end())
    throw std::invalid_argument("two cores mapped to the same node");

  MappingResult result;
  result.placement = std::move(placement);
  result.hopBandwidth = cost(graph, result.placement);
  for (const CoreGraph::Flow& flow : graph.flows) {
    const NodeId a = result.placement[static_cast<std::size_t>(flow.src)];
    const NodeId b = result.placement[static_cast<std::size_t>(flow.dst)];
    for (const LinkId& link : topology_->routePath(a, b))
      result.linkLoads[link] += flow.bandwidth;
  }
  for (const auto& [link, load] : result.linkLoads)
    result.maxLinkLoad = std::max(result.maxLinkLoad, load);
  return result;
}

MappingResult Mapper::mapGreedy(const CoreGraph& graph) const {
  graph.validate();
  const int coreCount = static_cast<int>(graph.cores.size());
  if (coreCount > topology_->nodes())
    throw std::invalid_argument("more cores than topology nodes");

  // Cores in descending traffic order.
  std::vector<int> order(static_cast<std::size_t>(coreCount));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return graph.trafficOf(a) > graph.trafficOf(b);
  });

  // Nodes in ascending distance from the extent centre, so the hottest
  // cores sit where average distance to everyone else is least (on a
  // torus/ring every node is equivalent; the ordering is then just a
  // deterministic tie-break).
  std::vector<NodeId> nodes;
  for (int i = 0; i < topology_->nodes(); ++i)
    nodes.push_back(topology_->nodeAt(i));
  const Extent extent = topology_->extent();
  const double cx = (extent.width - 1) / 2.0;
  const double cy = (extent.height - 1) / 2.0;
  std::stable_sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    const double da = std::abs(a.x - cx) + std::abs(a.y - cy);
    const double db = std::abs(b.x - cx) + std::abs(b.y - cy);
    return da < db;
  });

  std::vector<NodeId> placement(static_cast<std::size_t>(coreCount));
  for (int i = 0; i < coreCount; ++i)
    placement[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        nodes[static_cast<std::size_t>(i)];
  return evaluate(graph, std::move(placement));
}

MappingResult Mapper::mapAnnealed(const CoreGraph& graph, int iterations) {
  MappingResult best = mapGreedy(graph);
  std::vector<NodeId> current = best.placement;
  double currentCost = best.hopBandwidth;

  // Candidate nodes: all of them, so cores can also move to empty slots.
  std::vector<NodeId> nodes;
  for (int i = 0; i < topology_->nodes(); ++i)
    nodes.push_back(topology_->nodeAt(i));

  const double startTemp = std::max(1.0, currentCost / 4.0);
  for (int iter = 0; iter < iterations; ++iter) {
    const double temp =
        startTemp * (1.0 - static_cast<double>(iter) / iterations) + 1e-6;

    std::vector<NodeId> candidate = current;
    const auto core = static_cast<std::size_t>(
        rng_.below(candidate.size()));
    const NodeId target =
        nodes[static_cast<std::size_t>(rng_.below(nodes.size()))];
    // If another core already sits there, swap; otherwise move.
    bool swapped = false;
    for (auto& node : candidate) {
      if (node == target) {
        std::swap(node, candidate[core]);
        swapped = true;
        break;
      }
    }
    if (!swapped) candidate[core] = target;

    const double candidateCost = cost(graph, candidate);
    const double delta = candidateCost - currentCost;
    if (delta <= 0.0 || rng_.chance(std::exp(-delta / temp))) {
      current = std::move(candidate);
      currentCost = candidateCost;
      if (currentCost < best.hopBandwidth) {
        best = evaluate(graph, current);
      }
    }
  }
  return best;
}

}  // namespace rasoc::noc
