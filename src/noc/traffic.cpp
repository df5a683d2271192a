#include "noc/traffic.hpp"

#include <stdexcept>
#include <string>

#include "sim/compile.hpp"

namespace rasoc::noc {

std::string_view name(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::UniformRandom: return "uniform";
    case TrafficPattern::Transpose: return "transpose";
    case TrafficPattern::BitComplement: return "complement";
    case TrafficPattern::HotSpot: return "hotspot";
    case TrafficPattern::NearestNeighbor: return "neighbor";
  }
  return "?";
}

namespace {

// The topology half of validateTraffic; destinationFor repeats it for the
// patterns whose draw would otherwise go out of range.
void validatePattern(TrafficPattern pattern, const Topology& topology,
                     const TrafficConfig& config) {
  const Extent extent = topology.extent();
  switch (pattern) {
    case TrafficPattern::UniformRandom:
      if (topology.nodes() < 2)
        throw std::invalid_argument("uniform traffic needs >= 2 nodes");
      return;
    case TrafficPattern::Transpose:
      if (extent.width != extent.height)
        throw std::invalid_argument(
            "transpose traffic needs a square extent, but " +
            topology.describe() + " is " + std::to_string(extent.width) +
            "x" + std::to_string(extent.height) +
            "; use BitComplement on rings");
      return;
    case TrafficPattern::BitComplement:
      return;  // the mirrored node exists in every extent
    case TrafficPattern::HotSpot:
      if (!topology.contains(config.hotspot))
        throw std::invalid_argument(
            "hotspot (" + std::to_string(config.hotspot.x) + "," +
            std::to_string(config.hotspot.y) + ") is not a node of " +
            topology.describe());
      if (topology.nodes() < 2)
        throw std::invalid_argument("hotspot traffic needs >= 2 nodes");
      return;
    case TrafficPattern::NearestNeighbor:
      return;  // the eastward wrap target exists in every extent
  }
  throw std::logic_error("unknown traffic pattern");
}

}  // namespace

void validateTraffic(const TrafficConfig& config, const Topology& topology) {
  // Written as negated ranges so NaN fails each check.
  if (!(config.offeredLoad >= 0.0 && config.offeredLoad <= 1.0))
    throw std::invalid_argument("offeredLoad must be in [0,1] flits/cycle");
  if (config.payloadFlits < 1)
    throw std::invalid_argument(
        "payloadFlits must be >= 1 (got " +
        std::to_string(config.payloadFlits) +
        "): a packet needs at least one payload flit");
  if (!(config.hotspotFraction >= 0.0 && config.hotspotFraction <= 1.0))
    throw std::invalid_argument(
        "hotspotFraction must be in [0,1] (the probability of targeting "
        "the hot spot)");
  validatePattern(config.pattern, topology, config);
}

NodeId destinationFor(TrafficPattern pattern, NodeId src,
                      const Topology& topology, sim::Xoshiro256& rng,
                      const TrafficConfig& config) {
  const Extent extent = topology.extent();
  switch (pattern) {
    case TrafficPattern::UniformRandom: {
      if (topology.nodes() < 2)
        throw std::invalid_argument("uniform traffic needs >= 2 nodes");
      // Uniform over the other nodes: draw from nodes-1 and skip self.
      int pick = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(topology.nodes() - 1)));
      if (pick >= topology.indexOf(src)) ++pick;
      return topology.nodeAt(pick);
    }
    case TrafficPattern::Transpose:
      validatePattern(pattern, topology, config);
      return NodeId{src.y, src.x};
    case TrafficPattern::BitComplement:
      return NodeId{extent.width - 1 - src.x, extent.height - 1 - src.y};
    case TrafficPattern::HotSpot: {
      validatePattern(pattern, topology, config);
      if (rng.chance(config.hotspotFraction)) return config.hotspot;
      TrafficConfig uniform = config;
      return destinationFor(TrafficPattern::UniformRandom, src, topology, rng,
                            uniform);
    }
    case TrafficPattern::NearestNeighbor:
      return NodeId{(src.x + 1) % extent.width, src.y};
  }
  throw std::logic_error("unknown traffic pattern");
}

TrafficGenerator::TrafficGenerator(std::string name,
                                   std::shared_ptr<const Topology> topology,
                                   NodeId self, NetworkInterface& ni,
                                   TrafficConfig config)
    : Module(std::move(name)),
      topology_(std::move(topology)),
      self_(self),
      ni_(&ni),
      config_(config),
      packetProbability_(config.offeredLoad /
                         static_cast<double>(config.packetFlits())),
      rng_(config.seed) {
  if (!topology_) throw std::invalid_argument("generator needs a topology");
  validateTraffic(config_, *topology_);
  topology_->indexOf(self_);  // bounds-check our own address
}

void TrafficGenerator::onReset() {
  rng_ = sim::Xoshiro256(config_.seed);
  packetsGenerated_ = 0;
  injectionsSkipped_ = 0;
  paused_ = false;
}

void TrafficGenerator::clockEdge() {
  if (paused_) return;
  if (!rng_.chance(packetProbability_)) return;
  // On a QoS network the throttle watches only this flow's class queue, so
  // a saturated Bulk queue cannot silence a Control generator on the same
  // NI — per-class injection isolation starts at the source.
  const std::size_t queued =
      ni_->qosEnabled() ? ni_->sendQueuePackets(config_.trafficClass)
                        : ni_->sendQueuePackets();
  if (queued >= config_.maxQueuedPackets) {
    ++injectionsSkipped_;
    return;
  }
  const NodeId dst = destinationFor(config_.pattern, self_, *topology_, rng_,
                                    config_);
  if (dst == self_) return;  // pattern fixed point: nothing to send
  std::vector<std::uint32_t> payload;
  payload.reserve(static_cast<std::size_t>(config_.payloadFlits));
  for (int i = 0; i < config_.payloadFlits; ++i)
    payload.push_back(static_cast<std::uint32_t>(rng_.next()));
  ni_->send(dst, payload, config_.trafficClass);
  ++packetsGenerated_;
}

bool TrafficGenerator::describe(sim::Lowering& lw) {
  lw.edgeCall(*this);
  return true;
}

}  // namespace rasoc::noc
