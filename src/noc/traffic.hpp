// Synthetic traffic generation for NoC evaluation (the workloads used by
// the SPIN/CLICHE-era NoC literature the paper builds on).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/module.hpp"
#include "sim/rng.hpp"

#include "noc/ni.hpp"
#include "noc/topology.hpp"

namespace rasoc::noc {

enum class TrafficPattern {
  UniformRandom,   // destination uniform over all other nodes
  Transpose,       // (x,y) -> (y,x); requires a square mesh
  BitComplement,   // (x,y) -> (W-1-x, H-1-y)
  HotSpot,         // a fraction of traffic targets one hot node
  NearestNeighbor  // East neighbour with wrap to column 0
};

std::string_view name(TrafficPattern pattern);

struct TrafficConfig {
  TrafficPattern pattern = TrafficPattern::UniformRandom;
  // Offered load in flits per cycle per node (0..1: a link carries at most
  // one flit per cycle).
  double offeredLoad = 0.1;
  // Payload words per packet, excluding header and source-index flits.
  int payloadFlits = 6;
  // HotSpot only: the hot node and the probability of targeting it.
  NodeId hotspot{0, 0};
  double hotspotFraction = 0.5;
  std::uint64_t seed = 1;
  // Source-queue cap in packets; generation pauses when the NI is this far
  // behind (models finite-core injection and keeps saturation runs stable).
  std::size_t maxQueuedPackets = 4;
  // QoS class the generated packets are tagged with.  Only honoured on
  // networks built with RouterParams::qosClasses; ignored (and harmless)
  // otherwise.  On a QoS network the throttle above is per class: a Bulk
  // flood backing up its own inject queue must not silence a Control
  // generator sharing the same NI.
  router::TrafficClass trafficClass = router::TrafficClass::BestEffort;

  int packetFlits() const { return payloadFlits + 2; }
};

// One flow of a mixed-class workload: a traffic config plus the class its
// packets ride.  Network::attachTraffic(vector<FlowSpec>) builds one
// generator per (flow, node) pair, so e.g. a low-rate Control flow and a
// saturating Bulk flood can share every node.
struct FlowSpec {
  router::TrafficClass trafficClass = router::TrafficClass::BestEffort;
  TrafficConfig traffic;
};

// Throws std::invalid_argument, naming the parameter, unless `config` can
// run on `topology`: offeredLoad and hotspotFraction lie in [0,1] (NaN
// fails), payloadFlits >= 1, Transpose has a square extent, UniformRandom
// and HotSpot have at least two nodes, and a HotSpot target is a node of
// the topology.  Called by Network::attachTraffic, the TrafficGenerator
// constructor and the baseline interconnects' attachTraffic, so every
// traffic source rejects a bad configuration before any packet is drawn.
void validateTraffic(const TrafficConfig& config, const Topology& topology);

// Destination for one packet from `src` under a pattern; may return src for
// patterns with fixed points (callers skip those injections).
NodeId destinationFor(TrafficPattern pattern, NodeId src,
                      const Topology& topology, sim::Xoshiro256& rng,
                      const TrafficConfig& config);

// Bernoulli packet source attached to one NI.
class TrafficGenerator : public sim::Module {
 public:
  // The topology defines the destination space; it must outlive the
  // generator (the shared_ptr keeps it alive).
  TrafficGenerator(std::string name,
                   std::shared_ptr<const Topology> topology, NodeId self,
                   NetworkInterface& ni, TrafficConfig config);

  std::uint64_t packetsGenerated() const { return packetsGenerated_; }
  std::uint64_t injectionsSkipped() const { return injectionsSkipped_; }

  // Stops offering load while paused (no injections, no RNG draws).  Lets
  // sweeps end the measurement window and drain the network instead of
  // racing generators that never go idle.  Cleared by reset.
  void setPaused(bool paused) { paused_ = paused; }
  bool paused() const { return paused_; }

  // Lowering: purely sequential (no evaluate()), so the
  // module contributes only its clockEdge() to the edge tape.
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;
  void clockEdge() override;

 private:
  std::shared_ptr<const Topology> topology_;
  NodeId self_;
  NetworkInterface* ni_;
  TrafficConfig config_;
  double packetProbability_;
  sim::Xoshiro256 rng_;
  std::uint64_t packetsGenerated_ = 0;
  std::uint64_t injectionsSkipped_ = 0;
  bool paused_ = false;
};

}  // namespace rasoc::noc
