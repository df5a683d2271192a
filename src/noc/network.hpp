/// \file
/// Network builder: instantiates one RASoC router per topology node with
/// that node's pruned port set, wires every adjacent port pair with a link,
/// attaches one network interface per Local port, and optionally one
/// traffic generator per node.  All geometry comes from the Topology
/// instance — the builder itself contains no grid arithmetic.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

#include "noc/fault.hpp"
#include "noc/flow_trace.hpp"
#include "noc/ni.hpp"
#include "noc/stats.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"
#include "router/faulty_link.hpp"
#include "router/link.hpp"
#include "router/rasoc.hpp"

namespace rasoc::noc {

/// Everything a Network needs beyond its Topology.
struct NetworkConfig {
  /// Router geometry (flit width n, RIB width m, FIFO depth p, flow
  /// control, routing algorithm); per-node port masks are filled in from
  /// the topology.
  router::RouterParams params{};
  router::ArbiterKind arbiter = router::ArbiterKind::RoundRobin;

  /// Settle kernel for the network's simulator.  Both run one program
  /// lowered from the elaborated network, a word-packed state arena plus
  /// an op tape (see sim/compile.hpp).  Compiled, the default, levelizes
  /// the ops into one pass; Naive, the reference the lockstep suites A/B
  /// it against, repeats them in lowering order to a fixpoint.  The two
  /// are proven bit-identical by noc_kernel_trichotomy_test.
  sim::Simulator::Kernel kernel = sim::Simulator::Kernel::Compiled;

  /// HLP parity in every NI (paper Section 2 extension); costs one data bit
  /// per flit.
  bool hlpParity = false;

  /// End-to-end NI retransmission protocol (noc/reliable.hpp).  Default-off:
  /// runs without it are bit-identical to the unprotected network.
  ReliabilityConfig reliability;

  /// Seed of the fault-injecting links' flip draws (each link derives its
  /// own stream from it).
  std::uint64_t faultSeed = 0xfa17;

  /// Scheduled fault campaign (noc/fault.hpp): links named by the plan are
  /// built as FaultyLink with the plan's corruption / stuck-ack /
  /// link-down windows; every other link is a plain Link.  Uniform
  /// background noise is a Corrupt window over the whole run on every
  /// link (makeFaultPlan's corruptLinkFraction = 1).  Stall and outage
  /// windows require handshake flow control (the builder throws otherwise).
  FaultPlan faultPlan;
};

/// A complete simulated NoC: routers, links, NIs and (optionally) traffic
/// generators over a Topology, plus the delivery ledger and telemetry
/// plumbing shared by benches and tests.
class Network {
 public:
  Network(std::shared_ptr<const Topology> topology, NetworkConfig config);

  /// Adds one traffic generator per node (seeded per node from config.seed).
  void attachTraffic(const TrafficConfig& traffic);

  /// Mixed-class workloads: one generator per (flow, node) pair, flow-major
  /// so flow 0's generators keep the single-flow names and seeds (and
  /// generator(NodeId) keeps returning flow 0's generator at each node).
  /// Flow f > 0 offsets every node seed by f * 104729 so flows draw
  /// independent streams.  Typically paired with RouterParams::qosClasses —
  /// each FlowSpec tags its packets with a TrafficClass — but legal on any
  /// network (classes are ignored without QoS).
  void attachTraffic(const std::vector<FlowSpec>& flows);

  const NetworkConfig& config() const { return config_; }
  const Topology& topology() const { return *topology_; }
  std::shared_ptr<const Topology> topologyPtr() const { return topology_; }

  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }
  router::Rasoc& router(NodeId n);
  NetworkInterface& ni(NodeId n);
  /// Flow 0's generator at `n` (the only flow for single-config traffic).
  TrafficGenerator& generator(NodeId n);
  /// Generator of flow `flow` at `n` (attachTraffic(vector<FlowSpec>)).
  TrafficGenerator& generator(NodeId n, std::size_t flow);
  /// Flows attached per node (0 before attachTraffic).
  std::size_t trafficFlows() const { return trafficFlows_; }

  /// Pauses (or resumes) every attached traffic generator, so sweeps can
  /// close the measurement window and drain() without racing generators
  /// that never go idle.  No-op when no traffic is attached.
  void pauseTraffic(bool paused);
  DeliveryLedger& ledger() { return ledger_; }
  const DeliveryLedger& ledger() const { return ledger_; }

  /// Opt-in observability: attaches the standard per-channel series of every
  /// router and NI to `registry` (naming convention in telemetry/metrics.hpp
  /// and noc/observe.hpp) and registers a per-cycle sampler for network-level
  /// gauges.  Call once, before running; the registry must outlive the
  /// network.
  void enableTelemetry(telemetry::MetricsRegistry& registry);
  const telemetry::MetricsRegistry* metrics() const { return metrics_; }

  /// Opt-in flit-level lifecycle tracing (noc/flow_trace.hpp): hooks every
  /// NI and registers the reconstruction tick listener.  Zero cost when not
  /// called — no router or NI carries trace code on its hot path.  Must run
  /// before the first cycle and before any packet is queued (the tracer's
  /// shadow queues start aligned with the empty network); throws
  /// std::logic_error otherwise or when called twice.
  FlowTracer& enableTracing(TraceConfig config = {});
  FlowTracer* tracer() { return tracer_.get(); }
  const FlowTracer* tracer() const { return tracer_.get(); }

  /// Stall forensics for watchdog snapshots: for every currently blocked
  /// link, its name followed by the last `perLink` retained trace events
  /// touching either endpoint.  Empty when tracing is off.
  std::vector<std::string> blockedLinkTraceDump(std::size_t perLink = 8) const;

  /// Fault-injecting links with their topology ids (empty on ideal links).
  const std::vector<std::pair<LinkId, router::FaultyLink*>>& faultyLinks()
      const {
    return faultyLinks_;
  }

  void reset();
  void run(std::uint64_t cycles);

  /// Runs until every send queue is empty, every queued packet has been
  /// delivered and (under reliability) every frame is acknowledged, or
  /// maxCycles elapse.  Returns true when fully drained.
  bool drain(std::uint64_t maxCycles);

  /// No misroutes, buffer overflows or misdeliveries anywhere.
  bool healthy() const;

  /// Mean / peak utilization over the inter-router links.
  double meanLinkUtilization() const;
  double maxLinkUtilization() const;
  std::size_t linkCount() const { return links_.size(); }

  /// Measured utilization of the directed link leaving `from` through
  /// `port` (throws for links that do not exist on this network).
  double linkUtilization(NodeId from, router::Port port) const;

  /// numVCs > 1 only (throws otherwise): flits currently buffered on
  /// virtual channel `v`, per node in row-major node order, summed over
  /// each node's input ports.  Occupancy heatmaps and credit-conservation
  /// checks read this between cycles.
  std::vector<int> vcOccupancy(int v) const;

  /// Fault-injection / HLP diagnostics aggregated over links and NIs.
  std::uint64_t flitsCorrupted() const;
  std::uint64_t flitsDropped() const;
  std::uint64_t faultStallCycles() const;
  std::uint64_t parityErrorsDetected() const;
  std::uint64_t unattributedPackets() const;

  /// Reliability protocol counters summed over every NI (all-zero when the
  /// protocol is disabled).
  ReliabilityStats reliabilityStats() const;

  /// Names of links currently offering a flit the far side is not
  /// accepting, in deterministic (node, port) order.  Feed to a Watchdog as
  /// its diagnostics callback so stall reports name the wedged links.
  std::vector<std::string> blockedLinkNames() const;

 private:
  std::size_t indexOf(NodeId n) const;

  std::shared_ptr<const Topology> topology_;
  NetworkConfig config_;
  sim::Simulator sim_;
  DeliveryLedger ledger_;
  std::vector<std::unique_ptr<router::Rasoc>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  std::vector<std::unique_ptr<router::Link>> links_;
  std::map<std::pair<int, int>, router::Link*> linkIndex_;  // (node, port)
  // Views into links_, with the topology-level id for metric naming.
  std::vector<std::pair<LinkId, router::FaultyLink*>> faultyLinks_;
  // Flow-major: generators_[f * nodes + i] is flow f's generator at node i.
  std::vector<std::unique_ptr<TrafficGenerator>> generators_;
  std::size_t trafficFlows_ = 0;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<FlowTracer> tracer_;
};

}  // namespace rasoc::noc
