#include "noc/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "noc/observe.hpp"

namespace rasoc::noc {

using router::Port;

namespace {

std::string nodeName(const char* prefix, NodeId n) {
  return std::string(prefix) + "(" + std::to_string(n.x) + "," +
         std::to_string(n.y) + ")";
}

}  // namespace

Network::Network(std::shared_ptr<const Topology> topology,
                 NetworkConfig config)
    : topology_(std::move(topology)), config_(config) {
  if (!topology_) throw std::invalid_argument("network needs a topology");
  topology_->validate();
  topology_->checkAdjacency();

  if (topology_->maxRibOffset() > router::ribMaxOffset(config_.params.m))
    throw std::invalid_argument(
        "topology offsets exceed the RIB range; increase m");

  // Window kinds the flow control cannot carry are rejected by
  // FaultyLink::setWindows as the links are built.
  if (!config_.faultPlan.empty()) config_.faultPlan.validate(*topology_);

  // Routers and NIs, with the per-node port set the topology prescribes.
  for (int i = 0; i < topology_->nodes(); ++i) {
    const NodeId n = topology_->nodeAt(i);
    router::RouterParams params = config_.params;
    params.portMask = topology_->portMask(n);
    auto r = std::make_unique<router::Rasoc>(nodeName("r", n), params,
                                             config_.arbiter,
                                             vcGeometry(*topology_, n));
    NiOptions niOptions;
    niOptions.hlpParity = config_.hlpParity;
    niOptions.reliability = config_.reliability;
    auto ni = std::make_unique<NetworkInterface>(
        nodeName("ni", n), params, topology_, n, r->in(Port::Local),
        r->out(Port::Local), ledger_, niOptions);
    sim_.add(*r);
    sim_.add(*ni);
    routers_.push_back(std::move(r));
    nis_.push_back(std::move(ni));
  }

  // One directed link per (node, outgoing port) pair of the adjacency
  // relation; fault-injecting when the fault plan names it.  Enumerating
  // every node's outgoing ports covers both directions of every physical
  // connection.
  for (int i = 0; i < topology_->nodes(); ++i) {
    const NodeId from = topology_->nodeAt(i);
    for (Port out : router::kAllPorts) {
      if (out == Port::Local) continue;
      const std::optional<NodeId> to = topology_->neighbor(from, out);
      if (!to) continue;
      const std::string linkName =
          nodeName("link", from) + std::string(router::name(out));
      const LinkId linkId{from, out};
      std::vector<router::FaultWindow> windows =
          config_.faultPlan.windowsFor(linkId);
      std::unique_ptr<router::Link> link;
      if (!windows.empty()) {
        auto faulty = std::make_unique<router::FaultyLink>(
            linkName, routers_[indexOf(from)]->out(out),
            routers_[indexOf(*to)]->in(router::opposite(out)),
            config_.params.n, config_.faultSeed + links_.size() * 131 + 7,
            config_.params.flowControl, config_.params.numVCs);
        faulty->setWindows(std::move(windows));
        faultyLinks_.emplace_back(linkId, faulty.get());
        link = std::move(faulty);
      } else {
        link = std::make_unique<router::Link>(
            linkName, routers_[indexOf(from)]->out(out),
            routers_[indexOf(*to)]->in(router::opposite(out)),
            config_.params.flowControl, config_.params.numVCs);
      }
      sim_.add(*link);
      linkIndex_[{topology_->indexOf(from), router::index(out)}] = link.get();
      links_.push_back(std::move(link));
    }
  }

  // Worst-case combinational propagation spans the network diameter; give
  // the naive settle loop generous headroom.
  const Extent extent = topology_->extent();
  sim_.setMaxSettleIterations(32 + 8 * (extent.width + extent.height));
  sim_.setKernel(config_.kernel);
  sim_.reset();
}

void Network::attachTraffic(const TrafficConfig& traffic) {
  FlowSpec flow;
  flow.trafficClass = traffic.trafficClass;
  flow.traffic = traffic;
  attachTraffic(std::vector<FlowSpec>{flow});
}

void Network::attachTraffic(const std::vector<FlowSpec>& flows) {
  if (!generators_.empty())
    throw std::logic_error("traffic generators already attached");
  if (flows.empty())
    throw std::invalid_argument("attachTraffic: empty flow list");
  for (const FlowSpec& flow : flows)
    validateTraffic(flow.traffic, *topology_);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    // Flow 0 keeps the legacy names and per-node seeds so single-flow
    // attachTraffic(TrafficConfig) callers see bit-identical runs.
    const std::string prefix =
        f == 0 ? std::string("tg") : "tg" + std::to_string(f) + ".";
    for (int i = 0; i < topology_->nodes(); ++i) {
      const NodeId n = topology_->nodeAt(i);
      TrafficConfig cfg = flows[f].traffic;
      cfg.trafficClass = flows[f].trafficClass;
      cfg.seed = flows[f].traffic.seed * 7919 + static_cast<std::uint64_t>(i) +
                 1 + f * 104729;
      auto gen = std::make_unique<TrafficGenerator>(
          nodeName(prefix.c_str(), n), topology_, n,
          *nis_[static_cast<std::size_t>(i)], cfg);
      sim_.add(*gen);
      generators_.push_back(std::move(gen));
    }
  }
  trafficFlows_ = flows.size();
}

void Network::pauseTraffic(bool paused) {
  for (auto& gen : generators_) gen->setPaused(paused);
}

void Network::enableTelemetry(telemetry::MetricsRegistry& registry) {
  if (metrics_) throw std::logic_error("telemetry already enabled");
  metrics_ = &registry;
  for (int i = 0; i < topology_->nodes(); ++i) {
    const NodeId n = topology_->nodeAt(i);
    routers_[static_cast<std::size_t>(i)]->attachMetrics(
        registry, routerMetricPrefix(n));
    const std::string prefix = niMetricPrefix(n) + ".";
    NiMetrics nm;
    nm.flitsInjected = &registry.counter(prefix + "flits_injected");
    nm.flitsEjected = &registry.counter(prefix + "flits_ejected");
    nm.backpressureCycles = &registry.counter(prefix + "backpressure_cycles");
    nm.sendQueueFlits =
        &registry.histogram(prefix + "send_queue_flits",
                            telemetry::Histogram::linearBounds(16));
    if (config_.reliability.enabled) {
      nm.retransmits = &registry.counter(prefix + "retransmits");
      nm.timeouts = &registry.counter(prefix + "timeouts");
      nm.duplicatesDropped =
          &registry.counter(prefix + "duplicates_dropped");
    }
    nis_[static_cast<std::size_t>(i)]->attachMetrics(nm);
  }
  // Per-link fault counters (only links that can actually fault).
  for (const auto& [id, link] : faultyLinks_) {
    const std::string prefix = linkMetricPrefix(id) + ".";
    router::FaultyLinkMetrics fm;
    fm.flitsCorrupted = &registry.counter(prefix + "flits_corrupted");
    fm.flitsDropped = &registry.counter(prefix + "flits_dropped");
    fm.stallCycles = &registry.counter(prefix + "stall_cycles");
    link->attachMetrics(fm);
  }
  // Per-VC buffered-flit gauges: the occupancy heatmap's time series.
  if (config_.params.numVCs > 1) {
    std::vector<telemetry::Gauge*> vcGauges;
    for (int v = 0; v < config_.params.numVCs; ++v)
      vcGauges.push_back(
          &registry.gauge("net.vc" + std::to_string(v) + ".buffered_flits"));
    sim_.addTickListener([this, vcGauges] {
      for (int v = 0; v < config_.params.numVCs; ++v) {
        long total = 0;
        for (int c : vcOccupancy(v)) total += c;
        vcGauges[static_cast<std::size_t>(v)]->sample(
            static_cast<double>(total));
      }
    });
  }
  // Per-class QoS gauges: injection-queue depth and delivered totals per
  // traffic class, so isolation regressions show up in time series (a
  // Control queue that grows under a Bulk flood is the failure signature).
  if (config_.params.qosClasses) {
    std::vector<telemetry::Gauge*> classQueued;
    std::vector<telemetry::Gauge*> classDelivered;
    for (int c = 0; c < router::kNumTrafficClasses; ++c) {
      const std::string prefix =
          "net.qos." +
          std::string(router::name(static_cast<router::TrafficClass>(c)));
      classQueued.push_back(&registry.gauge(prefix + ".queued_packets"));
      classDelivered.push_back(
          &registry.gauge(prefix + ".delivered_packets"));
    }
    sim_.addTickListener([this, classQueued, classDelivered] {
      for (int c = 0; c < router::kNumTrafficClasses; ++c) {
        const auto cls = static_cast<router::TrafficClass>(c);
        std::size_t queued = 0;
        for (const auto& ni : nis_) queued += ni->sendQueuePackets(cls);
        classQueued[static_cast<std::size_t>(c)]->sample(
            static_cast<double>(queued));
        classDelivered[static_cast<std::size_t>(c)]->sample(
            static_cast<double>(ledger_.delivered(cls)));
      }
    });
  }
  // Network-level gauges, sampled once per committed cycle through the
  // simulator tick hook.
  telemetry::Gauge* inFlight = &registry.gauge("mesh.in_flight_packets");
  telemetry::Gauge* queuedFlits = &registry.gauge("mesh.send_queue_flits");
  sim_.addTickListener([this, inFlight, queuedFlits] {
    inFlight->sample(static_cast<double>(ledger_.inFlight()));
    std::size_t total = 0;
    for (const auto& ni : nis_) total += ni->sendQueueFlits();
    queuedFlits->sample(static_cast<double>(total));
  });
  if (config_.reliability.enabled) {
    telemetry::Gauge* unacked =
        &registry.gauge("net.reliability.unacked_frames");
    telemetry::Gauge* backlog =
        &registry.gauge("net.reliability.backlog_frames");
    sim_.addTickListener([this, unacked, backlog] {
      std::size_t unackedTotal = 0;
      std::size_t backlogTotal = 0;
      for (const auto& ni : nis_) {
        if (const ReliableTransport* t = ni->transport()) {
          unackedTotal += t->unackedFrames();
          backlogTotal += t->backlogFrames();
        }
      }
      unacked->sample(static_cast<double>(unackedTotal));
      backlog->sample(static_cast<double>(backlogTotal));
    });
  }
}

std::size_t Network::indexOf(NodeId n) const {
  return static_cast<std::size_t>(topology_->indexOf(n));
}

router::Rasoc& Network::router(NodeId n) { return *routers_[indexOf(n)]; }

NetworkInterface& Network::ni(NodeId n) { return *nis_[indexOf(n)]; }

TrafficGenerator& Network::generator(NodeId n) {
  if (generators_.empty()) throw std::logic_error("no traffic attached");
  return *generators_[indexOf(n)];
}

TrafficGenerator& Network::generator(NodeId n, std::size_t flow) {
  if (flow >= trafficFlows_)
    throw std::out_of_range("generator: flow outside [0, trafficFlows)");
  return *generators_[flow * static_cast<std::size_t>(topology_->nodes()) +
                      indexOf(n)];
}

FlowTracer& Network::enableTracing(TraceConfig config) {
  if (tracer_) throw std::logic_error("tracing already enabled");
  if (config_.params.numVCs > 1)
    throw std::logic_error(
        "flow tracing does not support numVCs > 1 yet: the reconstruction "
        "contract (noc/flow_trace.hpp) assumes one FIFO per input port");
  if (sim_.cycle() != 0)
    throw std::logic_error(
        "enableTracing must be called before the first cycle");
  for (const auto& ni : nis_) {
    if (ni->sendQueuePackets() != 0)
      throw std::logic_error(
          "enableTracing must be called before any packet is queued");
  }
  tracer_ = std::make_unique<FlowTracer>(*this, config);
  for (auto& ni : nis_) ni->setTracer(tracer_.get());
  sim_.addTickListener([this] { tracer_->onTick(); });
  return *tracer_;
}

std::vector<std::string> Network::blockedLinkTraceDump(
    std::size_t perLink) const {
  std::vector<std::string> lines;
  if (!tracer_) return lines;
  for (const auto& [key, link] : linkIndex_) {
    if (!link->blocked()) continue;
    lines.push_back(link->name() + ":");
    const auto events =
        tracer_->recentLinkEvents(topology_->nodeAt(key.first),
                                  static_cast<Port>(key.second), perLink);
    if (events.empty()) lines.push_back("  (no traced events)");
    for (const auto& ev : events)
      lines.push_back("  " + telemetry::describe(ev));
  }
  return lines;
}

void Network::reset() {
  sim_.reset();
  if (tracer_) tracer_->clear();
}

void Network::run(std::uint64_t cycles) { sim_.run(cycles); }

bool Network::drain(std::uint64_t maxCycles) {
  return sim_.runUntil(
      [&] {
        if (ledger_.inFlight() != 0) return false;
        for (const auto& ni : nis_)
          if (!ni->idle()) return false;
        return true;
      },
      maxCycles);
}

bool Network::healthy() const {
  for (const auto& r : routers_)
    if (r->misrouteDetected() || r->overflowDetected()) return false;
  for (const auto& ni : nis_)
    if (ni->misdeliveryDetected()) return false;
  return true;
}

double Network::meanLinkUtilization() const {
  if (links_.empty() || sim_.cycle() == 0) return 0.0;
  double sum = 0.0;
  for (const auto& link : links_) sum += link->utilization(sim_.cycle());
  return sum / static_cast<double>(links_.size());
}

double Network::linkUtilization(NodeId from, router::Port port) const {
  const auto it =
      linkIndex_.find({topology_->indexOf(from), router::index(port)});
  if (it == linkIndex_.end())
    throw std::out_of_range("no such link on this network");
  if (sim_.cycle() == 0) return 0.0;  // no cycles observed yet
  return it->second->utilization(sim_.cycle());
}

std::vector<int> Network::vcOccupancy(int v) const {
  if (config_.params.numVCs <= 1)
    throw std::logic_error("vcOccupancy requires numVCs > 1");
  if (v < 0 || v >= config_.params.numVCs)
    throw std::out_of_range("vcOccupancy: VC outside [0, numVCs)");
  std::vector<int> per(routers_.size(), 0);
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    const router::Rasoc& r = *routers_[i];
    for (Port p : router::kAllPorts) {
      if (!r.params().hasPort(p)) continue;
      per[i] += r.vcInputChannel(p).occupancy(v);
    }
  }
  return per;
}

std::uint64_t Network::flitsCorrupted() const {
  std::uint64_t total = 0;
  for (const auto& [id, link] : faultyLinks_) total += link->flitsCorrupted();
  return total;
}

std::uint64_t Network::flitsDropped() const {
  std::uint64_t total = 0;
  for (const auto& [id, link] : faultyLinks_) total += link->flitsDropped();
  return total;
}

std::uint64_t Network::faultStallCycles() const {
  std::uint64_t total = 0;
  for (const auto& [id, link] : faultyLinks_) total += link->stallCycles();
  return total;
}

ReliabilityStats Network::reliabilityStats() const {
  ReliabilityStats total;
  for (const auto& ni : nis_) {
    if (const ReliabilityStats* s = ni->reliabilityStats()) total += *s;
  }
  return total;
}

std::vector<std::string> Network::blockedLinkNames() const {
  std::vector<std::string> names;
  for (const auto& [key, link] : linkIndex_) {
    if (link->blocked()) names.push_back(link->name());
  }
  return names;
}

std::uint64_t Network::parityErrorsDetected() const {
  std::uint64_t total = 0;
  for (const auto& ni : nis_) total += ni->parityErrors();
  return total;
}

std::uint64_t Network::unattributedPackets() const {
  std::uint64_t total = 0;
  for (const auto& ni : nis_) total += ni->unattributedPackets();
  return total;
}

double Network::maxLinkUtilization() const {
  if (links_.empty() || sim_.cycle() == 0) return 0.0;
  double peak = 0.0;
  for (const auto& link : links_)
    peak = std::max(peak, link->utilization(sim_.cycle()));
  return peak;
}

}  // namespace rasoc::noc
