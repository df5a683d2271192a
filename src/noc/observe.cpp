#include "noc/observe.hpp"

#include <string>

#include "sim/compile.hpp"

namespace rasoc::noc {

namespace {

// `prefix` followed by "<x>,<y>", built by appending: GCC 12 -O3 reports
// a false -Wrestrict overlap for `"literal" + std::string`.
std::string withCoord(std::string prefix, NodeId n) {
  prefix += std::to_string(n.x);
  prefix += ',';
  prefix += std::to_string(n.y);
  return prefix;
}

double safeRate(std::uint64_t count, double denominator) {
  return denominator > 0.0 ? static_cast<double>(count) / denominator : 0.0;
}

}  // namespace

std::string routerMetricPrefix(NodeId n) { return withCoord("r", n); }

std::string niMetricPrefix(NodeId n) { return withCoord("ni", n); }

std::string linkMetricPrefix(const LinkId& l) {
  return withCoord("link", l.from) + std::string(router::name(l.port));
}

telemetry::MeshHeatmap throughputHeatmap(
    const telemetry::MetricsRegistry& registry, const Topology& topology,
    std::uint64_t cycles) {
  const Extent extent = topology.extent();
  telemetry::MeshHeatmap map(extent.width, extent.height, "flits_per_cycle");
  for (int i = 0; i < topology.nodes(); ++i) {
    const NodeId n = topology.nodeAt(i);
    map.set(n.x, n.y,
            safeRate(registry.counterValue(routerMetricPrefix(n) +
                                           ".flits_routed"),
                     static_cast<double>(cycles)));
  }
  return map;
}

telemetry::MeshHeatmap congestionHeatmap(
    const telemetry::MetricsRegistry& registry, const Topology& topology,
    std::uint64_t cycles) {
  const Extent extent = topology.extent();
  telemetry::MeshHeatmap map(extent.width, extent.height, "congestion");
  for (int i = 0; i < topology.nodes(); ++i) {
    const NodeId n = topology.nodeAt(i);
    const std::string prefix = routerMetricPrefix(n) + ".";
    const unsigned mask = topology.portMask(n);
    std::uint64_t lost = 0;
    int channels = 0;
    for (router::Port p : router::kAllPorts) {
      if (((mask >> router::index(p)) & 1u) == 0) continue;
      const std::string port(router::name(p));
      lost += registry.counterValue(prefix + port + "in.full_cycles");
      lost += registry.counterValue(prefix + port + "in.stall_cycles");
      lost += registry.counterValue(prefix + port + "out.conflict_cycles");
      ++channels;
    }
    map.set(n.x, n.y,
            safeRate(lost, static_cast<double>(cycles) * channels));
  }
  return map;
}

telemetry::MeshHeatmap backpressureHeatmap(
    const telemetry::MetricsRegistry& registry, const Topology& topology,
    std::uint64_t cycles) {
  const Extent extent = topology.extent();
  telemetry::MeshHeatmap map(extent.width, extent.height, "ni_backpressure");
  for (int i = 0; i < topology.nodes(); ++i) {
    const NodeId n = topology.nodeAt(i);
    map.set(n.x, n.y,
            safeRate(registry.counterValue(niMetricPrefix(n) +
                                           ".backpressure_cycles"),
                     static_cast<double>(cycles)));
  }
  return map;
}

telemetry::MeshHeatmap faultHeatmap(
    const telemetry::MetricsRegistry& registry, const Topology& topology,
    std::uint64_t cycles) {
  const Extent extent = topology.extent();
  telemetry::MeshHeatmap map(extent.width, extent.height, "link_faults");
  for (int i = 0; i < topology.nodes(); ++i) {
    const NodeId n = topology.nodeAt(i);
    std::uint64_t events = 0;
    for (router::Port p : router::kAllPorts) {
      if (p == router::Port::Local) continue;
      if (!topology.neighbor(n, p)) continue;
      const std::string prefix = linkMetricPrefix({n, p}) + ".";
      events += registry.counterValue(prefix + "flits_corrupted");
      events += registry.counterValue(prefix + "flits_dropped");
      events += registry.counterValue(prefix + "stall_cycles");
    }
    map.set(n.x, n.y, safeRate(events, static_cast<double>(cycles)));
  }
  return map;
}

telemetry::RunReport buildRunReport(std::string name, const Network& network,
                                    const Watchdog* watchdog) {
  telemetry::RunReport report(std::move(name));
  const NetworkConfig& config = network.config();
  const Extent extent = network.topology().extent();
  const std::uint64_t cycles = network.simulator().cycle();

  report.set("run", "mesh", std::to_string(extent.width) + "x" +
                                std::to_string(extent.height));
  report.set("run", "topology", network.topology().describe());
  report.set("run", "n", config.params.n);
  report.set("run", "m", config.params.m);
  report.set("run", "p", config.params.p);
  report.set("run", "fifo", std::string(router::name(config.params.fifoImpl)));
  report.set("run", "flow_control",
             config.params.flowControl == router::FlowControl::Handshake
                 ? "handshake"
                 : "credit");
  report.set("run", "routing", std::string(router::name(config.params.routing)));
  report.set("run", "cycles", cycles);
  report.set("run", "links", static_cast<std::uint64_t>(network.linkCount()));

  report.set("health", "healthy", network.healthy());
  report.set("health", "flits_corrupted", network.flitsCorrupted());
  report.set("health", "flits_dropped", network.flitsDropped());
  report.set("health", "fault_stall_cycles", network.faultStallCycles());
  report.set("health", "parity_errors", network.parityErrorsDetected());
  report.set("health", "unattributed_packets", network.unattributedPackets());

  if (config.reliability.enabled) {
    const ReliabilityStats rs = network.reliabilityStats();
    report.set("reliability", "data_frames", rs.dataFramesSent);
    report.set("reliability", "retransmissions", rs.retransmissions);
    report.set("reliability", "timeouts", rs.timeouts);
    report.set("reliability", "acks_sent", rs.acksSent);
    report.set("reliability", "nacks_sent", rs.nacksSent);
    report.set("reliability", "duplicates_dropped", rs.duplicatesDropped);
    report.set("reliability", "out_of_order_buffered", rs.outOfOrderBuffered);
    report.set("reliability", "malformed_frames", rs.malformedFrames);
    report.set("reliability", "payloads_delivered", rs.payloadsDelivered);
    report.set("reliability", "abandoned", rs.abandoned);
  }

  const DeliveryLedger& ledger = network.ledger();
  report.set("ledger", "queued", ledger.queued());
  report.set("ledger", "delivered", ledger.delivered());
  report.set("ledger", "in_flight", ledger.inFlight());
  report.set("ledger", "flits_delivered", ledger.flitsDelivered());
  const LatencyStats& packet = ledger.packetLatency();
  report.set("ledger", "packet_latency_samples",
             static_cast<std::uint64_t>(packet.count()));
  report.set("ledger", "packet_latency_mean", packet.mean());
  report.set("ledger", "packet_latency_min", packet.min());
  report.set("ledger", "packet_latency_max", packet.max());
  if (packet.count() > 0) {
    report.set("ledger", "packet_latency_p50", packet.percentile(0.5));
    report.set("ledger", "packet_latency_p99", packet.percentile(0.99));
  }
  const LatencyStats& networkLatency = ledger.networkLatency();
  report.set("ledger", "network_latency_mean", networkLatency.mean());
  if (networkLatency.count() > 0)
    report.set("ledger", "network_latency_p99",
               networkLatency.percentile(0.99));

  if (config.params.qosClasses) {
    // Per-class delivery and latency breakdown (the isolation story's
    // measured form: compare control's p99 against bulk's under load).
    for (int c = 0; c < router::kNumTrafficClasses; ++c) {
      const auto cls = static_cast<router::TrafficClass>(c);
      const std::string key(router::name(cls));
      report.set("qos", key + "_queued", ledger.queued(cls));
      report.set("qos", key + "_delivered", ledger.delivered(cls));
      const LatencyStats& lat = ledger.packetLatency(cls);
      if (lat.count() > 0) {
        report.set("qos", key + "_latency_mean", lat.mean());
        report.set("qos", key + "_latency_p50", lat.percentile(0.5));
        report.set("qos", key + "_latency_p99", lat.percentile(0.99));
        report.set("qos", key + "_latency_max", lat.max());
      }
      const LatencyStats& net = ledger.networkLatency(cls);
      if (net.count() > 0)
        report.set("qos", key + "_network_latency_p99",
                   net.percentile(0.99));
    }
  }

  report.set("links", "mean_utilization", network.meanLinkUtilization());
  report.set("links", "max_utilization", network.maxLinkUtilization());

  // Compiled-kernel program shape.
  if (const sim::CompiledProgram* program =
          network.simulator().compiledProgram()) {
    report.set("kernel", "program_ops",
               static_cast<std::uint64_t>(program->opCount()));
    report.set("kernel", "program_arena_words",
               static_cast<std::uint64_t>(program->wordCount()));
  }

  if (const FlowTracer* tracer = network.tracer()) tracer->writeReport(report);

  if (watchdog) {
    const WatchdogSnapshot& snapshot = watchdog->snapshot();
    report.set("watchdog", "stalled", snapshot.stalled);
    report.set("watchdog", "longest_stall", snapshot.longestStall);
    report.set("watchdog", "last_delivery_cycle",
               snapshot.lastDeliveryCycle);
    report.set("watchdog", "stall_cycle", snapshot.stallCycle);
    report.set("watchdog", "in_flight_at_stall", snapshot.inFlightAtStall);
    report.set("watchdog", "blocked_links",
               static_cast<std::uint64_t>(snapshot.blockedLinks.size()));
    std::string joined;
    for (std::size_t i = 0;
         i < snapshot.blockedLinks.size() && i < 8; ++i) {
      if (!joined.empty()) joined += ",";
      joined += snapshot.blockedLinks[i];
    }
    if (snapshot.blockedLinks.size() > 8) joined += ",...";
    report.set("watchdog", "blocked_link_names", joined);
    report.set("watchdog", "recent_trace_events",
               static_cast<std::uint64_t>(snapshot.recentEvents.size()));
    std::string recent;
    for (std::size_t i = 0; i < snapshot.recentEvents.size() && i < 12; ++i) {
      if (!recent.empty()) recent += " | ";
      recent += snapshot.recentEvents[i];
    }
    if (snapshot.recentEvents.size() > 12) recent += " | ...";
    if (!recent.empty())
      report.set("watchdog", "recent_trace_lines", recent);
  }

  if (network.metrics()) report.attachRegistry(*network.metrics());
  return report;
}

}  // namespace rasoc::noc
