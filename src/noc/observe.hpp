/// \file
/// Observability glue between the NoC layer and the telemetry subsystem:
/// the metric naming convention, heatmap extraction from an instrumented
/// network's registry, and the standard RunReport for bench/example output.
///
/// Network::enableTelemetry registers, per router at (x,y):
///   - `r<x>,<y>.flits_routed` — router-aggregate throughput
///   - `r<x>,<y>.<P>in.{flits,full_cycles,stall_cycles,occupancy}`
///   - `r<x>,<y>.<P>out.{flits,busy_cycles,grants,conflict_cycles}`
/// per network interface:
///   - `ni<x>,<y>.{flits_injected,flits_ejected,backpressure_cycles,
///     send_queue_flits}` plus, with reliability enabled,
///     `{retransmits,timeouts,duplicates_dropped}`
/// per fault-capable link (linkFaultRate > 0 or named by a FaultPlan):
///   - `link<x>,<y><P>.{flits_corrupted,flits_dropped,stall_cycles}`
/// and the network-level sampled gauges:
///   - `mesh.{in_flight_packets,send_queue_flits}` and, with reliability,
///     `net.reliability.{unacked_frames,backlog_frames}`
///   - with RouterParams::qosClasses,
///     `net.qos.<class>.{queued_packets,delivered_packets}` per traffic
///     class, plus a per-class `qos` section in buildRunReport
/// where <P> is a port letter (L,N,E,S,W); pruned-port series are absent.
///
/// Heatmaps are laid out over the topology extent, so a ring renders as a
/// single row.
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/heatmap.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"

#include "noc/network.hpp"
#include "noc/watchdog.hpp"

namespace rasoc::noc {

std::string routerMetricPrefix(NodeId n);      // "r<x>,<y>"
std::string niMetricPrefix(NodeId n);          // "ni<x>,<y>"
std::string linkMetricPrefix(const LinkId& l); // "link<x>,<y><P>"

// Per-router flits routed per cycle.
telemetry::MeshHeatmap throughputHeatmap(
    const telemetry::MetricsRegistry& registry, const Topology& topology,
    std::uint64_t cycles);
telemetry::MeshHeatmap throughputHeatmap(
    const telemetry::MetricsRegistry& registry, MeshShape shape,
    std::uint64_t cycles);

// Congestion score in [0,1]: channel-cycles lost to full buffers, stalled
// head flits and arbitration conflicts, normalized by the router's
// instantiated channel count and the observed cycles.
telemetry::MeshHeatmap congestionHeatmap(
    const telemetry::MetricsRegistry& registry, const Topology& topology,
    std::uint64_t cycles);
telemetry::MeshHeatmap congestionHeatmap(
    const telemetry::MetricsRegistry& registry, MeshShape shape,
    std::uint64_t cycles);

// Fraction of cycles the local NI was ready to inject but held back.
telemetry::MeshHeatmap backpressureHeatmap(
    const telemetry::MetricsRegistry& registry, const Topology& topology,
    std::uint64_t cycles);
telemetry::MeshHeatmap backpressureHeatmap(
    const telemetry::MetricsRegistry& registry, MeshShape shape,
    std::uint64_t cycles);

// Fault events per cycle charged to each node's outgoing links: corrupted
// plus dropped flits plus stall cycles, summed over the node's fault-capable
// links (zero elsewhere).  Localizes which region of a campaign's faults
// actually bit.
telemetry::MeshHeatmap faultHeatmap(
    const telemetry::MetricsRegistry& registry, const Topology& topology,
    std::uint64_t cycles);

// The standard structured report: network configuration (the "mesh" key
// holds the extent for backward compatibility; "topology" names the
// instance), health flags, ledger statistics, under the compiled kernel a
// "kernel" section with the program shape (program_ops,
// program_arena_words), optional watchdog snapshot, and - when the network
// was instrumented - the full metrics registry.  Deterministic for a given
// seeded run.
telemetry::RunReport buildRunReport(std::string name, const Network& network,
                                    const Watchdog* watchdog = nullptr);

}  // namespace rasoc::noc
