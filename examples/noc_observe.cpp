// Observability tour, in two acts:
//
//  1. A 3x3 RASoC mesh under uniform random traffic with the telemetry
//     subsystem attached: per-router congestion and throughput heatmaps
//     plus the structured JSON run report.
//  2. The same mesh under hotspot traffic with the flit-level flow tracer
//     enabled: the per-flow latency decomposition table shows where the
//     congestion tree around the hotspot costs cycles (hop_blocked), and
//     the run report gains its deterministic `trace` section.
//
// Everything printed is deterministic: two runs with the same seed produce
// byte-identical output (`noc_observe 42 > a.txt; noc_observe 42 > b.txt;
// diff a.txt b.txt`).
//
// Usage: noc_observe [seed]
#include <cstdio>
#include <cstdlib>

#include "noc/observe.hpp"
#include "noc/watchdog.hpp"

using namespace rasoc;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  const noc::MeshShape shape{3, 3};
  const auto topology = std::make_shared<noc::MeshTopology>(shape);
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  noc::Network mesh(topology, cfg);

  telemetry::MetricsRegistry registry;
  mesh.enableTelemetry(registry);

  noc::Watchdog watchdog("dog", mesh.ledger(), 500);
  mesh.simulator().add(watchdog);

  noc::TrafficConfig traffic;
  traffic.pattern = noc::TrafficPattern::UniformRandom;
  traffic.offeredLoad = 0.3;
  traffic.payloadFlits = 6;
  traffic.seed = seed;
  mesh.attachTraffic(traffic);

  mesh.run(2000);

  const std::uint64_t cycles = mesh.simulator().cycle();
  std::printf("== 3x3 mesh, uniform traffic, load %.2f, seed %llu, %llu "
              "cycles ==\n\n",
              traffic.offeredLoad, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(cycles));

  const auto throughput = noc::throughputHeatmap(registry, *topology, cycles);
  const auto congestion = noc::congestionHeatmap(registry, *topology, cycles);
  const auto backpressure =
      noc::backpressureHeatmap(registry, *topology, cycles);
  std::fputs(throughput.ascii().c_str(), stdout);
  std::printf("\n");
  std::fputs(congestion.ascii().c_str(), stdout);
  std::printf("\n");
  std::fputs(backpressure.ascii().c_str(), stdout);

  std::printf("\ncongestion CSV:\n%s", congestion.csv().c_str());

  telemetry::RunReport report =
      noc::buildRunReport("noc_observe", mesh, &watchdog);
  report.set("run", "seed", seed);
  report.set("run", "offered_load", traffic.offeredLoad);
  std::printf("\n%s", report.toJson().c_str());

  // --- act 2: flit-traced hotspot run ------------------------------------
  // Every packet's lifecycle is reconstructed (NI queueing, per-hop buffer
  // residency, arbitration, ejection) and folded into a latency
  // decomposition whose components sum exactly to the end-to-end latency.
  noc::Network hotMesh(topology, cfg);
  noc::FlowTracer& tracer = hotMesh.enableTracing();

  noc::TrafficConfig hotTraffic = traffic;
  hotTraffic.pattern = noc::TrafficPattern::HotSpot;
  hotTraffic.hotspot = noc::NodeId{1, 1};  // the mesh centre melts first
  hotTraffic.hotspotFraction = 0.5;
  hotMesh.attachTraffic(hotTraffic);

  hotMesh.run(2000);

  std::printf("\n== hotspot run (50%% of flows target node (1,1)), flit "
              "tracing on ==\n\n");
  std::printf("per-flow latency decomposition (cycles; %llu packets "
              "completed):\n%s",
              static_cast<unsigned long long>(tracer.packetsCompleted()),
              tracer.decompositionTable().c_str());
  std::printf(
      "\nsource_queue dominating means the NIs cannot inject (the hotspot\n"
      "column is saturated); hop_blocked is time parked in router buffers\n"
      "along the congestion tree.  Export the full timeline with\n"
      "FlowTracer::perfettoJson() and open it in ui.perfetto.dev.\n");

  telemetry::RunReport hotReport =
      noc::buildRunReport("noc_observe.hotspot", hotMesh, nullptr);
  hotReport.set("run", "seed", seed);
  std::printf("\n%s", hotReport.toJson().c_str());
  return 0;
}
