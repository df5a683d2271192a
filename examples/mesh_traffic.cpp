// A 4x4 RASoC mesh under synthetic traffic - the "building of
// networks-on-chip" use of the soft-core the paper describes.  Prints
// per-pattern latency/throughput and the busiest links.
//
//   $ ./mesh_traffic [load]            (default 0.15 flits/cycle/node)
#include <cstdio>
#include <cstdlib>

#include "noc/network.hpp"

using namespace rasoc;

int main(int argc, char** argv) {
  const double load = argc > 1 ? std::atof(argv[1]) : 0.15;
  constexpr int kWarmup = 500;
  constexpr int kMeasure = 4000;

  for (noc::TrafficPattern pattern :
       {noc::TrafficPattern::UniformRandom, noc::TrafficPattern::Transpose,
        noc::TrafficPattern::BitComplement, noc::TrafficPattern::HotSpot}) {
    noc::NetworkConfig cfg;
    cfg.params.n = 16;
    cfg.params.m = 8;
    cfg.params.p = 4;
    noc::Network mesh(
        std::make_shared<noc::MeshTopology>(noc::MeshShape{4, 4}), cfg);
    mesh.ledger().setWarmupCycles(kWarmup);

    noc::TrafficConfig traffic;
    traffic.pattern = pattern;
    traffic.offeredLoad = load;
    traffic.payloadFlits = 6;
    traffic.seed = 2026;
    traffic.hotspot = noc::NodeId{2, 2};
    traffic.hotspotFraction = 0.4;
    mesh.attachTraffic(traffic);
    mesh.run(kWarmup + kMeasure);

    std::printf("pattern %-10s  load %.2f  ",
                std::string(noc::name(pattern)).c_str(), load);
    std::printf(
        "delivered %-6llu  lat mean %6.1f  p99 %6.1f  thru %.4f fl/cy/node  "
        "links mean %.3f max %.3f  %s\n",
        static_cast<unsigned long long>(mesh.ledger().delivered()),
        mesh.ledger().packetLatency().mean(),
        mesh.ledger().packetLatency().percentile(0.99),
        mesh.ledger().throughputFlitsPerCyclePerNode(kMeasure, 16),
        mesh.meanLinkUtilization(), mesh.maxLinkUtilization(),
        mesh.healthy() ? "healthy" : "UNHEALTHY");
  }
  return 0;
}
