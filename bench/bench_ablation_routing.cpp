// Ablation: XY (the paper's routing choice) vs YX dimension order.
//
// Both are deterministic, minimal and deadlock-free, and carry identical
// volumes on symmetric patterns; the difference is *where* the load lands.
// Under a column hotspot, XY funnels traffic through the hot column's
// vertical links while YX spreads the approach over the hot row, and vice
// versa - the kind of pattern/algorithm interaction a parameterized
// soft-core lets a designer tune per application.
#include <cstdio>

#include "noc/network.hpp"
#include "tech/report.hpp"

using namespace rasoc;

namespace {

constexpr int kWarmup = 800;
constexpr int kMeasure = 4000;

struct Result {
  double latency;
  double throughput;
  double maxLink;
};

Result run(router::RoutingAlgorithm routing, noc::TrafficPattern pattern,
           double load) {
  const noc::MeshShape shape{4, 4};
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.params.routing = routing;
  noc::Network mesh(std::make_shared<noc::MeshTopology>(shape), cfg);
  mesh.ledger().setWarmupCycles(kWarmup);
  noc::TrafficConfig traffic;
  traffic.pattern = pattern;
  traffic.offeredLoad = load;
  traffic.payloadFlits = 6;
  traffic.seed = 33;
  traffic.hotspot = noc::NodeId{3, 1};
  traffic.hotspotFraction = 0.5;
  mesh.attachTraffic(traffic);
  mesh.run(kWarmup + kMeasure);
  return {mesh.ledger().packetLatency().mean(),
          mesh.ledger().throughputFlitsPerCyclePerNode(kMeasure, 16),
          mesh.maxLinkUtilization()};
}

std::string fmt(double v, const char* f = "%.2f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

int main() {
  std::printf(
      "Routing ablation: XY vs YX dimension order (4x4, n=16, p=4)\n\n");

  for (noc::TrafficPattern pattern :
       {noc::TrafficPattern::UniformRandom, noc::TrafficPattern::Transpose,
        noc::TrafficPattern::HotSpot}) {
    std::printf("--- pattern: %s ---\n",
                std::string(noc::name(pattern)).c_str());
    tech::Table table({"load", "XY lat", "XY thru", "XY maxlink", "YX lat",
                       "YX thru", "YX maxlink"});
    for (double load : {0.05, 0.15, 0.30}) {
      const Result xy = run(router::RoutingAlgorithm::XY, pattern, load);
      const Result yx = run(router::RoutingAlgorithm::YX, pattern, load);
      table.addRow({fmt(load), fmt(xy.latency), fmt(xy.throughput, "%.4f"),
                    fmt(xy.maxLink, "%.3f"), fmt(yx.latency),
                    fmt(yx.throughput, "%.4f"), fmt(yx.maxLink, "%.3f")});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  }

  std::printf(
      "Shape checks: symmetric patterns (uniform, transpose) show matched\n"
      "throughput for both orders; the off-centre hotspot shifts which "
      "links\nsaturate first (compare the maxlink columns).\n");
  return 0;
}
