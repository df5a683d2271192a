// Ablation: round-robin (the paper's choice) vs fixed-priority output
// arbitration under hot-spot traffic.
//
// With finite injection queues, starvation shows up as *service inequality*
// across the sources competing for the hot router, so the headline metric
// is Jain's fairness index over per-node delivered-packet counts
// (1.0 = perfectly fair, 1/N = one node monopolizes), plus the min/max
// service ratio and the latency tail.
#include <cstdio>

#include "noc/network.hpp"
#include "tech/report.hpp"

using namespace rasoc;

namespace {

constexpr int kWarmup = 800;
constexpr int kMeasure = 5000;

struct Result {
  double fairness;     // Jain's index over per-node packetsSent
  double minMaxRatio;  // worst node / best node service
  double p99;
  std::uint64_t delivered;
};

Result run(router::ArbiterKind kind, double load) {
  const noc::MeshShape shape{4, 4};
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.arbiter = kind;
  noc::Network mesh(std::make_shared<noc::MeshTopology>(shape), cfg);
  mesh.ledger().setWarmupCycles(kWarmup);
  noc::TrafficConfig traffic;
  traffic.pattern = noc::TrafficPattern::HotSpot;
  traffic.hotspot = noc::NodeId{1, 1};
  traffic.hotspotFraction = 0.6;
  traffic.offeredLoad = load;
  traffic.payloadFlits = 6;
  traffic.seed = 42;
  mesh.attachTraffic(traffic);
  mesh.run(kWarmup + kMeasure);

  double sum = 0.0, sumSq = 0.0, minSent = 1e18, maxSent = 0.0;
  int nodes = 0;
  for (int i = 0; i < shape.nodes(); ++i) {
    const noc::NodeId n = shape.nodeAt(i);
    if (n == traffic.hotspot) continue;  // the hot node mostly receives
    const auto sent = static_cast<double>(mesh.ni(n).packetsSent());
    sum += sent;
    sumSq += sent * sent;
    minSent = std::min(minSent, sent);
    maxSent = std::max(maxSent, sent);
    ++nodes;
  }
  const double fairness =
      sumSq == 0.0 ? 1.0 : (sum * sum) / (nodes * sumSq);
  return {fairness, maxSent == 0.0 ? 1.0 : minSent / maxSent,
          mesh.ledger().packetLatency().percentile(0.99),
          mesh.ledger().delivered()};
}

std::string fmt(double v, const char* f = "%.3f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

int main() {
  std::printf(
      "Arbitration ablation: round-robin vs fixed priority\n"
      "4x4 mesh, hotspot(1,1) 60%%, n=16, p=4, %d measured cycles\n"
      "fairness = Jain's index over per-source delivered packets "
      "(hot node excluded)\n\n",
      kMeasure);

  tech::Table table({"load", "RR fair", "RR min/max", "RR p99", "FP fair",
                     "FP min/max", "FP p99"});
  for (double load : {0.05, 0.10, 0.20, 0.30}) {
    const Result rr = run(router::ArbiterKind::RoundRobin, load);
    const Result fp = run(router::ArbiterKind::FixedPriority, load);
    table.addRow({fmt(load, "%.2f"), fmt(rr.fairness), fmt(rr.minMaxRatio),
                  fmt(rr.p99, "%.0f"), fmt(fp.fairness),
                  fmt(fp.minMaxRatio), fmt(fp.p99, "%.0f")});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nShape check: once the hot region saturates, fixed priority "
      "serves the\nfavoured ports at the expense of the others (lower "
      "fairness and min/max\nratio); round-robin keeps service near-equal "
      "- the starvation-freedom the\npaper's arbitration choice buys.\n");
  return 0;
}
