// Ablation: handshake link flow control (the paper's choice) vs the
// credit-based OFC replacement it sketches in Section 2.2.
//
// Two observations:
//  1. Cycle behaviour: both protocols sustain one flit per cycle per link
//     in this model (the handshake ack is combinational), so delivered
//     traffic and cycle-latency match closely.
//  2. Timing: the handshake's flit transfer closes a combinational loop
//     across the link (val out, ack back) inside one cycle, while credits
//     only cross the link once.  Folding the extra link traversal into the
//     critical path (+1.5 LUT-level equivalents for the return trip, vs
//     +0.5 for the credit counter compare) shows the real-frequency
//     benefit a credit-based OFC buys.
#include <cstdio>

#include "noc/network.hpp"
#include "tech/report.hpp"
#include "tech/timing.hpp"

using namespace rasoc;

namespace {

constexpr int kWarmup = 800;
constexpr int kMeasure = 4000;

struct Result {
  double latency;
  double throughput;
  bool healthy;
};

Result run(router::FlowControl fc, double load) {
  const noc::MeshShape shape{4, 4};
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.params.flowControl = fc;
  noc::Network mesh(std::make_shared<noc::MeshTopology>(shape), cfg);
  mesh.ledger().setWarmupCycles(kWarmup);
  noc::TrafficConfig traffic;
  traffic.offeredLoad = load;
  traffic.payloadFlits = 6;
  traffic.seed = 7;
  mesh.attachTraffic(traffic);
  mesh.run(kWarmup + kMeasure);
  return {mesh.ledger().packetLatency().mean(),
          mesh.ledger().throughputFlitsPerCyclePerNode(kMeasure, 16),
          mesh.healthy()};
}

std::string fmt(double v, const char* f = "%.2f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

int main() {
  std::printf(
      "Flow-control ablation: handshake OFC vs credit-based OFC\n"
      "4x4 mesh, uniform traffic, n=16, p=4, %d measured cycles\n\n",
      kMeasure);

  tech::Table table({"load", "hs lat", "hs thru", "credit lat",
                     "credit thru"});
  bool healthy = true;
  for (double load : {0.05, 0.10, 0.20, 0.35}) {
    const Result hs = run(router::FlowControl::Handshake, load);
    const Result cr = run(router::FlowControl::CreditBased, load);
    healthy = healthy && hs.healthy && cr.healthy;
    table.addRow({fmt(load), fmt(hs.latency), fmt(hs.throughput, "%.4f"),
                  fmt(cr.latency), fmt(cr.throughput, "%.4f")});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("all runs healthy: %s\n\n", healthy ? "yes" : "NO");

  // Timing view: the handshake val->ack round trip is on the transfer
  // critical path; credits replace it with a local counter compare.
  const tech::TimingModel model;
  const double handshakeLevels = model.baseRouterLevels +
                                 model.eabReadLevels + 1.5;
  const double creditLevels = model.baseRouterLevels + model.eabReadLevels +
                              0.5;
  std::printf(
      "Critical-path view (EAB FIFOs):\n"
      "  handshake: %.1f levels -> %.1f MHz\n"
      "  credit:    %.1f levels -> %.1f MHz\n"
      "Equal flits/cycle + higher clock => credit-based links carry ~%.0f%% "
      "more\nbandwidth, at the cost of the counter logic the elaborator "
      "charges the OFC.\n",
      handshakeLevels, model.fmaxMhz(handshakeLevels), creditLevels,
      model.fmaxMhz(creditLevels),
      (model.fmaxMhz(creditLevels) / model.fmaxMhz(handshakeLevels) - 1.0) *
          100.0);
  return 0;
}
