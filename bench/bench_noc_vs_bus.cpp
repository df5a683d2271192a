// The comparison the paper announces as ongoing work in its conclusion:
// "we are modeling RASoC in CASS ... in order to compare the performance of
// RASoC-based NoCs with the ones of SPIN [2] and PI-Bus [8]".
//
// Sweeps offered load on a 4x4 system under uniform traffic and reports
// packet latency and delivered throughput for:
//   * a 4x4 mesh of RASoC routers (cycle-accurate),
//   * a PI-Bus-style shared bus (transaction-level, cycle resolution),
//   * a SPIN-like 4-ary fat tree (calendar-based wormhole approximation),
//   * an ideal non-blocking crossbar (upper bound).
//
// Expected shape: the bus saturates once aggregate load approaches ~1
// flit/cycle (~0.06 flits/cycle/node at 16 nodes); the mesh tracks the
// crossbar at low load and sustains roughly an order of magnitude more
// aggregate throughput - the NoC motivation of the paper's introduction.
#include <cstdio>
#include <string>

#include "baseline/bus.hpp"
#include "baseline/crossbar.hpp"
#include "baseline/spin.hpp"
#include "noc/observe.hpp"
#include "sim/simulator.hpp"
#include "tech/report.hpp"

using namespace rasoc;

namespace {

constexpr int kWarmup = 1000;
constexpr int kMeasure = 4000;
constexpr int kPayloadFlits = 6;

noc::TrafficConfig traffic(double load) {
  noc::TrafficConfig cfg;
  cfg.pattern = noc::TrafficPattern::UniformRandom;
  cfg.offeredLoad = load;
  cfg.payloadFlits = kPayloadFlits;
  cfg.seed = 1234;
  return cfg;
}

struct Result {
  double latency;
  double p99;
  double throughput;
  std::uint64_t delivered;
};

Result runMesh(double load) {
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  noc::Network mesh(std::make_shared<noc::MeshTopology>(noc::MeshShape{4, 4}),
                    cfg);
  mesh.ledger().setWarmupCycles(kWarmup);
  mesh.attachTraffic(traffic(load));
  mesh.run(kWarmup + kMeasure);
  return {mesh.ledger().packetLatency().mean(),
          mesh.ledger().packetLatency().percentile(0.99),
          mesh.ledger().throughputFlitsPerCyclePerNode(kMeasure, 16),
          mesh.ledger().delivered()};
}

Result runBus(double load) {
  baseline::SharedBus bus("bus", baseline::BusConfig{noc::MeshShape{4, 4}});
  bus.ledger().setWarmupCycles(kWarmup);
  bus.attachTraffic(traffic(load));
  sim::Simulator sim;
  sim.add(bus);
  sim.reset();
  sim.run(kWarmup + kMeasure);
  return {bus.ledger().packetLatency().mean(),
          bus.ledger().packetLatency().percentile(0.99),
          bus.ledger().throughputFlitsPerCyclePerNode(kMeasure, 16),
          bus.ledger().delivered()};
}

Result runSpin(double load) {
  baseline::SpinFatTree spin("spin", 16);
  spin.ledger().setWarmupCycles(kWarmup);
  spin.attachTraffic(traffic(load), noc::MeshShape{4, 4});
  sim::Simulator sim;
  sim.add(spin);
  sim.reset();
  sim.run(kWarmup + kMeasure);
  return {spin.ledger().packetLatency().mean(),
          spin.ledger().packetLatency().percentile(0.99),
          spin.ledger().throughputFlitsPerCyclePerNode(kMeasure, 16),
          spin.ledger().delivered()};
}

Result runCrossbar(double load) {
  baseline::IdealCrossbar xbar("xbar", noc::MeshShape{4, 4});
  xbar.ledger().setWarmupCycles(kWarmup);
  xbar.attachTraffic(traffic(load));
  sim::Simulator sim;
  sim.add(xbar);
  sim.reset();
  sim.run(kWarmup + kMeasure);
  return {xbar.ledger().packetLatency().mean(),
          xbar.ledger().packetLatency().percentile(0.99),
          xbar.ledger().throughputFlitsPerCyclePerNode(kMeasure, 16),
          xbar.ledger().delivered()};
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

std::string fmt4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

// Instrumented mesh run near the bus saturation point, serialized as a
// RunReport so the mesh side of the comparison is machine-diffable.
void writeMeshReport(const std::string& path, double load) {
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  noc::Network mesh(std::make_shared<noc::MeshTopology>(noc::MeshShape{4, 4}),
                    cfg);
  telemetry::MetricsRegistry registry;
  mesh.enableTelemetry(registry);
  mesh.ledger().setWarmupCycles(kWarmup);
  mesh.attachTraffic(traffic(load));
  mesh.run(kWarmup + kMeasure);
  telemetry::RunReport report = noc::buildRunReport("noc_vs_bus.mesh", mesh);
  report.set("run", "offered_load", load);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::printf("!! cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(report.toJson().c_str(), out);
  std::fclose(out);
  std::printf("\nRunReport JSON written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "RASoC 4x4 mesh vs PI-Bus-style shared bus vs ideal crossbar\n"
      "uniform traffic, %d payload flits/packet, n=16, p=4, warmup %d, "
      "measured %d cycles\n"
      "latency in cycles (creation -> trailer delivery), throughput in "
      "flits/cycle/node\n\n",
      kPayloadFlits, kWarmup, kMeasure);

  tech::Table table({"load", "mesh lat", "mesh p99", "mesh thru", "bus lat",
                     "bus p99", "bus thru", "spin lat", "spin thru",
                     "xbar lat", "xbar thru"});
  for (double load : {0.01, 0.02, 0.04, 0.06, 0.10, 0.15, 0.20, 0.30}) {
    const Result mesh = runMesh(load);
    const Result bus = runBus(load);
    const Result spin = runSpin(load);
    const Result xbar = runCrossbar(load);
    table.addRow({fmt(load), fmt(mesh.latency), fmt(mesh.p99),
                  fmt4(mesh.throughput), fmt(bus.latency), fmt(bus.p99),
                  fmt4(bus.throughput), fmt(spin.latency),
                  fmt4(spin.throughput), fmt(xbar.latency),
                  fmt4(xbar.throughput)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nShape checks: the shared bus saturates near 1/16 = 0.0625 "
      "flits/cycle/node\nand its latency explodes beyond ~0.06 offered "
      "load; the mesh keeps tracking\nthe offered load with bounded "
      "latency well past that point.\n");

  writeMeshReport(argc > 1 ? argv[1] : "bench_noc_vs_bus_report.json", 0.10);
  return 0;
}
