// Motivation demo: why a NoC at all?  Runs the same multimedia-ish traffic
// over a PI-Bus-style shared bus and over a RASoC mesh and prints the
// crossover - the scenario the paper's introduction argues ("NoCs promise
// to be the better approach ... that will meet the communication
// requirements of future Systems-on-Chip").
//
//   $ ./bus_vs_noc [nodes_per_side]   (default 4)
#include <cstdio>
#include <cstdlib>

#include "baseline/bus.hpp"
#include "noc/network.hpp"
#include "sim/simulator.hpp"

using namespace rasoc;

int main(int argc, char** argv) {
  const int side = argc > 1 ? std::atoi(argv[1]) : 4;
  const noc::MeshShape shape{side, side};
  constexpr int kWarmup = 500;
  constexpr int kMeasure = 4000;

  std::printf(
      "%dx%d system, uniform traffic, 8-flit packets: shared bus vs RASoC "
      "mesh\n\n",
      side, side);
  std::printf("%-8s %-28s %-28s\n", "load", "bus (lat / thru)",
              "mesh (lat / thru)");

  for (double load : {0.01, 0.03, 0.05, 0.08, 0.12, 0.20}) {
    noc::TrafficConfig traffic;
    traffic.offeredLoad = load;
    traffic.payloadFlits = 6;
    traffic.seed = 31;

    baseline::SharedBus bus("bus", baseline::BusConfig{shape});
    bus.ledger().setWarmupCycles(kWarmup);
    bus.attachTraffic(traffic);
    sim::Simulator busSim;
    busSim.add(bus);
    busSim.reset();
    busSim.run(kWarmup + kMeasure);

    noc::NetworkConfig cfg;
    cfg.params.n = 16;
    cfg.params.p = 4;
    noc::Network mesh(std::make_shared<noc::MeshTopology>(shape), cfg);
    mesh.ledger().setWarmupCycles(kWarmup);
    mesh.attachTraffic(traffic);
    mesh.run(kWarmup + kMeasure);

    const int nodes = shape.nodes();
    std::printf("%-8.2f %8.1f cy / %.4f fl/cy/n %10.1f cy / %.4f fl/cy/n\n",
                load, bus.ledger().packetLatency().mean(),
                bus.ledger().throughputFlitsPerCyclePerNode(kMeasure, nodes),
                mesh.ledger().packetLatency().mean(),
                mesh.ledger().throughputFlitsPerCyclePerNode(kMeasure,
                                                             nodes));
  }

  std::printf(
      "\nThe bus saturates once the aggregate offered load nears one flit "
      "per cycle\n(1/%d per node); the mesh keeps latency bounded far past "
      "that point.\n",
      shape.nodes());
  return 0;
}
