// Design-space exploration - the point of a *parameterized* soft-core:
// sweep (n, p, FIFO impl), report cost from the technology mapper, fmax
// from the timing model, and zero-load latency plus saturation throughput
// from the cycle-accurate mesh, so an SoC designer can pick the cheapest
// configuration that meets the application requirement ("allows the tuning
// of the NoC parameters in order to meet the requirements of the target
// application").
//
//   $ ./design_space
#include <cstdio>

#include "noc/network.hpp"
#include "softcore/elaborate.hpp"
#include "tech/mapper.hpp"
#include "tech/report.hpp"
#include "tech/timing.hpp"

using namespace rasoc;

namespace {

double saturationThroughput(const router::RouterParams& params) {
  noc::NetworkConfig cfg;
  cfg.params = params;
  noc::Network mesh(std::make_shared<noc::MeshTopology>(noc::MeshShape{4, 4}),
                    cfg);
  mesh.ledger().setWarmupCycles(500);
  noc::TrafficConfig traffic;
  traffic.offeredLoad = 1.0;  // saturating
  traffic.payloadFlits = 6;
  traffic.seed = 5;
  mesh.attachTraffic(traffic);
  mesh.run(3500);
  return mesh.ledger().throughputFlitsPerCyclePerNode(3000, 16);
}

}  // namespace

int main() {
  const tech::Flex10keMapper mapper;
  const tech::TimingModel timing;

  std::printf(
      "RASoC design-space exploration (4x4 mesh, uniform saturating "
      "traffic)\n'bandwidth' = saturation throughput x fmax x n = usable "
      "Mbit/s per node\n\n");

  tech::Table table({"n", "p", "FIFO", "router LC", "Reg", "Mem", "fmax MHz",
                     "sat fl/cy/node", "Mbit/s/node"});
  for (int n : {8, 16, 32}) {
    for (int p : {2, 4}) {
      for (router::FifoImpl impl :
           {router::FifoImpl::FlipFlop, router::FifoImpl::Eab}) {
        router::RouterParams params;
        params.n = n;
        params.p = p;
        params.fifoImpl = impl;
        const tech::Cost cost =
            softcore::elaborateRouter(params).totalCost(mapper);
        const double fmax =
            tech::routerFmaxMhz(timing, impl == router::FifoImpl::FlipFlop,
                                p);
        const double sat = saturationThroughput(params);
        char fmaxStr[32], satStr[32], bwStr[32];
        std::snprintf(fmaxStr, sizeof fmaxStr, "%.1f", fmax);
        std::snprintf(satStr, sizeof satStr, "%.3f", sat);
        std::snprintf(bwStr, sizeof bwStr, "%.0f", sat * fmax * n);
        table.addRow({std::to_string(n), std::to_string(p),
                      std::string(router::name(impl)),
                      std::to_string(cost.lc), std::to_string(cost.reg),
                      std::to_string(cost.mem), fmaxStr, satStr, bwStr});
      }
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nReading the table: EAB FIFOs buy the same cycle behaviour for "
      "fewer LCs;\nwider channels trade logic cells for bandwidth; deeper "
      "buffers mostly move\nthe saturation knee (see "
      "bench_noc_loadsweep).\n");
  return 0;
}
