// Design-methodology demo: map a multimedia SoC's core graph onto a RASoC
// mesh, compare greedy vs annealed placements, then validate the predicted
// link loads against the cycle-accurate simulation - the NoC design flow
// the paper reports RASoC being used for ("design methodologies").
//
//   $ ./app_mapping
#include <cstdio>

#include "noc/appmap.hpp"
#include "noc/network.hpp"
#include "tech/report.hpp"

using namespace rasoc;

namespace {

// An MPEG-4-decoder-like task graph (bandwidths in flits/cycle), the kind
// of workload the NoC mapping literature of the era uses.
noc::CoreGraph mpeg4ishGraph() {
  noc::CoreGraph graph;
  const int vld = graph.addCore("vld");       // variable-length decoder
  const int iq = graph.addCore("iq");         // inverse quantizer
  const int idct = graph.addCore("idct");
  const int mc = graph.addCore("mc");         // motion compensation
  const int pad = graph.addCore("pad");
  const int vop = graph.addCore("vop");       // reconstruction
  const int mem = graph.addCore("sdram");
  const int cpu = graph.addCore("risc");
  const int dma = graph.addCore("dma");
  const int disp = graph.addCore("display");

  graph.addFlow(vld, iq, 0.10);
  graph.addFlow(iq, idct, 0.10);
  graph.addFlow(idct, vop, 0.10);
  graph.addFlow(mc, vop, 0.08);
  graph.addFlow(pad, mc, 0.05);
  graph.addFlow(mem, mc, 0.15);
  graph.addFlow(mem, pad, 0.05);
  graph.addFlow(vop, mem, 0.15);
  graph.addFlow(mem, disp, 0.12);
  graph.addFlow(cpu, vld, 0.03);
  graph.addFlow(cpu, mem, 0.05);
  graph.addFlow(dma, mem, 0.08);
  return graph;
}

void report(const char* label, const noc::CoreGraph& graph,
            const noc::MappingResult& result, noc::MeshShape shape) {
  std::printf("%s: hop-bandwidth %.3f, worst predicted link load %.3f\n",
              label, result.hopBandwidth, result.maxLinkLoad);
  for (std::size_t core = 0; core < graph.cores.size(); ++core) {
    std::printf("  %-8s -> (%d,%d)\n", graph.cores[core].name.c_str(),
                result.placement[core].x, result.placement[core].y);
  }
  (void)shape;
}

}  // namespace

int main() {
  const noc::MeshShape shape{4, 4};
  const noc::CoreGraph graph = mpeg4ishGraph();
  noc::Mapper mapper(shape, /*seed=*/42);

  const noc::MappingResult greedy = mapper.mapGreedy(graph);
  report("greedy placement", graph, greedy, shape);
  const noc::MappingResult annealed = mapper.mapAnnealed(graph, 8000);
  report("annealed placement", graph, annealed, shape);
  std::printf("annealing improvement: %.1f%%\n\n",
              100.0 * (greedy.hopBandwidth - annealed.hopBandwidth) /
                  greedy.hopBandwidth);

  // Validate on the cycle-accurate mesh.
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  noc::Network mesh(std::make_shared<noc::MeshTopology>(shape), cfg);
  auto replayers = noc::attachFlows(mesh, graph, annealed, 6, 7);
  mesh.run(20000);

  std::printf("cycle-accurate validation over %llu cycles (%s):\n",
              static_cast<unsigned long long>(mesh.simulator().cycle()),
              mesh.healthy() ? "healthy" : "UNHEALTHY");
  tech::Table table({"link", "predicted", "measured"});
  for (const auto& [link, predicted] : annealed.linkLoads) {
    char name[32], pred[16], meas[16];
    std::snprintf(name, sizeof name, "(%d,%d)->%s", link.from.x, link.from.y,
                  std::string(router::name(link.port)).c_str());
    std::snprintf(pred, sizeof pred, "%.3f", predicted);
    std::snprintf(meas, sizeof meas, "%.3f",
                  mesh.linkUtilization(link.from, link.port));
    table.addRow({name, pred, meas});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\npacket latency: mean %.1f, p99 %.1f cycles over %llu delivered\n",
      mesh.ledger().packetLatency().mean(),
      mesh.ledger().packetLatency().percentile(0.99),
      static_cast<unsigned long long>(mesh.ledger().delivered()));
  std::printf("\nlatency histogram:\n%s",
              mesh.ledger().packetLatency().histogram(12, 40).c_str());
  return 0;
}
