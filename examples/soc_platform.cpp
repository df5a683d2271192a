// A small SoC platform on the RASoC NoC: two CPUs and a DMA engine issue
// memory-mapped reads/writes to two memory cores across a 3x3 mesh - the
// CASS-style platform simulation the paper's evaluation methodology builds
// on ("the cores attached to the NoC ... scalar processors, DSPs,
// controllers, memories").
//
//   $ ./soc_platform
#include <cstdio>

#include "noc/network.hpp"
#include "soc/transaction.hpp"

using namespace rasoc;
using noc::NodeId;

int main() {
  const noc::MeshShape shape{3, 3};
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  noc::Network mesh(std::make_shared<noc::MeshTopology>(shape), cfg);

  // Memories at opposite corners; initiators spread over the mesh.
  soc::MemoryTarget ram0("ram0", mesh.ni(NodeId{2, 2}), shape, 2, 256);
  soc::MemoryTarget ram1("ram1", mesh.ni(NodeId{0, 2}), shape, 2, 256);
  soc::Initiator cpu0("cpu0", mesh.ni(NodeId{0, 0}), shape, NodeId{0, 0}, 4);
  soc::Initiator cpu1("cpu1", mesh.ni(NodeId{2, 0}), shape, NodeId{2, 0}, 4);
  soc::Initiator dma("dma", mesh.ni(NodeId{1, 1}), shape, NodeId{1, 1}, 8);
  mesh.simulator().add(ram0);
  mesh.simulator().add(ram1);
  mesh.simulator().add(cpu0);
  mesh.simulator().add(cpu1);
  mesh.simulator().add(dma);

  // cpu0: read-modify-write loop on ram0; cpu1: the same on ram1.
  for (std::uint32_t i = 0; i < 32; ++i) {
    cpu0.queue({true, NodeId{2, 2}, i, 0x100 + i});
    cpu0.queue({false, NodeId{2, 2}, i, 0});
    cpu1.queue({true, NodeId{0, 2}, i, 0x200 + i});
    cpu1.queue({false, NodeId{0, 2}, i, 0});
  }
  // dma: bulk stream alternating between both memories.
  for (std::uint32_t i = 0; i < 64; ++i) {
    dma.queue({true, i % 2 ? NodeId{2, 2} : NodeId{0, 2}, 128 + i / 2,
               0x300 + i});
  }

  const bool done = mesh.simulator().runUntil(
      [&] { return cpu0.done() && cpu1.done() && dma.done(); }, 100000);

  std::printf("platform run: %s in %llu cycles (%s)\n",
              done ? "completed" : "TIMED OUT",
              static_cast<unsigned long long>(mesh.simulator().cycle()),
              mesh.healthy() ? "healthy" : "UNHEALTHY");
  auto report = [](const char* name, const soc::Initiator& initiator) {
    std::printf(
        "  %-5s %3llu txns, %llu data errors, round-trip mean %5.1f p99 "
        "%5.1f cycles\n",
        name, static_cast<unsigned long long>(initiator.completed()),
        static_cast<unsigned long long>(initiator.dataErrors()),
        initiator.roundTrip().mean(), initiator.roundTrip().percentile(0.99));
  };
  report("cpu0", cpu0);
  report("cpu1", cpu1);
  report("dma", dma);
  std::printf(
      "  memories: ram0 %llu reads / %llu writes, ram1 %llu / %llu\n",
      static_cast<unsigned long long>(ram0.readsServed()),
      static_cast<unsigned long long>(ram0.writesServed()),
      static_cast<unsigned long long>(ram1.readsServed()),
      static_cast<unsigned long long>(ram1.writesServed()));
  std::printf("  ram0[3] = 0x%x (cpu0 wrote 0x%x)\n", ram0.peek(3),
              0x103);
  return done && mesh.healthy() ? 0 : 1;
}
