// A/B harness for the two settle kernels: a naive-fixpoint mesh and an
// event-driven mesh built from identical configs must stay cycle-for-cycle
// identical under random traffic.  This is the strongest correctness check
// we have for the event-driven scheduler: any module missing a sensitivity
// annotation, any stale dirty flag, any wake-up lost between cycles shows
// up here as a ledger or health divergence.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "noc/network.hpp"

namespace rasoc::noc {
namespace {

using router::FifoImpl;
using router::FlowControl;
using sim::Simulator;

struct Rig {
  std::unique_ptr<Network> mesh;

  Rig(MeshShape shape, const NetworkConfig& base, Simulator::Kernel kernel,
      const TrafficConfig& traffic) {
    NetworkConfig cfg = base;
    cfg.kernel = kernel;
    mesh = std::make_unique<Network>(std::make_shared<MeshTopology>(shape),
                                     cfg);
    mesh->attachTraffic(traffic);
  }
};

// Steps both meshes one cycle at a time and asserts the externally
// observable state stays identical.  Cheap ledger counters are compared
// every cycle; the heavier link/NI sweeps every `auditPeriod` cycles.
void runLockstep(Rig& naive, Rig& event, std::uint64_t cycles,
                 std::uint64_t auditPeriod) {
  const Topology& topology = naive.mesh->topology();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    naive.mesh->run(1);
    event.mesh->run(1);
    ASSERT_EQ(naive.mesh->ledger().queued(), event.mesh->ledger().queued())
        << "cycle " << c;
    ASSERT_EQ(naive.mesh->ledger().delivered(),
              event.mesh->ledger().delivered())
        << "cycle " << c;
    ASSERT_EQ(naive.mesh->ledger().inFlight(), event.mesh->ledger().inFlight())
        << "cycle " << c;
    if ((c + 1) % auditPeriod == 0) {
      ASSERT_EQ(naive.mesh->healthy(), event.mesh->healthy()) << "cycle " << c;
      ASSERT_DOUBLE_EQ(naive.mesh->meanLinkUtilization(),
                       event.mesh->meanLinkUtilization())
          << "cycle " << c;
      ASSERT_DOUBLE_EQ(naive.mesh->maxLinkUtilization(),
                       event.mesh->maxLinkUtilization())
          << "cycle " << c;
      for (int i = 0; i < topology.nodes(); ++i) {
        const NodeId n = topology.nodeAt(i);
        ASSERT_EQ(naive.mesh->ni(n).packetsSent(),
                  event.mesh->ni(n).packetsSent())
            << "cycle " << c << " node " << i;
        ASSERT_EQ(naive.mesh->ni(n).packetsReceived(),
                  event.mesh->ni(n).packetsReceived())
            << "cycle " << c << " node " << i;
      }
    }
  }
  // Final deep audit: the delivered payload streams themselves.
  EXPECT_TRUE(naive.mesh->healthy());
  EXPECT_TRUE(event.mesh->healthy());
  EXPECT_GT(naive.mesh->ledger().delivered(), 0u) << "vacuous run";
  for (int i = 0; i < topology.nodes(); ++i) {
    const NodeId n = topology.nodeAt(i);
    ASSERT_EQ(naive.mesh->ni(n).received(), event.mesh->ni(n).received())
        << "node " << i;
  }
  EXPECT_DOUBLE_EQ(naive.mesh->ledger().packetLatency().mean(),
                   event.mesh->ledger().packetLatency().mean());
}

TEST(KernelEquivalenceTest, EightByEightUniformRandomMultipleSeeds) {
  const MeshShape shape{8, 8};
  NetworkConfig base;
  base.params.n = 16;
  base.params.p = 4;
  for (const std::uint64_t seed : {3u, 17u, 9001u}) {
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.offeredLoad = 0.15;
    traffic.payloadFlits = 4;
    traffic.seed = seed;
    Rig naive(shape, base, Simulator::Kernel::Naive, traffic);
    Rig event(shape, base, Simulator::Kernel::EventDriven, traffic);
    SCOPED_TRACE("seed " + std::to_string(seed));
    runLockstep(naive, event, 3500, 500);
  }
}

TEST(KernelEquivalenceTest, EightByEightSaturatedTranspose) {
  // High load + deterministic hotspot pattern stresses arbitration and
  // backpressure paths where a lost wake-up would stall only one kernel.
  const MeshShape shape{8, 8};
  NetworkConfig base;
  base.params.n = 16;
  base.params.p = 2;
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::Transpose;
  traffic.offeredLoad = 0.8;
  traffic.payloadFlits = 3;
  traffic.seed = 41;
  Rig naive(shape, base, Simulator::Kernel::Naive, traffic);
  Rig event(shape, base, Simulator::Kernel::EventDriven, traffic);
  runLockstep(naive, event, 2000, 400);
}

TEST(KernelEquivalenceTest, CreditFlowControlAndFlipFlopFifos) {
  // The other microarchitectural corner: credit-based flow control with
  // flip-flop FIFOs on a smaller mesh.
  const MeshShape shape{4, 4};
  NetworkConfig base;
  base.params.n = 16;
  base.params.p = 4;
  base.params.flowControl = FlowControl::CreditBased;
  base.params.fifoImpl = FifoImpl::FlipFlop;
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::UniformRandom;
  traffic.offeredLoad = 0.25;
  traffic.payloadFlits = 2;
  traffic.seed = 7;
  Rig naive(shape, base, Simulator::Kernel::Naive, traffic);
  Rig event(shape, base, Simulator::Kernel::EventDriven, traffic);
  runLockstep(naive, event, 2500, 250);
}

TEST(KernelEquivalenceTest, FaultyLinksAndParityStayDeterministic) {
  // Fault injection draws from per-link RNG state at clock edges, so both
  // kernels must corrupt exactly the same flits.
  const MeshShape shape{4, 4};
  NetworkConfig base;
  base.params.n = 16;
  base.params.p = 4;
  base.hlpParity = true;
  base.linkFaultRate = 0.01;
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::UniformRandom;
  traffic.offeredLoad = 0.2;
  traffic.payloadFlits = 3;
  traffic.seed = 13;
  Rig naive(shape, base, Simulator::Kernel::Naive, traffic);
  Rig event(shape, base, Simulator::Kernel::EventDriven, traffic);
  for (int chunk = 0; chunk < 10; ++chunk) {
    naive.mesh->run(200);
    event.mesh->run(200);
    ASSERT_EQ(naive.mesh->flitsCorrupted(), event.mesh->flitsCorrupted())
        << "chunk " << chunk;
    ASSERT_EQ(naive.mesh->parityErrorsDetected(),
              event.mesh->parityErrorsDetected())
        << "chunk " << chunk;
    ASSERT_EQ(naive.mesh->unattributedPackets(),
              event.mesh->unattributedPackets())
        << "chunk " << chunk;
    ASSERT_EQ(naive.mesh->ledger().delivered(),
              event.mesh->ledger().delivered())
        << "chunk " << chunk;
  }
}

TEST(KernelEquivalenceTest, DrainAgreesOnCompletionCycle) {
  // runUntil boundary semantics must match across kernels too: both meshes
  // drain the same hand-crafted workload at exactly the same cycle.
  const MeshShape shape{4, 4};
  NetworkConfig base;
  base.params.n = 16;
  base.params.p = 4;
  auto build = [&](Simulator::Kernel kernel) {
    NetworkConfig cfg = base;
    cfg.kernel = kernel;
    auto mesh = std::make_unique<Network>(std::make_shared<MeshTopology>(shape),
                                          cfg);
    for (int s = 0; s < shape.nodes(); ++s) {
      for (int d = 0; d < shape.nodes(); ++d) {
        if (s == d) continue;
        mesh->ni(shape.nodeAt(s))
            .send(shape.nodeAt(d), {static_cast<std::uint32_t>(s * 16 + d)});
      }
    }
    return mesh;
  };
  auto naive = build(Simulator::Kernel::Naive);
  auto event = build(Simulator::Kernel::EventDriven);
  ASSERT_TRUE(naive->drain(20000));
  ASSERT_TRUE(event->drain(20000));
  EXPECT_EQ(naive->simulator().cycle(), event->simulator().cycle());
  EXPECT_EQ(naive->ledger().delivered(), event->ledger().delivered());
  EXPECT_TRUE(naive->healthy());
  EXPECT_TRUE(event->healthy());
}

}  // namespace
}  // namespace rasoc::noc
