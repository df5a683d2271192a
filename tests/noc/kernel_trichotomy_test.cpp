// Kernel differential harness: Naive and Compiled networks built from
// identical configurations must stay cycle-for-cycle identical.  (The
// KernelTrichotomyTest suite name predates the removal of a third,
// event-driven kernel.)  The compiled kernel's claim is the strong one (a
// whole different execution substrate: word-packed arena + levelized op
// tape), so this suite pins it five ways against the naive reference:
//
//  1. The golden cycle fingerprints network_topology_test.cpp pins for the
//     naive kernel must reproduce exactly under the compiled kernel (same
//     queued/delivered/flit counts and the same latency means to the last
//     ulp).
//  2. Lockstep runs on mesh, torus and ring topologies, VC and QoS
//     networks compare the kernels per cycle (KernelTrichotomyTest).
//  3. Lockstep runs at 8x8 and over the microarchitectural corners
//     (saturation, credit flow control with flip-flop FIFOs, faulty links
//     with parity) do the same (KernelEquivalenceTest).
//  4. A saturated flood-and-drain must complete in the same cycle with the
//     same delivery count under both kernels.
//  5. A fault campaign (background corruption + scheduled stall/outage
//     windows) must produce identical recovery behaviour under the
//     compiled kernel, whose fault links run as phase ops in the same
//     single linear pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "noc/observe.hpp"
#include "noc/topology.hpp"
#include "noc/watchdog.hpp"
#include "sim/compile.hpp"
#include "telemetry/report.hpp"

namespace rasoc::noc {
namespace {

using sim::Simulator;

const Simulator::Kernel kAllKernels[] = {Simulator::Kernel::Naive,
                                         Simulator::Kernel::Compiled};

NetworkConfig baseConfig(
    int numVCs = 1,
    router::FlowControl flowControl = router::FlowControl::Handshake) {
  NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.params.numVCs = numVCs;
  cfg.params.flowControl = flowControl;
  return cfg;
}

std::unique_ptr<Network> makeNet(const std::shared_ptr<const Topology>& topo,
                                 NetworkConfig cfg, Simulator::Kernel kernel,
                                 const TrafficConfig& traffic) {
  cfg.kernel = kernel;
  auto net = std::make_unique<Network>(topo, cfg);
  net->attachTraffic(traffic);
  return net;
}

// One network per kernel, the naive reference first.
std::vector<std::unique_ptr<Network>> makeNets(
    const std::shared_ptr<const Topology>& topo, const NetworkConfig& base,
    const TrafficConfig& traffic) {
  std::vector<std::unique_ptr<Network>> nets;
  for (const Simulator::Kernel kernel : kAllKernels)
    nets.push_back(makeNet(topo, base, kernel, traffic));
  return nets;
}

// A fault-free VC network must compile, in one linear pass, with the VC
// router's nets bound to arena words (its channels and links are
// word-level ops).
void expectAcyclicOpsOnly(const Network& compiled) {
  const sim::CompiledProgram* prog = compiled.simulator().compiledProgram();
  ASSERT_NE(prog, nullptr);
  EXPECT_GT(prog->opCount(), 0u);
  EXPECT_GT(prog->wordCount(), 0u);
}

// Steps every network one cycle at a time and asserts the externally
// observable state stays identical to nets[0] (the reference).  Cheap
// ledger counters every cycle, heavier link/NI sweeps every auditPeriod.
void runLockstep(std::vector<std::unique_ptr<Network>>& nets,
                 std::uint64_t cycles, std::uint64_t auditPeriod) {
  ASSERT_GE(nets.size(), 2u);
  Network& ref = *nets[0];
  const Topology& topo = ref.topology();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    for (auto& net : nets) net->run(1);
    for (std::size_t k = 1; k < nets.size(); ++k) {
      Network& net = *nets[k];
      ASSERT_EQ(ref.ledger().queued(), net.ledger().queued())
          << "net " << k << " cycle " << c;
      ASSERT_EQ(ref.ledger().delivered(), net.ledger().delivered())
          << "net " << k << " cycle " << c;
      ASSERT_EQ(ref.ledger().inFlight(), net.ledger().inFlight())
          << "net " << k << " cycle " << c;
      if ((c + 1) % auditPeriod == 0) {
        ASSERT_EQ(ref.healthy(), net.healthy())
            << "net " << k << " cycle " << c;
        ASSERT_DOUBLE_EQ(ref.meanLinkUtilization(), net.meanLinkUtilization())
            << "net " << k << " cycle " << c;
        ASSERT_DOUBLE_EQ(ref.maxLinkUtilization(), net.maxLinkUtilization())
            << "net " << k << " cycle " << c;
        for (int i = 0; i < topo.nodes(); ++i) {
          const NodeId n = topo.nodeAt(i);
          ASSERT_EQ(ref.ni(n).packetsSent(), net.ni(n).packetsSent())
              << "net " << k << " cycle " << c << " node " << i;
          ASSERT_EQ(ref.ni(n).packetsReceived(), net.ni(n).packetsReceived())
              << "net " << k << " cycle " << c << " node " << i;
        }
      }
    }
  }
  // Final deep audit: the delivered payload streams themselves.
  EXPECT_GT(ref.ledger().delivered(), 0u) << "vacuous run";
  for (std::size_t k = 0; k < nets.size(); ++k)
    EXPECT_TRUE(nets[k]->healthy()) << "net " << k;
  for (std::size_t k = 1; k < nets.size(); ++k) {
    for (int i = 0; i < topo.nodes(); ++i) {
      const NodeId n = topo.nodeAt(i);
      ASSERT_EQ(ref.ni(n).received(), nets[k]->ni(n).received())
          << "net " << k << " node " << i;
    }
    EXPECT_DOUBLE_EQ(ref.ledger().packetLatency().mean(),
                     nets[k]->ledger().packetLatency().mean())
        << "net " << k;
    EXPECT_DOUBLE_EQ(ref.ledger().networkLatency().mean(),
                     nets[k]->ledger().networkLatency().mean())
        << "net " << k;
  }
}

// --- golden fingerprints ---------------------------------------------------

// The exact constants network_topology_test.cpp records for the 8x8 mesh
// under the naive kernel.  The compiled kernel must reproduce them
// bit-for-bit.
struct Golden {
  TrafficPattern pattern;
  double load;
  std::uint64_t queued;
  std::uint64_t delivered;
  std::uint64_t flits;
  double latMean;
  double netMean;
};

const Golden kMeshGoldens[] = {
    {TrafficPattern::UniformRandom, 0.05, 1031, 1023, 6138,
     19.066471163245357, 18.885630498533725},
    {TrafficPattern::UniformRandom, 0.20, 4302, 4244, 25464,
     36.793826578699338, 31.726672950047124},
    {TrafficPattern::UniformRandom, 0.50, 5109, 4805, 28830,
     115.77023933402705, 56.147138397502601},
    {TrafficPattern::Transpose, 0.05, 881, 875, 5250, 20.017142857142858,
     19.850285714285715},
    {TrafficPattern::Transpose, 0.20, 3227, 3098, 18588, 69.399935442220794,
     42.611039380245316},
    {TrafficPattern::Transpose, 0.50, 3936, 3707, 22242, 106.40814674939304,
     48.710008092797409},
};

TEST(CompiledGoldenTest, MeshFingerprintsMatchNaiveGoldens) {
  for (const Golden& g : kMeshGoldens) {
    SCOPED_TRACE("pattern " + std::string(name(g.pattern)) + " load " +
                 std::to_string(g.load));
    TrafficConfig traffic;
    traffic.pattern = g.pattern;
    traffic.offeredLoad = g.load;
    traffic.payloadFlits = 4;
    traffic.seed = 2026;
    auto net = makeNet(std::make_shared<MeshTopology>(MeshShape{8, 8}),
                       baseConfig(), Simulator::Kernel::Compiled, traffic);
    net->run(2000);
    EXPECT_EQ(net->ledger().queued(), g.queued);
    EXPECT_EQ(net->ledger().delivered(), g.delivered);
    EXPECT_EQ(net->ledger().flitsDelivered(), g.flits);
    EXPECT_DOUBLE_EQ(net->ledger().packetLatency().mean(), g.latMean);
    EXPECT_DOUBLE_EQ(net->ledger().networkLatency().mean(), g.netMean);
    EXPECT_TRUE(net->healthy());
    // The run must actually have executed a lowered program: 1888
    // word-level ops for the routers and links, plus two phase ops per NI
    // (presentSend, ackRx).
    const sim::CompiledProgram* prog = net->simulator().compiledProgram();
    ASSERT_NE(prog, nullptr);
    EXPECT_EQ(prog->opCount(), 1888u + 2u * 64u);
  }
}

// --- lockstep trichotomy ---------------------------------------------------

TEST(KernelTrichotomyTest, TorusUniformRandomLockstep) {
  const auto topo = makeTopology("torus", 4, 4);
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::UniformRandom;
  traffic.offeredLoad = 0.30;
  traffic.payloadFlits = 3;
  traffic.seed = 1234;
  auto nets = makeNets(topo, baseConfig(), traffic);
  runLockstep(nets, 1200, 300);
}

TEST(KernelTrichotomyTest, RingBitComplementLockstep) {
  // Transpose cannot exist on a ring; BitComplement is the long-haul
  // pattern, pairing node i with node N-1-i across the ring's full span.
  const auto topo = makeTopology("ring", 8, 1);
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::BitComplement;
  traffic.offeredLoad = 0.25;
  traffic.payloadFlits = 4;
  traffic.seed = 77;
  auto nets = makeNets(topo, baseConfig(), traffic);
  runLockstep(nets, 1500, 300);
}

TEST(KernelTrichotomyTest, MeshSaturatedTransposeLockstep) {
  // High load stresses arbitration and backpressure, where a mis-levelized
  // op would stall only one kernel.
  const auto topo = makeTopology("mesh", 4, 4);
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::Transpose;
  traffic.offeredLoad = 0.80;
  traffic.payloadFlits = 3;
  traffic.seed = 41;
  auto nets = makeNets(topo, baseConfig(), traffic);
  runLockstep(nets, 1000, 250);
}

TEST(KernelTrichotomyTest, VirtualChannelLockstepAtTwoAndFourVCs) {
  // The VC'd channels (VcInputChannel / VcOutputChannel) are a different
  // state machine from the 1-VC router, with their own compiled-kernel
  // lowerings; the kernels' bit-identity claim must hold for them too,
  // under on/off (vcFree) and credit (vcAck) flow control alike.  Torus and
  // ring exercise wrap (escape dateline-class) routes, mesh the
  // adaptive-over-one-escape configuration.
  for (const auto& topo :
       {makeTopology("mesh", 4, 4), makeTopology("torus", 4, 4),
        makeTopology("ring", 8, 1)}) {
    for (int vcs : {2, 4}) {
      for (const router::FlowControl flow :
           {router::FlowControl::Handshake,
            router::FlowControl::CreditBased}) {
        SCOPED_TRACE(topo->describe() + " vc" + std::to_string(vcs) +
                     (flow == router::FlowControl::CreditBased ? " credit"
                                                               : " on/off"));
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.offeredLoad = 0.30;
        traffic.payloadFlits = 3;
        traffic.seed = 555;
        auto nets = makeNets(topo, baseConfig(vcs, flow), traffic);
        runLockstep(nets, 800, 200);
        expectAcyclicOpsOnly(*nets.back());
      }
    }
  }
}

TEST(KernelTrichotomyTest, QosMixedClassLockstepAtFourVCs) {
  // QoS adds class-tagged headers, the class->VC bid mask, the NI's per-VC
  // inject queues and the output channels' strict-priority-with-starvation
  // scheduler; all of it must stay bit-identical across the kernels (the
  // modules lower as phase ops calling the same member functions their
  // evaluate() calls, so this pins the shared behavioural code under both
  // the swept and the levelized schedule).
  for (const auto& topo :
       {makeTopology("mesh", 4, 4), makeTopology("torus", 4, 4),
        makeTopology("ring", 8, 1)}) {
    SCOPED_TRACE(topo->describe());
    FlowSpec control;
    control.trafficClass = router::TrafficClass::Control;
    control.traffic.offeredLoad = 0.05;
    control.traffic.payloadFlits = 2;
    control.traffic.seed = 31;
    FlowSpec bulk;
    bulk.trafficClass = router::TrafficClass::Bulk;
    bulk.traffic.offeredLoad = 0.45;
    bulk.traffic.payloadFlits = 4;
    bulk.traffic.seed = 32;
    std::vector<std::unique_ptr<Network>> nets;
    for (const Simulator::Kernel kernel : kAllKernels) {
      NetworkConfig cfg;
      cfg.params.n = 16;
      cfg.params.p = 4;
      cfg.params.numVCs = 4;
      cfg.params.qosClasses = true;
      cfg.kernel = kernel;
      auto net = std::make_unique<Network>(topo, cfg);
      net->attachTraffic(std::vector<FlowSpec>{control, bulk});
      nets.push_back(std::move(net));
    }
    runLockstep(nets, 800, 200);
    expectAcyclicOpsOnly(*nets.back());
    // The classes must both have flowed for the lockstep to mean anything.
    EXPECT_GT(nets[0]->ledger().delivered(router::TrafficClass::Control), 0u);
    EXPECT_GT(nets[0]->ledger().delivered(router::TrafficClass::Bulk), 0u);
  }
}

TEST(KernelTrichotomyTest, FaultFreeVcNetworksCompileAcyclic) {
  // The whole fault-free VC configuration space settles in one linear pass.
  for (const auto& topo :
       {makeTopology("mesh", 4, 4), makeTopology("torus", 4, 4),
        makeTopology("ring", 8, 1)}) {
    for (int vcs : {2, 4}) {
      for (const router::FlowControl flow :
           {router::FlowControl::Handshake,
            router::FlowControl::CreditBased}) {
        for (const bool qos : {false, true}) {
          // QoS needs two adaptive VCs above the escape layer.
          if (qos && vcs < 4) continue;
          SCOPED_TRACE(topo->describe() + " vc" + std::to_string(vcs) +
                       (flow == router::FlowControl::CreditBased ? " credit"
                                                                 : " on/off") +
                       (qos ? " qos" : ""));
          NetworkConfig cfg;
          cfg.params.n = 16;
          cfg.params.p = 4;
          cfg.params.numVCs = vcs;
          cfg.params.flowControl = flow;
          cfg.params.qosClasses = qos;
          Network net(topo, cfg);
          net.run(1);
          expectAcyclicOpsOnly(net);
        }
      }
    }
  }
}

TEST(KernelTrichotomyTest, TelemetryEnabledMidRunMatchesAcrossKernels) {
  // Every channel's compiled edge op is chosen by whether metrics are
  // attached, so attaching them after the first compile must rebuild the
  // program: a late enableTelemetry() has to count exactly what the naive
  // kernel counts.  Checked on the QoS VC router and on the single-VC
  // router under both flow controls.
  const auto topo = makeTopology("mesh", 4, 4);
  FlowSpec control;
  control.trafficClass = router::TrafficClass::Control;
  control.traffic.offeredLoad = 0.05;
  control.traffic.payloadFlits = 2;
  control.traffic.seed = 61;
  FlowSpec bulk;
  bulk.trafficClass = router::TrafficClass::Bulk;
  bulk.traffic.offeredLoad = 0.35;
  bulk.traffic.payloadFlits = 4;
  bulk.traffic.seed = 62;
  struct Case {
    const char* name;
    int numVCs;
    router::FlowControl flow;
  };
  for (const Case& c :
       {Case{"qos vc4", 4, router::FlowControl::Handshake},
        Case{"vc1 handshake", 1, router::FlowControl::Handshake},
        Case{"vc1 credit", 1, router::FlowControl::CreditBased}}) {
    SCOPED_TRACE(c.name);
    std::vector<std::string> reports;
    for (const Simulator::Kernel kernel : kAllKernels) {
      NetworkConfig cfg = baseConfig(c.numVCs, c.flow);
      cfg.params.qosClasses = c.numVCs > 1;
      cfg.kernel = kernel;
      telemetry::MetricsRegistry registry;
      Network net(topo, cfg);
      if (c.numVCs > 1)
        net.attachTraffic(std::vector<FlowSpec>{control, bulk});
      else
        net.attachTraffic(bulk.traffic);
      net.run(50);
      net.enableTelemetry(registry);
      net.run(400);
      EXPECT_GT(registry.counterValue(routerMetricPrefix(topo->nodeAt(5)) +
                                      ".flits_routed"),
                0u);
      telemetry::RunReport report("late_telemetry");
      report.attachRegistry(registry);
      reports.push_back(report.toJson());
    }
    EXPECT_EQ(reports[0], reports[1]);
  }
}

// --- naive-vs-compiled equivalence -----------------------------------------

TEST(KernelEquivalenceTest, EightByEightUniformRandomMultipleSeeds) {
  const auto topo = std::make_shared<MeshTopology>(MeshShape{8, 8});
  for (const std::uint64_t seed : {3u, 17u, 9001u}) {
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.offeredLoad = 0.15;
    traffic.payloadFlits = 4;
    traffic.seed = seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto nets = makeNets(topo, baseConfig(), traffic);
    runLockstep(nets, 3500, 500);
  }
}

TEST(KernelEquivalenceTest, EightByEightSaturatedTranspose) {
  // High load + deterministic hotspot pattern stresses arbitration and
  // backpressure paths at the full 8x8 scale, with shallow FIFOs.
  NetworkConfig base = baseConfig();
  base.params.p = 2;
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::Transpose;
  traffic.offeredLoad = 0.8;
  traffic.payloadFlits = 3;
  traffic.seed = 41;
  auto nets =
      makeNets(std::make_shared<MeshTopology>(MeshShape{8, 8}), base, traffic);
  runLockstep(nets, 2000, 400);
}

TEST(KernelEquivalenceTest, CreditFlowControlAndFlipFlopFifos) {
  // The microarchitectural corners on a smaller mesh: every flow control
  // with every FIFO implementation (credit-based flow control with
  // flip-flop FIFOs first, the corner this test was written for).  The
  // single-VC channel's compiled ops serve all four.
  for (const router::FlowControl flow :
       {router::FlowControl::CreditBased, router::FlowControl::Handshake}) {
    for (const router::FifoImpl fifo :
         {router::FifoImpl::FlipFlop, router::FifoImpl::Eab}) {
      SCOPED_TRACE(std::string(flow == router::FlowControl::CreditBased
                                   ? "credit"
                                   : "handshake") +
                   (fifo == router::FifoImpl::FlipFlop ? " flip-flop"
                                                       : " eab"));
      NetworkConfig base = baseConfig(1, flow);
      base.params.fifoImpl = fifo;
      TrafficConfig traffic;
      traffic.pattern = TrafficPattern::UniformRandom;
      traffic.offeredLoad = 0.25;
      traffic.payloadFlits = 2;
      traffic.seed = 7;
      auto nets = makeNets(std::make_shared<MeshTopology>(MeshShape{4, 4}),
                           base, traffic);
      runLockstep(nets, 2500, 250);
    }
  }
}

TEST(KernelEquivalenceTest, FaultyLinksAndParityStayDeterministic) {
  // Fault injection draws from per-link RNG state at clock edges, so both
  // kernels must corrupt exactly the same flits.
  NetworkConfig base = baseConfig();
  base.hlpParity = true;
  base.linkFaultRate = 0.01;
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::UniformRandom;
  traffic.offeredLoad = 0.2;
  traffic.payloadFlits = 3;
  traffic.seed = 13;
  auto nets =
      makeNets(std::make_shared<MeshTopology>(MeshShape{4, 4}), base, traffic);
  Network& naive = *nets[0];
  Network& compiled = *nets[1];
  for (int chunk = 0; chunk < 10; ++chunk) {
    naive.run(200);
    compiled.run(200);
    ASSERT_EQ(naive.flitsCorrupted(), compiled.flitsCorrupted())
        << "chunk " << chunk;
    ASSERT_EQ(naive.parityErrorsDetected(), compiled.parityErrorsDetected())
        << "chunk " << chunk;
    ASSERT_EQ(naive.unattributedPackets(), compiled.unattributedPackets())
        << "chunk " << chunk;
    ASSERT_EQ(naive.ledger().delivered(), compiled.ledger().delivered())
        << "chunk " << chunk;
  }
}

TEST(KernelEquivalenceTest, DrainAgreesOnCompletionCycle) {
  // runUntil boundary semantics must match across kernels too: both meshes
  // drain the same hand-crafted all-to-all workload at exactly the same
  // cycle.
  const MeshShape shape{4, 4};
  std::vector<std::unique_ptr<Network>> nets;
  for (const Simulator::Kernel kernel : kAllKernels) {
    NetworkConfig cfg = baseConfig();
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
    ASSERT_TRUE(mesh->drain(20000));
    EXPECT_TRUE(mesh->healthy());
    nets.push_back(std::move(mesh));
  }
  EXPECT_EQ(nets[0]->simulator().cycle(), nets[1]->simulator().cycle());
  EXPECT_EQ(nets[0]->ledger().delivered(), nets[1]->ledger().delivered());
}

// --- fault-campaign agreement ----------------------------------------------

// A fault campaign (background corruption plus stall and outage windows)
// on a 4x4 mesh, stepped in lockstep under both kernels.
void runFaultCampaignLockstep(int numVCs, router::FlowControl flow) {
  const auto topo = makeTopology("mesh", 4, 4);
  CampaignConfig campaign;
  campaign.horizon = 1500;
  campaign.corruptRate = 0.02;
  campaign.corruptLinkFraction = 0.5;
  campaign.stallEvents = 2;
  campaign.dropEvents = 2;
  campaign.minDuration = 16;
  campaign.maxDuration = 48;
  campaign.seed = 0xc0ffee;
  // A single-VC credit link rejects stall and drop windows (its ack wire
  // carries credit returns), so that leg runs the corruption alone.
  const bool windows = numVCs > 1 || flow == router::FlowControl::Handshake;
  if (!windows) campaign.stallEvents = campaign.dropEvents = 0;
  ReliabilityConfig reliability;
  reliability.enabled = true;
  reliability.seqBits = 6;
  reliability.window = 8;
  reliability.rtoInitial = 64;
  reliability.rtoMax = 1024;
  reliability.nackMinInterval = 16;
  std::vector<std::unique_ptr<Network>> nets;
  for (const Simulator::Kernel kernel : kAllKernels) {
    NetworkConfig cfg = baseConfig(numVCs, flow);
    cfg.kernel = kernel;
    cfg.reliability = reliability;
    cfg.faultPlan = makeFaultPlan(*topo, campaign);
    auto net = std::make_unique<Network>(topo, cfg);
    TrafficConfig traffic;
    traffic.offeredLoad = 0.1;
    traffic.payloadFlits = 4;
    traffic.seed = 11;
    net->attachTraffic(traffic);
    nets.push_back(std::move(net));
  }
  Network& ref = *nets[0];
  Network& compiled = *nets[1];
  for (std::uint64_t c = 0; c < 1500; ++c) {
    ref.run(1);
    compiled.run(1);
    ASSERT_EQ(ref.ledger().queued(), compiled.ledger().queued())
        << "cycle " << c;
    ASSERT_EQ(ref.ledger().delivered(), compiled.ledger().delivered())
        << "cycle " << c;
    ASSERT_EQ(ref.flitsCorrupted(), compiled.flitsCorrupted())
        << "cycle " << c;
    ASSERT_EQ(ref.flitsDropped(), compiled.flitsDropped()) << "cycle " << c;
    ASSERT_EQ(ref.faultStallCycles(), compiled.faultStallCycles())
        << "cycle " << c;
  }
  EXPECT_GT(ref.flitsCorrupted() + ref.flitsDropped() + ref.faultStallCycles(),
            0u)
      << "the campaign must actually have perturbed the run";
  for (int i = 0; i < topo->nodes(); ++i) {
    const NodeId n = topo->nodeAt(i);
    ASSERT_EQ(ref.ni(n).received(), compiled.ni(n).received())
        << "node " << i;
  }
  // Every FaultyLink lowers to phase ops, so the campaign compiles to one
  // linear pass of ops.
  const sim::CompiledProgram* prog = compiled.simulator().compiledProgram();
  ASSERT_NE(prog, nullptr);
  EXPECT_GT(prog->opCount(), 0u);
}

TEST(KernelTrichotomyTest, FaultCampaignLockstepCompiledVsNaive) {
  // Under a fault campaign every link is a FaultyLink, whose phase ops
  // read and drive the packed channel words of the single-VC channels
  // through Wire objects, under both flow controls.
  for (const router::FlowControl flow :
       {router::FlowControl::Handshake, router::FlowControl::CreditBased}) {
    SCOPED_TRACE(flow == router::FlowControl::CreditBased ? "credit"
                                                          : "handshake");
    runFaultCampaignLockstep(1, flow);
  }
}

TEST(KernelTrichotomyTest, FaultCampaignLockstepCompiledVsNaiveAtFourVCs) {
  // At VC > 1 the FaultyLink phase ops read and drive the packed channel
  // words of arena-bound VC channels: their reads refresh through
  // Wire::get and their writes land through Wire::set.
  for (const router::FlowControl flow :
       {router::FlowControl::Handshake, router::FlowControl::CreditBased}) {
    SCOPED_TRACE(flow == router::FlowControl::CreditBased ? "credit"
                                                          : "on/off");
    runFaultCampaignLockstep(4, flow);
  }
}

TEST(KernelTrichotomyTest, WatchdogAddsAnEdgeCallAndNoSettleUnit) {
  // An edge-only module lowers to its clock edge alone: a 4x4 mesh with a
  // Watchdog compiles to the same settle units as the same mesh without.
  const auto topo = makeTopology("mesh", 4, 4);
  Network plain(topo, baseConfig());
  plain.run(10);
  Network guarded(topo, baseConfig());
  Watchdog dog("dog", guarded.ledger(), 100);
  guarded.simulator().add(dog);
  guarded.run(10);
  const sim::CompiledProgram* plainProg = plain.simulator().compiledProgram();
  const sim::CompiledProgram* guardedProg =
      guarded.simulator().compiledProgram();
  ASSERT_NE(plainProg, nullptr);
  ASSERT_NE(guardedProg, nullptr);
  EXPECT_EQ(guardedProg->unitCount(), plainProg->unitCount());
  EXPECT_EQ(guardedProg->edgeItemCount(), plainProg->edgeItemCount() + 1);
}

// --- drain agreement -------------------------------------------------------

TEST(KernelTrichotomyTest, FloodDrainCompletesIdenticallyUnderAllKernels) {
  // Explicit sends (no generators) so the network can fully drain; every
  // kernel must deliver the same packet count and report drain completion
  // at the same simulator cycle.
  for (const auto& topo :
       {makeTopology("mesh", 3, 3), makeTopology("torus", 4, 4),
        makeTopology("ring", 6, 1)}) {
    SCOPED_TRACE(topo->describe());
    struct Run {
      std::uint64_t cycle = 0;
      std::uint64_t delivered = 0;
    };
    std::vector<Run> runs;
    for (const Simulator::Kernel kernel : kAllKernels) {
      NetworkConfig cfg;
      cfg.kernel = kernel;
      Network net(topo, cfg);
      std::uint64_t sent = 0;
      for (int round = 0; round < 4; ++round) {
        for (int s = 0; s < topo->nodes(); ++s) {
          const NodeId src = topo->nodeAt(s);
          const NodeId dst = topo->nodeAt((s + 1 + round) % topo->nodes());
          if (dst == src) continue;
          net.ni(src).send(dst, {1u, 2u, 3u, static_cast<std::uint32_t>(s)});
          ++sent;
        }
      }
      ASSERT_TRUE(net.drain(20000));
      EXPECT_TRUE(net.healthy());
      EXPECT_EQ(net.ledger().delivered(), sent);
      runs.push_back({net.simulator().cycle(), net.ledger().delivered()});
    }
    for (std::size_t k = 1; k < runs.size(); ++k) {
      EXPECT_EQ(runs[0].cycle, runs[k].cycle) << "kernel " << k;
      EXPECT_EQ(runs[0].delivered, runs[k].delivered) << "kernel " << k;
    }
  }
}

}  // namespace
}  // namespace rasoc::noc
