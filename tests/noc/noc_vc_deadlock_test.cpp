// Virtual-channel deadlock battery: adversarial cyclic traffic run to full
// drain on the wrapping topologies at every supported VC count, under every
// settle kernel.
//
// The deadlock-freedom claim under test (DESIGN.md §12): numVCs == 1 routes
// never wrap (the network is its own mesh/line sub-network, dimension-order
// safe); numVCs >= 2 routes are minimal and may wrap, but VC0/VC1 form a
// dimension-ordered escape layer whose wrap (dateline) classes order every
// ring's channels acyclically, and adaptive VCs always keep the escape path
// as a fallback bid (Duato's criterion).  A cyclic channel-dependency bug
// does not fail an assertion by itself - it wedges the network - so every
// scenario runs under a Watchdog that trips after a bounded delivery gap
// and fails the test naming the blocked links instead of timing out ctest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "noc/watchdog.hpp"

namespace rasoc::noc {
namespace {

using router::FlowControl;
using sim::Simulator;

struct KernelPick {
  Simulator::Kernel kernel;
  const char* label;
};

const KernelPick kAllKernels[] = {
    {Simulator::Kernel::Naive, "naive"},
    {Simulator::Kernel::Compiled, "compiled"},
};

std::unique_ptr<Network> makeNet(const std::shared_ptr<const Topology>& topo,
                                 int numVCs, const KernelPick& pick,
                                 FlowControl flowControl) {
  NetworkConfig cfg;
  cfg.params.numVCs = numVCs;
  cfg.params.flowControl = flowControl;
  cfg.kernel = pick.kernel;
  return std::make_unique<Network>(topo, cfg);
}

// Runs until every queued packet delivers, with a watchdog failing fast on
// a delivery stall: a deadlock surfaces as a named-blocked-links assertion
// within ~watchdog-timeout cycles, not as a ctest timeout.
void drainGuarded(Network& net, Watchdog& dog, std::uint64_t sent,
                  const std::string& what) {
  const std::uint64_t budget = 120000;
  std::uint64_t cycles = 0;
  while (cycles < budget) {
    net.run(200);
    cycles += 200;
    if (dog.stallDetected()) break;
    if (net.ledger().delivered() == sent) break;
  }
  std::string blocked;
  for (const std::string& link : dog.snapshot().blockedLinks)
    blocked += " " + link;
  ASSERT_FALSE(dog.stallDetected())
      << what << ": delivery stalled with " << dog.snapshot().inFlightAtStall
      << " packets in flight; blocked links:" << blocked;
  ASSERT_EQ(net.ledger().delivered(), sent) << what;
  EXPECT_TRUE(net.healthy()) << what;
}

// --- adversarial send patterns ---------------------------------------------

// Every node sends to every other node: on a wrapping topology with minimal
// routing this closes every ring dependency cycle there is.
std::uint64_t sendAllToAll(Network& net, const Topology& topo) {
  std::uint64_t sent = 0;
  for (int s = 0; s < topo.nodes(); ++s)
    for (int d = 0; d < topo.nodes(); ++d) {
      if (s == d) continue;
      net.ni(topo.nodeAt(s))
          .send(topo.nodeAt(d),
                {static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(d),
                 0xabcu});
      ++sent;
    }
  return sent;
}

// (x, y) -> (y, x), several rounds: long straight paths that all turn at
// the diagonal, the classic torus adversary.
std::uint64_t sendTranspose(Network& net, const Topology& topo, int rounds) {
  std::uint64_t sent = 0;
  for (int r = 0; r < rounds; ++r)
    for (int i = 0; i < topo.nodes(); ++i) {
      const NodeId src = topo.nodeAt(i);
      const NodeId dst{src.y, src.x};
      if (dst == src || !topo.contains(dst)) continue;
      net.ni(src).send(dst, {1u, 2u, static_cast<std::uint32_t>(r)});
      ++sent;
    }
  return sent;
}

// Everyone floods one corner: maximal contention on the victim's input,
// which starves adaptive bids and forces the patience escape path.
std::uint64_t sendHotspot(Network& net, const Topology& topo, int rounds) {
  const NodeId victim = topo.nodeAt(0);
  std::uint64_t sent = 0;
  for (int r = 0; r < rounds; ++r)
    for (int i = 1; i < topo.nodes(); ++i) {
      net.ni(topo.nodeAt(i))
          .send(victim, {static_cast<std::uint32_t>(i), 7u});
      ++sent;
    }
  return sent;
}

// node i -> node N-1-i: on a ring with minimal routing, half the flows take
// the wrap hop in each direction simultaneously.
std::uint64_t sendComplement(Network& net, const Topology& topo, int rounds) {
  std::uint64_t sent = 0;
  for (int r = 0; r < rounds; ++r)
    for (int i = 0; i < topo.nodes(); ++i) {
      const NodeId dst = topo.nodeAt(topo.nodes() - 1 - i);
      const NodeId src = topo.nodeAt(i);
      if (dst == src) continue;
      net.ni(src).send(dst, {0xdeadu, static_cast<std::uint32_t>(i)});
      ++sent;
    }
  return sent;
}

using SendFn = std::uint64_t (*)(Network&, const Topology&);

void runScenario(const std::shared_ptr<const Topology>& topo, int numVCs,
                 const KernelPick& pick, FlowControl flowControl,
                 SendFn send, const std::string& what) {
  SCOPED_TRACE(what);
  auto net = makeNet(topo, numVCs, pick, flowControl);
  Watchdog dog("dog", net->ledger(), 1500,
               [&net] { return net->blockedLinkNames(); });
  net->simulator().add(dog);
  const std::uint64_t sent = send(*net, *topo);
  drainGuarded(*net, dog, sent, what);
}

std::string label(const std::shared_ptr<const Topology>& topo, int vcs,
                  const KernelPick& pick) {
  return topo->describe() + " vc" + std::to_string(vcs) + " " + pick.label;
}

// --- the battery -----------------------------------------------------------

TEST(VcDeadlockTest, RingAllToAllDrainsAtEveryVcCountOnEveryKernel) {
  const auto ring = makeTopology("ring", 8, 1);
  for (int vcs : {1, 2, 4})
    for (const KernelPick& pick : kAllKernels)
      runScenario(ring, vcs, pick, FlowControl::Handshake, &sendAllToAll,
                  label(ring, vcs, pick) + " all-to-all");
}

TEST(VcDeadlockTest, TorusAllToAllDrainsAtEveryVcCountOnEveryKernel) {
  const auto torus = makeTopology("torus", 4, 4);
  for (int vcs : {1, 2, 4})
    for (const KernelPick& pick : kAllKernels)
      runScenario(torus, vcs, pick, FlowControl::Handshake, &sendAllToAll,
                  label(torus, vcs, pick) + " all-to-all");
}

TEST(VcDeadlockTest, TorusTransposeDrainsWithWrapRoutes) {
  const auto torus = makeTopology("torus", 4, 4);
  for (int vcs : {1, 2, 4})
    for (const KernelPick& pick : kAllKernels)
      runScenario(torus, vcs, pick, FlowControl::Handshake,
                  [](Network& n, const Topology& t) {
                    return sendTranspose(n, t, 6);
                  },
                  label(torus, vcs, pick) + " transpose");
}

TEST(VcDeadlockTest, HotspotStarvationResolvesThroughTheEscapePath) {
  // Saturating one corner starves adaptive bids; the patience rotation must
  // walk every starved header onto its escape option instead of livelocking.
  for (const auto& topo :
       {makeTopology("mesh", 4, 4), makeTopology("torus", 4, 4),
        makeTopology("ring", 8, 1)}) {
    for (int vcs : {2, 4})
      for (const KernelPick& pick : kAllKernels)
        runScenario(topo, vcs, pick, FlowControl::Handshake,
                    [](Network& n, const Topology& t) {
                      return sendHotspot(n, t, 5);
                    },
                    label(topo, vcs, pick) + " hotspot");
  }
}

TEST(VcDeadlockTest, RingComplementCrossesBothWrapDirectionsAtOnce) {
  const auto ring = makeTopology("ring", 8, 1);
  for (int vcs : {2, 4})
    for (const KernelPick& pick : kAllKernels)
      runScenario(ring, vcs, pick, FlowControl::Handshake,
                  [](Network& n, const Topology& t) {
                    return sendComplement(n, t, 8);
                  },
                  label(ring, vcs, pick) + " complement");
}

TEST(VcDeadlockTest, CreditFlowControlDrainsTheSameBattery) {
  // The per-VC credit path replaces the on/off vcFree levels with counter
  // state on the sender: the same cyclic patterns must drain.
  for (const auto& topo :
       {makeTopology("torus", 4, 4), makeTopology("ring", 8, 1)}) {
    for (int vcs : {2, 4})
      for (const KernelPick& pick : kAllKernels)
        runScenario(topo, vcs, pick, FlowControl::CreditBased, &sendAllToAll,
                    label(topo, vcs, pick) + " credit all-to-all");
  }
}

TEST(VcDeadlockTest, QosClassMappedAllToAllDrainsOnEveryTopology) {
  // QoS narrows adaptive bids to per-class VC masks and replaces the output
  // round-robin with strict priority + starvation guard; Duato's criterion
  // still holds (the escape layer is class-blind and the guard bounds every
  // VC's wait), so the same adversarial cycles must drain.  Classes rotate
  // per packet so every class's lane carries wrap traffic at once.
  for (const auto& topo :
       {makeTopology("mesh", 4, 4), makeTopology("torus", 4, 4),
        makeTopology("ring", 8, 1)}) {
    for (const KernelPick& pick : kAllKernels) {
      for (FlowControl fc :
           {FlowControl::Handshake, FlowControl::CreditBased}) {
        const std::string what =
            label(topo, 4, pick) +
            (fc == FlowControl::CreditBased ? " credit" : " handshake") +
            " qos all-to-all";
        SCOPED_TRACE(what);
        NetworkConfig cfg;
        cfg.params.n = 16;  // room for the class tag above the RIB
        cfg.params.numVCs = 4;
        cfg.params.qosClasses = true;
        cfg.params.flowControl = fc;
        cfg.kernel = pick.kernel;
        auto net = std::make_unique<Network>(topo, cfg);
        Watchdog dog("dog", net->ledger(), 1500,
                     [&net] { return net->blockedLinkNames(); });
        net->simulator().add(dog);
        std::uint64_t sent = 0;
        for (int s = 0; s < topo->nodes(); ++s)
          for (int d = 0; d < topo->nodes(); ++d) {
            if (s == d) continue;
            const auto cls = static_cast<router::TrafficClass>(
                (s + d) % router::kNumTrafficClasses);
            net->ni(topo->nodeAt(s))
                .send(topo->nodeAt(d),
                      {static_cast<std::uint32_t>(s),
                       static_cast<std::uint32_t>(d)},
                      cls);
            ++sent;
          }
        drainGuarded(*net, dog, sent, what);
      }
    }
  }
}

TEST(VcDeadlockTest, GeneratorSaturationDrainsAfterTrafficPauses) {
  // Sustained generator load beyond saturation, then pause and drain: the
  // steady-state wormhole backpressure configuration, not just a burst.
  for (int vcs : {1, 2, 4}) {
    for (const auto& topo :
         {makeTopology("torus", 4, 4), makeTopology("ring", 8, 1)}) {
      SCOPED_TRACE(topo->describe() + " vc" + std::to_string(vcs));
      NetworkConfig cfg;
      cfg.params.numVCs = vcs;
      Network net(topo, cfg);
      Watchdog dog("dog", net.ledger(), 1500,
                   [&net] { return net.blockedLinkNames(); });
      net.simulator().add(dog);
      TrafficConfig traffic;
      traffic.pattern = TrafficPattern::UniformRandom;
      traffic.offeredLoad = 0.9;
      traffic.payloadFlits = 3;
      traffic.seed = 2026;
      net.attachTraffic(traffic);
      net.run(2000);
      net.pauseTraffic(true);
      ASSERT_TRUE(net.drain(60000)) << "drain hung";
      ASSERT_FALSE(dog.stallDetected());
      EXPECT_TRUE(net.healthy());
      EXPECT_EQ(net.ledger().delivered(), net.ledger().queued());
      EXPECT_GT(net.ledger().delivered(), 100u);
    }
  }
}

}  // namespace
}  // namespace rasoc::noc
