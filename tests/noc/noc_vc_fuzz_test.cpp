// Virtual-channel differential fuzz: seeded random topology x pattern x VC
// configurations run in lockstep on the Naive (reference fixpoint) and
// Compiled (word-packed tape) kernels, with three families of oracle:
//
//  1. Kernel differential — the per-cycle ledger counters, per-VC occupancy
//     vectors, and the final per-node received() payload streams must be
//     exactly equal between kernels.  Any divergence in the VC lowering
//     (arbitration order, credit timing, wrap-class bookkeeping) shows up
//     here long before it produces a user-visible bug.
//  2. Delivery semantics — every packet arrives exactly once with its
//     payload intact.  Configurations whose VCs are all escape channels
//     (numVCs <= escapeVCs) are deterministic and additionally guarantee
//     per-flow in-order delivery; adaptive configurations only promise the
//     multiset.  Payload word 0 encodes (source index, sequence number) so
//     both properties are checked from the received data alone.
//  3. Credit conservation — under credit flow control every (link, VC)
//     pair obeys  sender credits + receiver occupancy == FIFO depth  after
//     every settled cycle, including the NI-to-router local link.  A credit
//     leaked or duplicated anywhere trips this within one cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "router/params.hpp"
#include "sim/rng.hpp"

namespace rasoc::noc {
namespace {

using router::FlowControl;
using router::Port;
using sim::Simulator;
using sim::Xoshiro256;

constexpr std::uint64_t kCycleBudget = 8000;

struct FuzzConfig {
  std::shared_ptr<const Topology> topo;
  int numVCs = 1;
  FlowControl flowControl = FlowControl::Handshake;
  bool wraps = false;
  bool qos = false;

  int escapeVCs() const { return wraps ? 2 : 1; }
  // All VCs deterministic dimension-order escape channels: per-flow FIFO
  // delivery is guaranteed.  With adaptive VCs only exactly-once holds.
  bool deterministic() const { return numVCs <= escapeVCs(); }

  std::string describe() const {
    return topo->describe() + " vc" + std::to_string(numVCs) +
           (flowControl == FlowControl::CreditBased ? " credit"
                                                    : " handshake") +
           (qos ? " qos" : "");
  }
};

FuzzConfig drawConfig(Xoshiro256& rng) {
  FuzzConfig cfg;
  switch (rng.below(3)) {
    case 0:
      cfg.topo = makeTopology("mesh", 2 + static_cast<int>(rng.below(3)),
                              2 + static_cast<int>(rng.below(2)));
      cfg.wraps = false;
      break;
    case 1:
      cfg.topo = makeTopology("torus", 3 + static_cast<int>(rng.below(2)),
                              3 + static_cast<int>(rng.below(2)));
      cfg.wraps = true;
      break;
    default:
      cfg.topo = makeTopology("ring", 4 + static_cast<int>(rng.below(5)), 1);
      cfg.wraps = true;
      break;
  }
  const int vcChoices[] = {1, 2, 4};
  cfg.numVCs = vcChoices[rng.below(3)];
  cfg.flowControl =
      rng.chance(0.5) ? FlowControl::CreditBased : FlowControl::Handshake;
  // Class-mapped configurations need two adaptive VCs above the escape
  // layer, so only the vc4 draws are eligible.
  cfg.qos = cfg.numVCs - cfg.escapeVCs() >= 2 && rng.chance(0.5);
  return cfg;
}

std::unique_ptr<Network> makeNet(const FuzzConfig& cfg,
                                 Simulator::Kernel kernel) {
  NetworkConfig nc;
  nc.params.n = 16;  // payload word 0 carries (src << 8) | seq
  nc.params.numVCs = cfg.numVCs;
  nc.params.flowControl = cfg.flowControl;
  nc.params.qosClasses = cfg.qos;
  nc.kernel = kernel;
  return std::make_unique<Network>(cfg.topo, nc);
}

// One fuzzed packet: payload word 0 is (source index << 8) | per-source
// sequence number, the rest random 16-bit filler.
struct SentPacket {
  int src = 0;
  int dst = 0;
  router::TrafficClass cls = router::TrafficClass::BestEffort;
  std::vector<std::uint32_t> payload;
};

std::vector<SentPacket> drawTraffic(Xoshiro256& rng, const Topology& topo,
                                    bool qos) {
  const int nodes = topo.nodes();
  const int count = 20 + static_cast<int>(rng.below(21));
  std::vector<int> seqBySrc(static_cast<std::size_t>(nodes), 0);
  std::vector<SentPacket> sent;
  sent.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    SentPacket p;
    p.src = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes)));
    do {
      p.dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes)));
    } while (p.dst == p.src);
    if (qos)
      p.cls = static_cast<router::TrafficClass>(
          rng.below(router::kNumTrafficClasses));
    const int seq = seqBySrc[static_cast<std::size_t>(p.src)]++;
    p.payload.push_back(static_cast<std::uint32_t>((p.src << 8) | seq));
    const int filler = static_cast<int>(rng.below(3));
    for (int w = 0; w < filler; ++w)
      p.payload.push_back(static_cast<std::uint32_t>(rng.next() & 0xffffu));
    sent.push_back(std::move(p));
  }
  return sent;
}

// Sender credits plus receiver occupancy must equal the FIFO depth for
// every (link, VC) after every settled cycle — on the inter-router links
// (output channel credit counter vs the neighbour's input FIFO) and on the
// NI-to-router local link (NI send credits vs the local input FIFO).
void expectCreditConservation(Network& net, const FuzzConfig& cfg,
                              std::uint64_t cycle, const char* kernel) {
  const int depth = net.config().params.p;
  const Topology& topo = *cfg.topo;
  for (int i = 0; i < topo.nodes(); ++i) {
    const NodeId n = topo.nodeAt(i);
    const router::Rasoc& r = net.router(n);
    for (int v = 0; v < cfg.numVCs; ++v)
      ASSERT_EQ(net.ni(n).vcSendCredits(v) +
                    r.vcInputChannel(Port::Local).occupancy(v),
                depth)
          << kernel << " cycle " << cycle << " ni(" << i << ") vc" << v;
    for (Port p : router::kAllPorts) {
      if (p == Port::Local) continue;
      const auto nb = topo.neighbor(n, p);
      if (!nb) continue;
      const auto& out = r.vcOutputChannel(p);
      const auto& in = net.router(*nb).vcInputChannel(router::opposite(p));
      ASSERT_TRUE(out.credits().conserved())
          << kernel << " cycle " << cycle << " node " << i;
      for (int v = 0; v < cfg.numVCs; ++v)
        ASSERT_EQ(out.credits().credits(v) + in.occupancy(v), depth)
            << kernel << " cycle " << cycle << " link(" << n.x << "," << n.y
            << ")" << router::name(p) << " vc" << v;
    }
  }
}

// Delivery-semantics oracle over one drained network: exactly-once with
// intact payloads (multiset per destination), plus strict per-flow sequence
// order when the configuration is deterministic.
void expectDeliverySemantics(Network& net, const FuzzConfig& cfg,
                             const std::vector<SentPacket>& sent) {
  const Topology& topo = *cfg.topo;
  std::map<int, std::vector<std::vector<std::uint32_t>>> expectedByDst;
  for (const SentPacket& p : sent)
    expectedByDst[p.dst].push_back(p.payload);

  for (int i = 0; i < topo.nodes(); ++i) {
    auto got = net.ni(topo.nodeAt(i)).received();
    auto want = expectedByDst.count(i)
                    ? expectedByDst[i]
                    : std::vector<std::vector<std::uint32_t>>{};
    ASSERT_EQ(got.size(), want.size()) << "node " << i << " packet count";
    if (cfg.deterministic()) {
      // Per-flow FIFO: at each destination the sequence numbers from any
      // one source must appear in send order.
      std::map<int, int> lastSeq;
      for (const auto& payload : got) {
        ASSERT_FALSE(payload.empty());
        const int src = static_cast<int>(payload[0] >> 8);
        const int seq = static_cast<int>(payload[0] & 0xffu);
        auto it = lastSeq.find(src);
        if (it != lastSeq.end()) {
          EXPECT_GT(seq, it->second)
              << "flow " << src << "->" << i << " reordered";
        }
        lastSeq[src] = seq;
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "node " << i << " payload multiset";
  }
}

void runFuzzConfig(const FuzzConfig& cfg, Xoshiro256& rng,
                   std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + cfg.describe());

  const std::vector<SentPacket> sent = drawTraffic(rng, *cfg.topo, cfg.qos);
  auto naive = makeNet(cfg, Simulator::Kernel::Naive);
  auto compiled = makeNet(cfg, Simulator::Kernel::Compiled);
  for (const SentPacket& p : sent)
    for (Network* net : {naive.get(), compiled.get()})
      net->ni(cfg.topo->nodeAt(p.src))
          .send(cfg.topo->nodeAt(p.dst), p.payload, p.cls);

  const auto total = static_cast<std::uint64_t>(sent.size());
  const bool checkCredits =
      cfg.flowControl == FlowControl::CreditBased && cfg.numVCs > 1;
  std::uint64_t cycle = 0;
  for (; cycle < kCycleBudget; ++cycle) {
    naive->run(1);
    compiled->run(1);
    ASSERT_EQ(naive->ledger().delivered(), compiled->ledger().delivered())
        << "kernel divergence at cycle " << cycle;
    if (cfg.numVCs > 1) {
      for (int v = 0; v < cfg.numVCs; ++v) {
        ASSERT_EQ(naive->vcOccupancy(v), compiled->vcOccupancy(v))
            << "vc" << v << " occupancy divergence at cycle " << cycle;
      }
    }
    if (checkCredits) {
      expectCreditConservation(*naive, cfg, cycle, "naive");
      expectCreditConservation(*compiled, cfg, cycle, "compiled");
    }
    if (naive->ledger().delivered() == total &&
        compiled->ledger().delivered() == total)
      break;
  }
  ASSERT_LT(cycle, kCycleBudget) << "failed to drain " << total << " packets";
  for (Network* net : {naive.get(), compiled.get()})
    EXPECT_TRUE(net->healthy());

  // The two kernels must agree on the exact arrival streams, order
  // included, even for adaptive configurations.
  for (int i = 0; i < cfg.topo->nodes(); ++i) {
    const NodeId n = cfg.topo->nodeAt(i);
    ASSERT_EQ(naive->ni(n).received(), compiled->ni(n).received())
        << "node " << i << " arrival stream diverged between kernels";
  }
  expectDeliverySemantics(*compiled, cfg, sent);
}

void runFuzzIteration(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const FuzzConfig cfg = drawConfig(rng);
  runFuzzConfig(cfg, rng, seed);
}

TEST(VcFuzzTest, DifferentialLockstepAcrossRandomConfigs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) runFuzzIteration(seed);
}

TEST(VcFuzzTest, DifferentialLockstepAtForcedQosConfigs) {
  // The random draw only sometimes lands on class-mapped configurations;
  // this pass pins them: every topology family and both flow controls at
  // vc4 with qosClasses, random per-packet classes.
  std::uint64_t seed = 0x905;
  for (const char* kind : {"mesh", "torus", "ring"}) {
    for (FlowControl fc : {FlowControl::Handshake, FlowControl::CreditBased}) {
      FuzzConfig cfg;
      cfg.topo = kind == std::string("ring") ? makeTopology("ring", 6, 1)
                                             : makeTopology(kind, 3, 3);
      cfg.wraps = kind != std::string("mesh");
      cfg.numVCs = 4;
      cfg.flowControl = fc;
      cfg.qos = true;
      Xoshiro256 rng(++seed);
      runFuzzConfig(cfg, rng, seed);
    }
  }
}

TEST(VcFuzzTest, CreditConservationSurvivesSaturatingLoad) {
  // Dedicated credit-mode soak: a generator-driven overload (rather than a
  // finite packet list) keeps every FIFO churning while the invariant is
  // checked after every settled cycle.
  for (const char* kind : {"torus", "ring"}) {
    for (int vcs : {2, 4}) {
      FuzzConfig cfg;
      cfg.topo = kind == std::string("ring") ? makeTopology("ring", 6, 1)
                                             : makeTopology("torus", 3, 3);
      cfg.wraps = true;
      cfg.numVCs = vcs;
      cfg.flowControl = FlowControl::CreditBased;
      SCOPED_TRACE(cfg.describe());

      NetworkConfig nc;
      nc.params.numVCs = vcs;
      nc.params.flowControl = FlowControl::CreditBased;
      Network net(cfg.topo, nc);
      TrafficConfig traffic;
      traffic.pattern = TrafficPattern::UniformRandom;
      traffic.offeredLoad = 0.8;
      traffic.payloadFlits = 3;
      traffic.seed = 77;
      net.attachTraffic(traffic);
      for (std::uint64_t cycle = 0; cycle < 600; ++cycle) {
        net.run(1);
        expectCreditConservation(net, cfg, cycle, "compiled");
      }
      net.pauseTraffic(true);
      ASSERT_TRUE(net.drain(60000));
      expectCreditConservation(net, cfg, 600, "drained");
      EXPECT_TRUE(net.healthy());
    }
  }
}

// Regression for FaultPlan link-down windows under per-VC framing: a
// LinkDown window opens mid-packet while two packets from different sources
// interleave flit-by-flit on distinct adaptive VCs of the same physical
// link (the ring-5 wrap link).  The window must freeze both VCs without
// dropping flits or credits, and both packets must complete intact once it
// closes.
TEST(VcFuzzTest, LinkDownMidPacketFreezesBothVcsWithoutCorruption) {
  for (FlowControl fc : {FlowControl::Handshake, FlowControl::CreditBased}) {
    SCOPED_TRACE(fc == FlowControl::CreditBased ? "credit" : "handshake");
    const auto ring = makeTopology("ring", 5, 1);
    NetworkConfig nc;
    nc.params.n = 16;
    nc.params.numVCs = 4;
    nc.params.flowControl = fc;
    // The ring-5 wrap link: minimal eastbound wrap routes from nodes 3 and
    // 4 both cross it.
    nc.faultPlan.events.push_back(
        {LinkId{NodeId{4, 0}, Port::East}, FaultKind::LinkDown, 8, 40, 1.0});
    Network net(ring, nc);

    // 3 -> 0 (wraps 3,4,0) and 4 -> 1 (wraps 4,0,1): long payloads so both
    // packets are still streaming across link(4,0)E when the window opens.
    std::vector<std::uint32_t> a, b;
    for (std::uint32_t w = 0; w < 12; ++w) {
      a.push_back(0x100u + w);
      b.push_back(0x200u + w);
    }
    net.ni(NodeId{3, 0}).send(NodeId{0, 0}, a);
    net.ni(NodeId{4, 0}).send(NodeId{1, 0}, b);

    ASSERT_TRUE(net.drain(4000));
    EXPECT_TRUE(net.healthy());
    EXPECT_GT(net.faultStallCycles(), 0u) << "window never bit";
    EXPECT_EQ(net.flitsDropped(), 0u);
    ASSERT_EQ(net.ni(NodeId{0, 0}).received().size(), 1u);
    ASSERT_EQ(net.ni(NodeId{1, 0}).received().size(), 1u);
    EXPECT_EQ(net.ni(NodeId{0, 0}).received()[0], a);
    EXPECT_EQ(net.ni(NodeId{1, 0}).received()[0], b);

    // Both packets crossed the wrap link, and the adaptive allocator put
    // them on distinct VCs — the interleave the window had to freeze.
    int vcsUsed = 0;
    const auto& wrapOut = net.router(NodeId{4, 0}).vcOutputChannel(Port::East);
    for (int v = 0; v < 4; ++v)
      if (wrapOut.flitsSent(v) > 0) ++vcsUsed;
    EXPECT_GE(vcsUsed, 2) << "packets never interleaved on the wrap link";
  }
}

}  // namespace
}  // namespace rasoc::noc
