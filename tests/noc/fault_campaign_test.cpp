// Fault-injection campaigns end to end: plan generation and validation,
// the cycle-level effect of stall and outage windows, exactly-once
// delivery with the reliability protocol enabled across topologies and
// settle kernels, the documented degradation without it, and the watchdog
// naming the wedged link.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "noc/fault.hpp"
#include "noc/flow_trace.hpp"
#include "noc/network.hpp"
#include "noc/observe.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"
#include "noc/watchdog.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"

namespace rasoc::noc {
namespace {

using router::Port;

// Default RouterParams carry 8-bit flits, so the control word (seqBits + 2
// type bits) caps seqBits at 6.
ReliabilityConfig reliabilityOn(int seqBits = 6, int window = 8) {
  ReliabilityConfig r;
  r.enabled = true;
  r.seqBits = seqBits;
  r.window = window;
  r.rtoInitial = 64;
  r.rtoMax = 1024;
  r.nackMinInterval = 16;
  return r;
}

bool sameEvent(const FaultEvent& a, const FaultEvent& b) {
  return a.link.from == b.link.from && a.link.port == b.link.port &&
         a.kind == b.kind && a.start == b.start && a.duration == b.duration &&
         a.rate == b.rate;
}

TEST(FaultPlanTest, CampaignGenerationIsSeedDeterministic) {
  auto topology = makeTopology("torus", 3, 3);
  CampaignConfig cfg;
  cfg.horizon = 2000;
  cfg.corruptRate = 0.02;
  cfg.corruptLinkFraction = 0.5;
  cfg.stallEvents = 3;
  cfg.dropEvents = 3;
  cfg.seed = 77;
  const FaultPlan a = makeFaultPlan(*topology, cfg);
  const FaultPlan b = makeFaultPlan(*topology, cfg);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_TRUE(sameEvent(a.events[i], b.events[i])) << "event " << i;
  EXPECT_EQ(a.count(FaultKind::StuckAck), 3u);
  EXPECT_EQ(a.count(FaultKind::LinkDown), 3u);
  EXPECT_GT(a.count(FaultKind::Corrupt), 0u);
  EXPECT_NO_THROW(a.validate(*topology));

  cfg.seed = 78;
  const FaultPlan c = makeFaultPlan(*topology, cfg);
  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i)
    differs = !sameEvent(a.events[i], c.events[i]);
  EXPECT_TRUE(differs) << "different seeds must give different campaigns";
}

TEST(FaultPlanTest, ValidateRejectsLinksTheTopologyLacks) {
  auto mesh = makeTopology("mesh", 3, 3);
  FaultPlan plan;
  // (2,0) has no East neighbour on a 3x3 mesh (it would on a torus).
  plan.events.push_back({LinkId{NodeId{2, 0}, Port::East},
                         FaultKind::Corrupt, 0, 100, 0.5});
  EXPECT_THROW(plan.validate(*mesh), std::invalid_argument);
  EXPECT_NO_THROW(plan.validate(*makeTopology("torus", 3, 3)));

  FaultPlan zeroLength;
  zeroLength.events.push_back(
      {LinkId{NodeId{0, 0}, Port::East}, FaultKind::StuckAck, 0, 0, 1.0});
  EXPECT_THROW(zeroLength.validate(*mesh), std::invalid_argument);

  // The Network builder runs the same validation.
  NetworkConfig cfg;
  cfg.faultPlan = plan;
  EXPECT_THROW(Network(mesh, cfg), std::invalid_argument);
}

TEST(FaultPlanTest, NetworkRejectsStallWindowsUnderSingleVcCredits) {
  // A single-VC credit link's ack wire carries credit returns, so it has
  // no stuck-ack state to model; the network must refuse the plan and name
  // the flow control to change.
  auto mesh = makeTopology("mesh", 4, 4);
  NetworkConfig cfg;
  cfg.params.flowControl = router::FlowControl::CreditBased;
  cfg.faultPlan.events.push_back(
      {LinkId{NodeId{1, 1}, Port::East}, FaultKind::StuckAck, 10, 20, 1.0});
  try {
    Network net(mesh, cfg);
    ADD_FAILURE() << "a stall window under single-VC credits was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("handshake flow control"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultPlanTest, ValidateRejectsNanRates) {
  auto mesh = makeTopology("mesh", 3, 3);
  FaultPlan plan;
  plan.events.push_back({LinkId{NodeId{0, 0}, Port::East}, FaultKind::Corrupt,
                         0, 100, std::numeric_limits<double>::quiet_NaN()});
  EXPECT_THROW(plan.validate(*mesh), std::invalid_argument);
}

TEST(FaultPlanTest, CampaignRejectsNanFractions) {
  // A NaN rate or link fraction must not quietly yield an empty campaign.
  auto mesh = makeTopology("mesh", 3, 3);
  CampaignConfig rate;
  rate.corruptRate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(makeFaultPlan(*mesh, rate), std::invalid_argument);
  CampaignConfig fraction;
  fraction.corruptRate = 0.01;
  fraction.corruptLinkFraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(makeFaultPlan(*mesh, fraction), std::invalid_argument);
}

TEST(FaultPlanTest, AllLinksEnumeratesEveryDirectedLink) {
  auto mesh = makeTopology("mesh", 2, 2);
  const auto links = allLinks(*mesh);
  // 2x2 mesh: each node has two neighbours -> 8 directed links.
  EXPECT_EQ(links.size(), 8u);
  for (const auto& l : links)
    EXPECT_TRUE(mesh->neighbor(l.from, l.port).has_value());
}

TEST(FaultWindowTest, StuckAckWindowDelaysDeliveryUntilItCloses) {
  auto topology = makeTopology("mesh", 2, 1);
  NetworkConfig cfg;
  cfg.faultPlan.events.push_back(
      {LinkId{NodeId{0, 0}, Port::East}, FaultKind::StuckAck, 0, 200, 1.0});
  Network net(topology, cfg);
  net.ni(NodeId{0, 0}).send(NodeId{1, 0}, {0xaa, 0xbb});
  net.run(150);
  EXPECT_EQ(net.ledger().delivered(), 0u)
      << "packet must be parked while the ack is stuck";
  EXPECT_GT(net.faultStallCycles(), 0u);
  ASSERT_TRUE(net.drain(500));
  EXPECT_EQ(net.ledger().delivered(), 1u);
  const auto& rx = net.ni(NodeId{1, 0}).received();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0], (std::vector<std::uint32_t>{0xaa, 0xbb}));
}

TEST(FaultWindowTest, LinkDownTruncatesPacketsWithoutReliability) {
  // An outage opening while a packet is streaming across the link consumes
  // its remaining body flits (framing flits stall instead — dropping a
  // bop/eop would wedge the wormhole state machines), so the receiver sees
  // a truncated payload.
  auto topology = makeTopology("mesh", 2, 1);
  NetworkConfig cfg;
  cfg.faultPlan.events.push_back(
      {LinkId{NodeId{0, 0}, Port::East}, FaultKind::LinkDown, 12, 200, 1.0});
  Network net(topology, cfg);
  std::vector<std::uint32_t> payload;
  for (std::uint32_t i = 0; i < 40; ++i) payload.push_back(0x20 + i);
  net.ni(NodeId{0, 0}).send(NodeId{1, 0}, payload);
  ASSERT_TRUE(net.drain(2000));
  EXPECT_GT(net.flitsDropped(), 0u);
  EXPECT_EQ(net.ledger().delivered(), 1u)
      << "header and source index crossed before the outage";
  const auto& rx = net.ni(NodeId{1, 0}).received();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_LT(rx[0].size(), payload.size()) << "body flits must be missing";
}

TEST(FaultWindowTest, ReliabilityRecoversPacketsLostToAnOutage) {
  auto topology = makeTopology("mesh", 2, 1);
  NetworkConfig cfg;
  cfg.reliability = reliabilityOn();
  // Opens mid-stream: the frame crossing at cycle 20 loses its body flits
  // and fails the receiver checksum; later frames stall behind it until
  // the outage clears at cycle 300.
  cfg.faultPlan.events.push_back(
      {LinkId{NodeId{0, 0}, Port::East}, FaultKind::LinkDown, 20, 280, 1.0});
  Network net(topology, cfg);
  std::vector<std::vector<std::uint32_t>> sent;
  for (std::uint32_t k = 0; k < 5; ++k) {
    std::vector<std::uint32_t> payload;
    for (std::uint32_t i = 0; i < 20; ++i)
      payload.push_back(0x10 * (k + 1) + i);  // nonzero, distinct per packet
    net.ni(NodeId{0, 0}).send(NodeId{1, 0}, payload);
    sent.push_back(std::move(payload));
  }
  net.run(300);
  ASSERT_TRUE(net.drain(20000));
  EXPECT_EQ(net.ledger().delivered(), 5u);
  EXPECT_EQ(net.ni(NodeId{1, 0}).received(), sent)
      << "retransmissions must restore both content and order";
  const ReliabilityStats rs = net.reliabilityStats();
  EXPECT_GT(rs.retransmissions, 0u);
  EXPECT_GT(rs.malformedFrames, 0u)
      << "truncated frames are checksum-rejected, not misparsed";
  EXPECT_EQ(rs.abandoned, 0u);
}

struct MatrixCase {
  const char* topology;
  int width;
  int height;
  sim::Simulator::Kernel kernel;
};

TEST(FaultCampaignTest, ExactlyOnceAcrossTopologiesAndKernels) {
  const MatrixCase cases[] = {
      {"mesh", 3, 3, sim::Simulator::Kernel::Naive},
      {"mesh", 3, 3, sim::Simulator::Kernel::Compiled},
      {"torus", 3, 3, sim::Simulator::Kernel::Naive},
      {"torus", 3, 3, sim::Simulator::Kernel::Compiled},
      {"ring", 6, 1, sim::Simulator::Kernel::Naive},
      {"ring", 6, 1, sim::Simulator::Kernel::Compiled},
  };
  for (const auto& mc : cases) {
    SCOPED_TRACE(std::string(mc.topology) + " kernel=" +
                 std::to_string(static_cast<int>(mc.kernel)));
    auto topology = makeTopology(mc.topology, mc.width, mc.height);
    CampaignConfig campaign;
    campaign.horizon = 2000;
    campaign.corruptRate = 0.02;
    campaign.corruptLinkFraction = 0.5;
    campaign.stallEvents = 3;
    campaign.dropEvents = 3;
    campaign.minDuration = 16;
    campaign.maxDuration = 64;
    campaign.seed = 0xc0ffee;
    NetworkConfig cfg;
    cfg.kernel = mc.kernel;
    cfg.reliability = reliabilityOn();
    cfg.faultPlan = makeFaultPlan(*topology, campaign);
    Network net(topology, cfg);
    TrafficConfig traffic;
    traffic.offeredLoad = 0.1;
    traffic.payloadFlits = 4;
    traffic.seed = 11;
    net.attachTraffic(traffic);
    net.run(2000);
    ASSERT_TRUE(net.drain(40000)) << "reliable network must drain";
    EXPECT_GT(net.ledger().queued(), 50u);
    EXPECT_EQ(net.ledger().delivered(), net.ledger().queued())
        << "every queued packet exactly once, no losses, no duplicates";
    EXPECT_TRUE(net.healthy());
    EXPECT_GT(net.flitsCorrupted() + net.flitsDropped() +
                  net.faultStallCycles(),
              0u)
        << "the campaign must actually have perturbed the run";
  }
}

TEST(FaultCampaignTest, PayloadIntegrityAcrossSeqWraparoundUnderFaults) {
  // 20 frames per flow through a 4-bit sequence space exercises window
  // wraparound inside the full network, under active corruption.
  auto topology = makeTopology("mesh", 2, 2);
  CampaignConfig campaign;
  campaign.horizon = 4000;
  campaign.corruptRate = 0.05;
  campaign.stallEvents = 2;
  campaign.dropEvents = 2;
  campaign.seed = 5;
  NetworkConfig cfg;
  cfg.reliability = reliabilityOn(/*seqBits=*/4, /*window=*/8);
  // HLP parity catches any single-bit flip per flit, so with reliability
  // enabled every corrupted frame is dropped at the NI and retransmitted —
  // corruption becomes pure latency, never payload damage.  (The additive
  // frame checksum alone can miss two flips that cancel in the sum.)
  cfg.hlpParity = true;
  cfg.faultPlan = makeFaultPlan(*topology, campaign);
  Network net(topology, cfg);

  const int kRounds = 20;
  std::map<int, std::vector<std::vector<std::uint32_t>>> expected;
  for (int k = 0; k < kRounds; ++k)
    for (int s = 0; s < topology->nodes(); ++s)
      for (int d = 0; d < topology->nodes(); ++d) {
        if (s == d) continue;
        const std::vector<std::uint32_t> payload{
            static_cast<std::uint32_t>(0x40 + s),
            static_cast<std::uint32_t>(0x50 + d),
            static_cast<std::uint32_t>(0x60 + k)};
        net.ni(topology->nodeAt(s)).send(topology->nodeAt(d), payload);
        expected[d].push_back(payload);
      }
  ASSERT_TRUE(net.drain(120000));
  EXPECT_EQ(net.ledger().delivered(), net.ledger().queued());
  for (int d = 0; d < topology->nodes(); ++d) {
    auto got = net.ni(topology->nodeAt(d)).received();
    auto want = expected[d];
    ASSERT_EQ(got.size(), want.size()) << "dst " << d;
    // Arrival order across flows is arbitrary; compare as multisets...
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "dst " << d;
    // ...but within one flow the k-tags must arrive in send order.
    for (int s = 0; s < topology->nodes(); ++s) {
      std::vector<std::uint32_t> tags;
      for (const auto& p : net.ni(topology->nodeAt(d)).received())
        if (p.size() == 3 && p[0] == static_cast<std::uint32_t>(0x40 + s))
          tags.push_back(p[2]);
      EXPECT_TRUE(std::is_sorted(tags.begin(), tags.end()))
          << "flow " << s << "->" << d << " reordered";
    }
  }
}

TEST(FaultCampaignTest, DegradationIsObservableWithoutReliability) {
  auto topology = makeTopology("mesh", 2, 2);
  CampaignConfig campaign;
  campaign.horizon = 4000;
  campaign.corruptRate = 0.05;
  campaign.stallEvents = 2;
  campaign.dropEvents = 2;
  campaign.seed = 5;
  NetworkConfig cfg;  // reliability off: the same campaign must do damage
  cfg.faultPlan = makeFaultPlan(*topology, campaign);
  Network net(topology, cfg);

  std::map<int, std::vector<std::vector<std::uint32_t>>> expected;
  for (int k = 0; k < 20; ++k)
    for (int s = 0; s < topology->nodes(); ++s)
      for (int d = 0; d < topology->nodes(); ++d) {
        if (s == d) continue;
        const std::vector<std::uint32_t> payload{
            static_cast<std::uint32_t>(0x40 + s),
            static_cast<std::uint32_t>(0x50 + d),
            static_cast<std::uint32_t>(0x60 + k)};
        net.ni(topology->nodeAt(s)).send(topology->nodeAt(d), payload);
        expected[d].push_back(payload);
      }
  const bool drained = net.drain(120000);
  EXPECT_GT(net.flitsCorrupted() + net.flitsDropped(), 0u);
  bool anomaly = !drained || net.unattributedPackets() > 0;
  for (int d = 0; d < topology->nodes() && !anomaly; ++d) {
    auto got = net.ni(topology->nodeAt(d)).received();
    auto want = expected[d];
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    anomaly = got != want;
  }
  EXPECT_TRUE(anomaly)
      << "an unprotected network must show losses or corrupted payloads";
}

TEST(FaultCampaignTest, WatchdogNamesThePermanentlyStuckLink) {
  auto topology = makeTopology("mesh", 2, 1);
  NetworkConfig cfg;
  cfg.faultPlan.events.push_back({LinkId{NodeId{0, 0}, Port::East},
                                  FaultKind::StuckAck, 0, 1000000, 1.0});
  Network net(topology, cfg);
  Watchdog dog("dog", net.ledger(), 100,
               [&net] { return net.blockedLinkNames(); });
  net.simulator().add(dog);
  net.ni(NodeId{0, 0}).send(NodeId{1, 0}, {0x5});
  net.run(400);
  ASSERT_TRUE(dog.stallDetected());
  const auto& blocked = dog.snapshot().blockedLinks;
  ASSERT_FALSE(blocked.empty());
  EXPECT_NE(std::find(blocked.begin(), blocked.end(), "link(0,0)E"),
            blocked.end())
      << "snapshot must name the wedged link, not just the cycle";
}

TEST(FaultCampaignTest, TelemetryCountsFaultsPerLinkAndInTheReport) {
  auto topology = makeTopology("mesh", 2, 2);
  CampaignConfig campaign;
  campaign.horizon = 1500;
  campaign.corruptRate = 0.1;
  campaign.seed = 9;
  NetworkConfig cfg;
  cfg.reliability = reliabilityOn();
  cfg.faultPlan = makeFaultPlan(*topology, campaign);
  Network net(topology, cfg);
  telemetry::MetricsRegistry registry;
  net.enableTelemetry(registry);
  TrafficConfig traffic;
  traffic.offeredLoad = 0.15;
  traffic.payloadFlits = 4;
  traffic.seed = 13;
  net.attachTraffic(traffic);
  net.run(1500);
  ASSERT_TRUE(net.drain(40000));
  ASSERT_GT(net.flitsCorrupted(), 0u);

  // The per-link counters must account for every corruption the links saw.
  std::uint64_t counted = 0;
  for (const auto& l : allLinks(*topology))
    counted +=
        registry.counterValue(linkMetricPrefix(l) + ".flits_corrupted");
  EXPECT_EQ(counted, net.flitsCorrupted());

  const auto map = faultHeatmap(registry, *topology, net.simulator().cycle());
  EXPECT_GT(map.maxValue(), 0.0);

  const std::string json = buildRunReport("campaign", net).toJson();
  EXPECT_NE(json.find("\"reliability\""), std::string::npos);
  EXPECT_NE(json.find("\"retransmissions\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_stall_cycles\""), std::string::npos);
}

// 64-bit FNV-1a: a compact fingerprint of a byte-stable artifact.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Golden for the reliability and observer layers together: parity,
// retransmission, a seeded fault campaign, telemetry and flit tracing on
// one 4x4 mesh.  The registry samples net.reliability.unacked_frames and
// backlog_frames every cycle, so its JSON hash pins the transport's frame
// counts cycle by cycle; the Perfetto hash pins every traced event; the
// ReliabilityStats pin the protocol's retransmission decisions.
TEST(FaultCampaignTest, ReliableObservedGoldenOnBothKernels) {
  for (const auto kernel :
       {sim::Simulator::Kernel::Naive, sim::Simulator::Kernel::Compiled}) {
    SCOPED_TRACE("kernel=" + std::to_string(static_cast<int>(kernel)));
    auto topology = makeTopology("mesh", 4, 4);
    NetworkConfig cfg;
    cfg.kernel = kernel;
    cfg.params.n = 16;
    cfg.params.p = 4;
    cfg.hlpParity = true;
    cfg.reliability.enabled = true;
    cfg.reliability.seqBits = 6;
    cfg.reliability.window = 8;
    cfg.reliability.rtoInitial = 256;
    cfg.reliability.rtoMax = 4096;
    cfg.reliability.nackMinInterval = 16;
    CampaignConfig campaign;
    campaign.horizon = 2000;
    campaign.corruptRate = 0.01;
    campaign.corruptLinkFraction = 0.75;
    campaign.stallEvents = 4;
    campaign.dropEvents = 4;
    campaign.minDuration = 16;
    campaign.maxDuration = 96;
    campaign.seed = 0x90210;
    cfg.faultPlan = makeFaultPlan(*topology, campaign);
    Network net(topology, cfg);
    telemetry::MetricsRegistry registry;
    net.enableTelemetry(registry);
    TraceConfig trace;
    trace.capacity = 1u << 18;  // retain every event: the hash covers all
    FlowTracer& tracer = net.enableTracing(trace);
    // Bit-complement gives every node one long-haul flow, so a lost frame
    // stalls a whole window and the backlog fills behind it.
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::BitComplement;
    traffic.offeredLoad = 0.2;
    traffic.payloadFlits = 4;
    traffic.seed = 17;
    net.attachTraffic(traffic);
    net.run(2000);
    net.pauseTraffic(true);
    ASSERT_TRUE(net.drain(40000)) << "reliable network must drain";
    EXPECT_EQ(net.ledger().delivered(), net.ledger().queued());
    EXPECT_TRUE(net.healthy());

    EXPECT_EQ(net.simulator().cycle(), 2271u);

    // Non-vacuous: the transport had frames in flight and in backlog, and
    // the gauges saw every cycle.
    const telemetry::Gauge* unacked =
        registry.findGauge("net.reliability.unacked_frames");
    const telemetry::Gauge* backlog =
        registry.findGauge("net.reliability.backlog_frames");
    ASSERT_NE(unacked, nullptr);
    ASSERT_NE(backlog, nullptr);
    EXPECT_EQ(unacked->samples(), net.simulator().cycle());
    EXPECT_GT(unacked->max(), 0.0);
    EXPECT_GT(backlog->max(), 0.0);

    EXPECT_EQ(tracer.sink().dropped(), 0u);
    EXPECT_EQ(tracer.sink().recorded(), 203774u);
    EXPECT_EQ(tracer.packetsTraced(), 1899u);
    EXPECT_EQ(tracer.packetsCompleted(), 1898u);

    telemetry::RunReport report("golden");
    report.attachRegistry(registry);
    EXPECT_EQ(fnv1a(report.toJson()), 0xcfff915671e704a8ull);
    EXPECT_EQ(fnv1a(tracer.perfettoJson()), 0x08e0d9b8cd107390ull);

    const ReliabilityStats rs = net.reliabilityStats();
    EXPECT_EQ(rs.dataFramesSent, 729u);
    EXPECT_EQ(rs.retransmissions, 321u);
    EXPECT_EQ(rs.timeouts, 157u);
    EXPECT_EQ(rs.acksSent, 591u);
    EXPECT_EQ(rs.nacksSent, 258u);
    EXPECT_EQ(rs.acksReceived, 544u);
    EXPECT_EQ(rs.nacksReceived, 235u);
    EXPECT_EQ(rs.duplicatesDropped, 143u);
    EXPECT_EQ(rs.outOfOrderBuffered, 264u);
    EXPECT_EQ(rs.malformedFrames, 5u);
    EXPECT_EQ(rs.payloadsDelivered, 729u);
    EXPECT_EQ(rs.abandoned, 0u);
  }
}

}  // namespace
}  // namespace rasoc::noc
