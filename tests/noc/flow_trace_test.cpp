// Flow tracer validation, in three tiers:
//
//  1. Non-interference: with tracing enabled, the 8x8 mesh golden
//     fingerprints (network_topology_test.cpp / kernel_trichotomy_test.cpp)
//     reproduce bit-identically under both settle kernels (naive,
//     compiled), and a traced run matches an untraced twin counter for
//     counter.
//  2. Determinism: the reconstructed event stream, the Perfetto JSON and
//     the latency decomposition are byte/value-identical across kernels
//     for a fixed seed — including with kernel
//     profiling enabled, since profile data lives strictly outside the
//     traced event stream (kernelProfileJson / kernel_profile section).
//  3. Semantics: the per-flow decomposition sums exactly to the traced
//     end-to-end latency; a fault + reliability scenario shows the full
//     retransmission lifecycle (drop at the faulted hop, NACK/retransmit
//     frames, exactly-once ejection); watchdog stall snapshots carry the
//     blocked link's recent events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "noc/watchdog.hpp"
#include "telemetry/trace_event.hpp"

namespace rasoc::noc {
namespace {

using router::Port;
using sim::Simulator;
using telemetry::TraceEvent;
using telemetry::TraceEventKind;

struct KernelPick {
  Simulator::Kernel kernel;
  const char* label;
};

const KernelPick kAllKernels[] = {
    {Simulator::Kernel::Naive, "naive"},
    {Simulator::Kernel::Compiled, "compiled"},
};

std::unique_ptr<Network> makeNet(const std::shared_ptr<const Topology>& topo,
                                 const KernelPick& pick,
                                 const TrafficConfig& traffic) {
  NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.kernel = pick.kernel;
  auto net = std::make_unique<Network>(topo, cfg);
  net->attachTraffic(traffic);
  return net;
}

TrafficConfig smallTraffic() {
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::UniformRandom;
  traffic.offeredLoad = 0.30;
  traffic.payloadFlits = 3;
  traffic.seed = 99;
  return traffic;
}

ReliabilityConfig reliabilityOn() {
  ReliabilityConfig r;
  r.enabled = true;
  r.seqBits = 6;
  r.window = 8;
  r.rtoInitial = 64;
  r.rtoMax = 1024;
  r.nackMinInterval = 16;
  return r;
}

// --- tier 1: non-interference ----------------------------------------------

// The exact 8x8 mesh constants pinned by network_topology_test.cpp.  A
// traced network must reproduce them bit for bit under every kernel: the
// tracer only *observes* settled wires and lifetime counters.
struct Golden {
  TrafficPattern pattern;
  double load;
  std::uint64_t queued;
  std::uint64_t delivered;
  std::uint64_t flits;
  double latMean;
  double netMean;
};

const Golden kTracedGoldens[] = {
    {TrafficPattern::UniformRandom, 0.05, 1031, 1023, 6138,
     19.066471163245357, 18.885630498533725},
    {TrafficPattern::Transpose, 0.20, 3227, 3098, 18588, 69.399935442220794,
     42.611039380245316},
};

TEST(FlowTraceGoldenTest, TracedRunsReproduceGoldenFingerprints) {
  for (const KernelPick& pick : kAllKernels) {
    for (const Golden& g : kTracedGoldens) {
      SCOPED_TRACE(std::string(pick.label) + " " +
                   std::string(name(g.pattern)));
      TrafficConfig traffic;
      traffic.pattern = g.pattern;
      traffic.offeredLoad = g.load;
      traffic.payloadFlits = 4;
      traffic.seed = 2026;
      auto net = makeNet(std::make_shared<MeshTopology>(MeshShape{8, 8}),
                         pick, traffic);
      FlowTracer& tracer = net->enableTracing();
      net->run(2000);
      EXPECT_EQ(net->ledger().queued(), g.queued);
      EXPECT_EQ(net->ledger().delivered(), g.delivered);
      EXPECT_EQ(net->ledger().flitsDelivered(), g.flits);
      EXPECT_DOUBLE_EQ(net->ledger().packetLatency().mean(), g.latMean);
      EXPECT_DOUBLE_EQ(net->ledger().networkLatency().mean(), g.netMean);
      EXPECT_TRUE(net->healthy());
      // ...and it must actually have traced the traffic.
      EXPECT_EQ(tracer.packetsTraced(), g.queued);
      EXPECT_EQ(tracer.packetsCompleted(), g.delivered);
    }
  }
}

TEST(FlowTraceTest, TracedAndUntracedTwinsAgreeOnEveryCounter) {
  const auto topo = makeTopology("torus", 4, 4);
  auto traced = makeNet(topo, kAllKernels[1], smallTraffic());
  auto plain = makeNet(topo, kAllKernels[1], smallTraffic());
  EXPECT_EQ(plain->tracer(), nullptr);
  traced->enableTracing();
  traced->run(800);
  plain->run(800);
  EXPECT_EQ(traced->ledger().queued(), plain->ledger().queued());
  EXPECT_EQ(traced->ledger().delivered(), plain->ledger().delivered());
  EXPECT_EQ(traced->ledger().flitsDelivered(),
            plain->ledger().flitsDelivered());
  EXPECT_DOUBLE_EQ(traced->ledger().packetLatency().mean(),
                   plain->ledger().packetLatency().mean());
  for (int i = 0; i < topo->nodes(); ++i) {
    const NodeId n = topo->nodeAt(i);
    ASSERT_EQ(traced->ni(n).received(), plain->ni(n).received())
        << "node " << i;
  }
}

TEST(FlowTraceTest, EnableTracingGuardsAgainstLateAttachment) {
  const auto topo = makeTopology("mesh", 2, 2);
  {
    Network net(topo, NetworkConfig{});
    net.enableTracing();
    EXPECT_THROW(net.enableTracing(), std::logic_error);
  }
  {
    Network net(topo, NetworkConfig{});
    net.run(1);
    EXPECT_THROW(net.enableTracing(), std::logic_error);
  }
  {
    Network net(topo, NetworkConfig{});
    net.ni(topo->nodeAt(0)).send(topo->nodeAt(1), {0x1});
    EXPECT_THROW(net.enableTracing(), std::logic_error);
  }
}

TEST(FlowTraceTest, EnableTracingRejectsVirtualChannelConfigs) {
  // Documented gate: the tracer's link-walk reconstruction assumes one
  // wormhole per physical channel, which numVCs > 1 breaks (packets
  // interleave flit-by-flit).  The network must refuse loudly rather than
  // emit a silently wrong trace; VC'd runs are covered by the lockstep
  // differential suites instead.
  const auto topo = makeTopology("mesh", 2, 2);
  for (int vcs : {2, 4}) {
    NetworkConfig cfg;
    cfg.params.numVCs = vcs;
    Network net(topo, cfg);
    EXPECT_THROW(net.enableTracing(), std::logic_error) << "vc" << vcs;
  }
}

// --- tier 2: determinism ---------------------------------------------------

struct TracedRun {
  std::vector<TraceEvent> events;
  std::string json;
  std::string kernelJson;
  std::uint64_t traced = 0;
  std::uint64_t completed = 0;
  std::vector<FlowTracer::FlowSpan> spans;
};

TracedRun runTraced(const KernelPick& pick, TraceConfig config = {}) {
  auto net = makeNet(makeTopology("mesh", 4, 4), pick, smallTraffic());
  FlowTracer& tracer = net->enableTracing(config);
  net->run(600);
  TracedRun out;
  out.events = tracer.sink().snapshot();
  out.json = tracer.perfettoJson();
  out.kernelJson = tracer.kernelProfileJson();
  out.traced = tracer.packetsTraced();
  out.completed = tracer.packetsCompleted();
  out.spans = tracer.flowSpans();
  return out;
}

TEST(FlowTraceTest, EventStreamIsIdenticalAcrossKernels) {
  // Profiling stays ON here on purpose: kernel-profile data (which *is*
  // kernel-specific — a naive settle evaluates every module, a compiled
  // one counts each unit it runs) records outside the traced event
  // stream, so the machine trace must be byte-identical across kernels
  // even with profiling enabled.
  const TracedRun ref = runTraced(kAllKernels[0]);
  EXPECT_GT(ref.events.size(), 0u);
  EXPECT_GT(ref.completed, 0u);
  for (std::size_t k = 1; k < std::size(kAllKernels); ++k) {
    SCOPED_TRACE(kAllKernels[k].label);
    const TracedRun run = runTraced(kAllKernels[k]);
    ASSERT_EQ(ref.events.size(), run.events.size());
    for (std::size_t i = 0; i < ref.events.size(); ++i)
      ASSERT_EQ(ref.events[i], run.events[i])
          << "event " << i << ": " << telemetry::describe(ref.events[i])
          << " vs " << telemetry::describe(run.events[i]);
    EXPECT_EQ(ref.json, run.json) << "Perfetto JSON must be byte-identical";
    EXPECT_EQ(ref.traced, run.traced);
    EXPECT_EQ(ref.completed, run.completed);
  }
}

TEST(FlowTraceTest, PerfettoJsonValidatesAndNamesTracks) {
  const TracedRun run = runTraced(kAllKernels[1]);
  std::string error;
  ASSERT_TRUE(telemetry::validatePerfettoJson(run.json, &error)) << error;
  // One track group per router, one per flow.  Kernel counters must NOT
  // appear here — they live in the kernelProfileJson() sidecar.
  EXPECT_NE(run.json.find("\"r0 (0,0)\""), std::string::npos);
  EXPECT_NE(run.json.find("flows from "), std::string::npos);
  EXPECT_EQ(run.json.find("evals/cycle"), std::string::npos);
  ASSERT_TRUE(telemetry::validatePerfettoJson(run.kernelJson, &error))
      << error;
  EXPECT_NE(run.kernelJson.find("settle kernel"), std::string::npos);
  EXPECT_NE(run.kernelJson.find("evals/cycle"), std::string::npos);
  EXPECT_NE(run.kernelJson.find("\"ph\":\"C\""), std::string::npos);
}

TEST(FlowTraceTest, KernelProfileSidecarIsKernelSpecificButDeterministic) {
  // The sidecar is the one artifact allowed to differ per kernel; per
  // kernel it must still be reproducible, and it must be empty-trace JSON
  // with profiling off.
  const TracedRun compiled = runTraced(kAllKernels[1]);
  EXPECT_EQ(compiled.kernelJson, runTraced(kAllKernels[1]).kernelJson);
  const TracedRun naive = runTraced(kAllKernels[0]);
  EXPECT_NE(compiled.kernelJson, naive.kernelJson)
      << "naive evaluates every module, compiled only its thunks";
  TraceConfig noProfile;
  noProfile.profileKernel = false;
  const TracedRun off = runTraced(kAllKernels[1], noProfile);
  EXPECT_EQ(off.kernelJson.find("evals/cycle"), std::string::npos);
}

TEST(FlowTraceTest, SamplingThinsTheTraceWithoutPerturbingResults) {
  TraceConfig sampled;
  sampled.sampleEvery = 4;
  const TracedRun full = runTraced(kAllKernels[1]);
  const TracedRun thin = runTraced(kAllKernels[1], sampled);
  EXPECT_GT(full.traced, thin.traced);
  EXPECT_GT(thin.traced, 0u);
  EXPECT_LT(thin.events.size(), full.events.size());
  // The simulation itself is untouched by the sampling decision: the
  // golden/twin tests above pin counters, here we pin the traced subset —
  // every thinned flow's spans exist identically in the full trace.
  std::map<std::pair<std::int32_t, std::int32_t>, std::size_t> fullFlows;
  for (const auto& s : full.spans) fullFlows[{s.src, s.dst}]++;
  for (const auto& s : thin.spans) {
    ASSERT_TRUE(fullFlows.count({s.src, s.dst}))
        << "sampled flow " << s.src << "->" << s.dst
        << " missing from the full trace";
  }
}

TEST(FlowTraceTest, ResetClearsTraceStateAndReproducesTheRun) {
  // Profiling on: the evaluation timeline's first sample depends on
  // whether the seed settle ran at construction or at reset(), but that
  // only perturbs the sidecar — perfettoJson() no longer contains any
  // kernel-profile data, so it must reproduce exactly.
  auto net = makeNet(makeTopology("mesh", 4, 4), kAllKernels[1],
                     smallTraffic());
  FlowTracer& tracer = net->enableTracing();
  net->run(400);
  const std::uint64_t firstTraced = tracer.packetsTraced();
  const std::string firstJson = tracer.perfettoJson();
  ASSERT_GT(firstTraced, 0u);
  net->reset();
  EXPECT_EQ(tracer.sink().size(), 0u);
  EXPECT_EQ(tracer.packetsTraced(), 0u);
  EXPECT_TRUE(tracer.flowSpans().empty());
  net->run(400);
  EXPECT_EQ(tracer.packetsTraced(), firstTraced);
  const std::string secondJson = tracer.perfettoJson();
  if (secondJson != firstJson) {
    std::size_t i = 0;
    while (i < firstJson.size() && i < secondJson.size() &&
           firstJson[i] == secondJson[i])
      ++i;
    const std::size_t from = i > 120 ? i - 120 : 0;
    ADD_FAILURE() << "a reset run must reproduce the identical trace; "
                  << "first divergence at offset " << i << "\n  first:  ..."
                  << firstJson.substr(from, 240) << "\n  second: ..."
                  << secondJson.substr(from, 240);
  }
}

// --- tier 3: semantics -----------------------------------------------------

TEST(FlowTraceTest, DecompositionComponentsSumExactlyPerPacket) {
  const TracedRun run = runTraced(kAllKernels[1]);
  ASSERT_GT(run.spans.size(), 0u);
  for (const auto& s : run.spans) {
    SCOPED_TRACE("pkt " + std::to_string(s.id));
    ASSERT_GE(s.injectCycle, s.queuedCycle);
    ASSERT_GE(s.headerEjectCycle, s.injectCycle);
    ASSERT_GE(s.ejectCycle, s.headerEjectCycle);
    ASSERT_GT(s.hops, 0u);
    // The decomposition identity: the header leaves the source, spends one
    // cycle minimum plus its blocked cycles per hop, then the tail drains.
    EXPECT_EQ(s.headerEjectCycle,
              s.injectCycle + s.hops + s.blockedCycles);
    const std::uint64_t endToEnd = s.ejectCycle - s.queuedCycle;
    EXPECT_EQ(endToEnd, (s.injectCycle - s.queuedCycle) + s.hops +
                            s.blockedCycles +
                            (s.ejectCycle - s.headerEjectCycle));
  }
}

TEST(FlowTraceTest, DecompositionStatsAggregateAllCompletedPackets) {
  auto net = makeNet(makeTopology("mesh", 4, 4), kAllKernels[1],
                     smallTraffic());
  FlowTracer& tracer = net->enableTracing();
  net->run(600);
  const FlowTracer::Decomposition& d = tracer.decomposition();
  ASSERT_EQ(d.endToEnd.count(), tracer.packetsCompleted());
  ASSERT_EQ(d.sourceQueue.count(), d.endToEnd.count());
  ASSERT_EQ(d.hopMin.count(), d.endToEnd.count());
  ASSERT_EQ(d.hopBlocked.count(), d.endToEnd.count());
  ASSERT_EQ(d.drain.count(), d.endToEnd.count());
  // Exact-sum holds in aggregate too (sums of integer-valued samples).
  auto total = [](const LatencyStats& s) {
    double t = 0;
    for (double v : s.samples()) t += v;
    return t;
  };
  EXPECT_DOUBLE_EQ(total(d.endToEnd),
                   total(d.sourceQueue) + total(d.hopMin) +
                       total(d.hopBlocked) + total(d.drain));
  const std::string table = tracer.decompositionTable();
  EXPECT_NE(table.find("end_to_end"), std::string::npos) << table;
  EXPECT_NE(table.find("source_queue"), std::string::npos) << table;
}

TEST(FlowTraceTest, ReportGainsDeterministicTraceSection) {
  auto run = [] {
    auto net = makeNet(makeTopology("mesh", 4, 4), kAllKernels[1],
                       smallTraffic());
    FlowTracer& tracer = net->enableTracing();
    net->run(500);
    telemetry::RunReport report("traced");
    tracer.writeReport(report);
    return report.toJson();
  };
  const std::string json = run();
  EXPECT_EQ(json, run());
  EXPECT_NE(json.find("\"trace\""), std::string::npos) << json;
  EXPECT_NE(json.find("packets_traced"), std::string::npos);
  EXPECT_NE(json.find("end_to_end_p99"), std::string::npos);
  // Kernel-dependent numbers live in their own section, not in `trace`.
  EXPECT_NE(json.find("\"kernel_profile\""), std::string::npos) << json;
  EXPECT_NE(json.find("hot_module_0"), std::string::npos);
}

// The acceptance scenario: a link-down window under the reliable transport.
// The trace must show the original injection, the drop at the faulted hop,
// the NACK / retransmission frames, and exactly one ejection per wire
// packet id.
TEST(FlowTraceTest, RetransmissionLifecycleIsVisibleInTheTrace) {
  auto topology = makeTopology("mesh", 2, 1);
  NetworkConfig cfg;
  cfg.reliability = reliabilityOn();
  cfg.faultPlan.events.push_back(
      {LinkId{NodeId{0, 0}, Port::East}, FaultKind::LinkDown, 20, 280, 1.0});
  Network net(topology, cfg);
  FlowTracer& tracer = net.enableTracing();
  for (std::uint32_t k = 0; k < 5; ++k) {
    std::vector<std::uint32_t> payload;
    for (std::uint32_t i = 0; i < 20; ++i)
      payload.push_back(0x10 * (k + 1) + i);
    net.ni(NodeId{0, 0}).send(NodeId{1, 0}, payload);
  }
  net.run(300);
  ASSERT_TRUE(net.drain(20000));
  ASSERT_EQ(net.ni(NodeId{1, 0}).received().size(), 5u);

  std::map<TraceEventKind, std::uint64_t> byKind;
  std::map<std::uint64_t, std::uint64_t> ejectsPerPacket;
  bool dropAtFaultedHop = false;
  for (const TraceEvent& e : tracer.sink().snapshot()) {
    ++byKind[e.kind];
    if (e.kind == TraceEventKind::PacketEjected) ++ejectsPerPacket[e.packet];
    if (e.kind == TraceEventKind::LinkDrop && e.node == 0 &&
        e.port == static_cast<std::int8_t>(router::index(Port::East)))
      dropAtFaultedHop = true;
  }
  EXPECT_GT(byKind[TraceEventKind::PacketQueued], 0u);
  EXPECT_GT(byKind[TraceEventKind::HeaderInjected], 0u);
  EXPECT_GT(byKind[TraceEventKind::LinkDrop], 0u);
  EXPECT_TRUE(dropAtFaultedHop) << "drop must be attributed to link(0,0)E";
  EXPECT_GT(byKind[TraceEventKind::RetransmitQueued], 0u)
      << "the outage must have forced retransmissions";
  EXPECT_GT(byKind[TraceEventKind::AckQueued], 0u);
  EXPECT_GT(byKind[TraceEventKind::PacketEjected], 0u);
  for (const auto& [pkt, count] : ejectsPerPacket)
    EXPECT_EQ(count, 1u) << "packet " << pkt << " ejected more than once";
  // Retransmitted data frames complete as their own spans.
  const auto& spans = tracer.flowSpans();
  EXPECT_TRUE(std::any_of(spans.begin(), spans.end(), [](const auto& s) {
    return s.kind == TraceEventKind::RetransmitQueued;
  })) << "a retransmission span must have completed";
  // The whole story exports as loadable Perfetto JSON.
  std::string error;
  EXPECT_TRUE(telemetry::validatePerfettoJson(tracer.perfettoJson(), &error))
      << error;
}

TEST(FlowTraceTest, WatchdogStallSnapshotCarriesRecentLinkEvents) {
  auto topology = makeTopology("mesh", 2, 1);
  NetworkConfig cfg;
  cfg.faultPlan.events.push_back({LinkId{NodeId{0, 0}, Port::East},
                                  FaultKind::StuckAck, 0, 1000000, 1.0});
  Network net(topology, cfg);
  net.enableTracing();
  Watchdog dog("dog", net.ledger(), 100,
               [&net] { return net.blockedLinkNames(); },
               [&net] { return net.blockedLinkTraceDump(); });
  net.simulator().add(dog);
  net.ni(NodeId{0, 0}).send(NodeId{1, 0}, {0x5, 0x6, 0x7});
  net.run(400);
  ASSERT_TRUE(dog.stallDetected());
  const WatchdogSnapshot& snapshot = dog.snapshot();
  ASSERT_FALSE(snapshot.recentEvents.empty());
  EXPECT_NE(snapshot.recentEvents[0].find("link(0,0)E"), std::string::npos)
      << snapshot.recentEvents[0];
  // At least one rendered event line follows the link header.
  const bool hasEventLine = std::any_of(
      snapshot.recentEvents.begin(), snapshot.recentEvents.end(),
      [](const std::string& line) {
        return line.find("pkt") != std::string::npos;
      });
  EXPECT_TRUE(hasEventLine) << "dump must show the wedged flit's history";
}

TEST(FlowTraceTest, RingOverflowKeepsNewestEventsAndCounts) {
  TraceConfig tiny;
  tiny.capacity = 64;
  auto net = makeNet(makeTopology("mesh", 4, 4), kAllKernels[1],
                     smallTraffic());
  FlowTracer& tracer = net->enableTracing(tiny);
  net->run(600);
  EXPECT_EQ(tracer.sink().size(), 64u);
  EXPECT_GT(tracer.sink().dropped(), 0u);
  // Retained events are the newest window, still in nondecreasing cycle
  // order.
  const auto events = tracer.sink().snapshot();
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].cycle, events[i - 1].cycle);
  // Overflow must not damage the reconstruction: latency stats still
  // accumulate (they come from shadow state, not the ring).
  EXPECT_GT(tracer.decomposition().endToEnd.count(), 0u);
}

}  // namespace
}  // namespace rasoc::noc
