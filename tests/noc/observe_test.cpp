// Integration tests for the telemetry subsystem wired into a live mesh:
// instrumented counters, heatmap extraction, report serialization and the
// determinism guarantee bench output depends on.
#include "noc/observe.hpp"

#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "noc/watchdog.hpp"

namespace rasoc::noc {
namespace {

struct InstrumentedRun {
  InstrumentedRun(std::uint64_t seed, std::uint64_t cycles)
      : mesh(std::make_shared<MeshTopology>(shape), config()) {
    mesh.enableTelemetry(registry);
    TrafficConfig traffic;
    traffic.offeredLoad = 0.3;
    traffic.payloadFlits = 4;
    traffic.seed = seed;
    mesh.attachTraffic(traffic);
    mesh.run(cycles);
  }

  static NetworkConfig config() {
    NetworkConfig cfg;
    cfg.params.n = 16;
    cfg.params.p = 4;
    return cfg;
  }

  static constexpr MeshShape shape{3, 3};
  telemetry::MetricsRegistry registry;
  Network mesh;
};

TEST(MeshTelemetryTest, ChannelAndNiCountersAccumulate) {
  InstrumentedRun run(5, 1500);
  ASSERT_TRUE(run.mesh.healthy());
  ASSERT_GT(run.mesh.ledger().delivered(), 0u);

  // Traffic flowed, so the NIs injected flits and the routers routed them.
  std::uint64_t injected = 0, routed = 0;
  for (int i = 0; i < run.shape.nodes(); ++i) {
    const NodeId n = run.shape.nodeAt(i);
    injected +=
        run.registry.counterValue(niMetricPrefix(n) + ".flits_injected");
    routed +=
        run.registry.counterValue(routerMetricPrefix(n) + ".flits_routed");
  }
  EXPECT_GT(injected, 0u);
  // Every injected flit crosses at least its source router.
  EXPECT_GE(routed, injected);

  // The instrumented per-channel count agrees with the channel's own tally.
  const NodeId center{1, 1};
  const auto& local = run.mesh.router(center).inputChannel(router::Port::Local);
  EXPECT_EQ(run.registry.counterValue(routerMetricPrefix(center) + ".Lin.flits"),
            local.flitsAccepted());

  // Pruned ports register no series: the corner router has no West input.
  EXPECT_EQ(run.registry.findCounter("r0,0.Win.flits"), nullptr);

  // Occupancy histograms sampled one observation per cycle.
  const telemetry::Histogram* occupancy =
      run.registry.findHistogram("r1,1.Lin.occupancy");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_EQ(occupancy->count(), run.mesh.simulator().cycle());

  // Network-level gauges sampled through the simulator tick hook.
  const telemetry::Gauge* inFlight =
      run.registry.findGauge("mesh.in_flight_packets");
  ASSERT_NE(inFlight, nullptr);
  EXPECT_EQ(inFlight->samples(), run.mesh.simulator().cycle());
}

TEST(MeshTelemetryTest, EnableTwiceThrows) {
  InstrumentedRun run(1, 10);
  telemetry::MetricsRegistry other;
  EXPECT_THROW(run.mesh.enableTelemetry(other), std::logic_error);
}

TEST(MeshTelemetryTest, HeatmapsReflectTraffic) {
  InstrumentedRun run(5, 1500);
  const auto cycles = run.mesh.simulator().cycle();
  const auto throughput =
      throughputHeatmap(run.registry, run.shape, cycles);
  EXPECT_GT(throughput.maxValue(), 0.0);
  // The center router carries XY through-traffic: it must be at least as
  // busy as the minimum corner.
  EXPECT_GE(throughput.at(1, 1), 0.0);

  const auto congestion =
      congestionHeatmap(run.registry, run.shape, cycles);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 3; ++x) {
      EXPECT_GE(congestion.at(x, y), 0.0);
      EXPECT_LE(congestion.at(x, y), 1.0);
    }

  const auto backpressure =
      backpressureHeatmap(run.registry, run.shape, cycles);
  EXPECT_GE(backpressure.maxValue(), 0.0);

  // Renderers run on extracted maps.
  EXPECT_NE(throughput.ascii().find("flits_per_cycle"), std::string::npos);
  EXPECT_NE(congestion.csv().find("x,y,congestion"), std::string::npos);
}

TEST(MeshTelemetryTest, RunReportCarriesLedgerAndMetrics) {
  InstrumentedRun run(5, 1500);
  Watchdog dog("dog", run.mesh.ledger(), 500);  // never ran: quiet snapshot
  const telemetry::RunReport report =
      buildRunReport("observe_test", run.mesh, &dog);
  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"report\": \"observe_test\""), std::string::npos);
  EXPECT_NE(json.find("\"mesh\": \"3x3\""), std::string::npos);
  EXPECT_NE(json.find("\"healthy\": true"), std::string::npos);
  EXPECT_NE(json.find("\"delivered\": "), std::string::npos);
  EXPECT_NE(json.find("\"packet_latency_p99\": "), std::string::npos);
  EXPECT_NE(json.find("\"watchdog\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("flits_routed"), std::string::npos);
}

TEST(MeshTelemetryTest, RunReportStatesCompiledProgramShape) {
  // The network default is the compiled kernel: the report says what the
  // program lowered to.  Every unit is an op, so there is no thunk or
  // iterate-segment count to report.
  InstrumentedRun run(5, 200);
  ASSERT_EQ(run.mesh.simulator().kernel(), sim::Simulator::Kernel::Compiled);
  const std::string json = buildRunReport("kernel", run.mesh).toJson();
  EXPECT_NE(json.find("\"kernel\": {"), std::string::npos);
  EXPECT_NE(json.find("\"program_ops\": "), std::string::npos);
  EXPECT_NE(json.find("\"program_arena_words\": "), std::string::npos);
  EXPECT_EQ(json.find("\"program_thunks\""), std::string::npos);
  EXPECT_EQ(json.find("\"program_iterate_segments\""), std::string::npos);

  // A QoS network at four VCs lowers its VC routers to word-level ops
  // over a bound arena.
  NetworkConfig qosCfg = InstrumentedRun::config();
  qosCfg.params.numVCs = 4;
  qosCfg.params.qosClasses = true;
  Network qos(std::make_shared<MeshTopology>(MeshShape{3, 3}), qosCfg);
  qos.run(10);
  const std::string qosJson = buildRunReport("kernel", qos).toJson();
  EXPECT_NE(qosJson.find("\"program_ops\": "), std::string::npos);
  EXPECT_NE(qosJson.find("\"program_arena_words\": "), std::string::npos);
  EXPECT_EQ(qosJson.find("\"program_arena_words\": 0"), std::string::npos);

  // The naive kernel has no program to describe.
  NetworkConfig naiveCfg = InstrumentedRun::config();
  naiveCfg.kernel = sim::Simulator::Kernel::Naive;
  Network naive(std::make_shared<MeshTopology>(MeshShape{3, 3}), naiveCfg);
  naive.run(10);
  EXPECT_EQ(buildRunReport("kernel", naive).toJson().find("\"kernel\": {"),
            std::string::npos);
}

TEST(MeshTelemetryTest, SameSeedProducesByteIdenticalReports) {
  const auto runJson = [] {
    InstrumentedRun run(21, 1200);
    return buildRunReport("determinism", run.mesh).toJson();
  };
  const std::string a = runJson();
  const std::string b = runJson();
  EXPECT_EQ(a, b);

  InstrumentedRun other(22, 1200);
  EXPECT_NE(buildRunReport("determinism", other.mesh).toJson(), a);
}

}  // namespace
}  // namespace rasoc::noc
