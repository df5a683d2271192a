// Extension experiment: latency/throughput characterization of a RASoC
// network across offered load, traffic patterns and buffer depths - the
// standard NoC evaluation the paper's follow-up work (SoCIN) publishes.
//
// The network topology is selectable (--topology=mesh|torus|ring, default
// mesh); all three use 16 nodes so the columns are directly comparable.
// Rings cannot express Transpose (non-square extent), so the ring sweep
// substitutes BitComplement, the equivalent long-haul permutation.
//
// The settle kernel is selectable too (--kernel=naive|compiled, default
// compiled, the NetworkConfig default).  The two kernels are cycle-exact
// against each other (tests/noc/kernel_trichotomy_test.cpp), so the sweep
// numbers are identical and the flag only changes wall-clock cost.
//
// Besides the human-readable tables, one fully instrumented run per
// traffic pattern is serialized as a machine-diffable RunReport JSON
// artifact (path: first non-flag argument, default
// bench_noc_loadsweep_report.json).
//
// --trace=<path> additionally traces the instrumented hotspot run at
// flit-level (noc/flow_trace.hpp) and writes the Chrome/Perfetto JSON
// there (open in ui.perfetto.dev); --trace-sample=K thins it to every
// K-th flow.  The export is schema-validated in-process before writing.
//
// --qos replaces the pattern sweep with the QoS isolation experiment
// (DESIGN.md section 13): a fixed low-rate Control flow shares the
// network with a Bulk flow swept past saturation, at 4 VCs with
// RouterParams::qosClasses on.  The table reports the Control-class p99
// against its unloaded baseline — the per-class isolation claim is that
// the ratio stays ~1 while Bulk saturates — plus a four-class mix at the
// heaviest load.  The JSON artifact carries the RunReport `qos` section.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "noc/network.hpp"
#include "noc/observe.hpp"
#include "noc/watchdog.hpp"
#include "tech/report.hpp"

using namespace rasoc;
using bench::fmt;
using bench::qosFlow;

namespace {

constexpr int kWarmup = 800;
constexpr int kMeasure = 3000;

bench::SweepCli gCli;

noc::NetworkConfig benchConfig(int p, int vcs = 0) {
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = p;
  cfg.params.numVCs = vcs > 0 ? vcs : gCli.vcs;
  cfg.params.qosClasses = gCli.qos;
  // A 16-node ring routes offsets up to 14; the grids stay within 3.
  if (gCli.topology == "ring") cfg.params.m = 10;
  cfg.kernel = bench::benchKernel(gCli);
  return cfg;
}

noc::TrafficConfig benchTraffic(noc::TrafficPattern pattern, double load) {
  noc::TrafficConfig traffic;
  traffic.pattern = pattern;
  traffic.offeredLoad = load;
  traffic.payloadFlits = 6;
  traffic.seed = 99;
  traffic.hotspot =
      gCli.topology == "ring" ? noc::NodeId{5, 0} : noc::NodeId{1, 1};
  traffic.hotspotFraction = 0.3;
  return traffic;
}

std::vector<noc::TrafficPattern> benchPatterns() {
  if (gCli.topology == "ring")
    return {noc::TrafficPattern::UniformRandom,
            noc::TrafficPattern::BitComplement,
            noc::TrafficPattern::HotSpot};
  return {noc::TrafficPattern::UniformRandom, noc::TrafficPattern::Transpose,
          noc::TrafficPattern::HotSpot};
}

struct Point {
  double latency;
  double throughput;
};

Point run(noc::TrafficPattern pattern, double load, int p, int vcs = 0) {
  auto topo = bench::makeBenchTopology(gCli);
  noc::Network net(topo, benchConfig(p, vcs));
  net.ledger().setWarmupCycles(kWarmup);
  net.attachTraffic(benchTraffic(pattern, load));
  net.run(kWarmup + kMeasure);
  if (!net.healthy()) std::printf("!! unhealthy run\n");
  return {net.ledger().packetLatency().mean(),
          net.ledger().throughputFlitsPerCyclePerNode(kMeasure,
                                                      topo->nodes())};
}

// One instrumented run at the given load; returns the serialized report.
// When `traceJson` is non-null the run is flit-traced and the Perfetto
// export is stored there.
std::string instrumentedReport(noc::TrafficPattern pattern, double load,
                               std::string* traceJson = nullptr) {
  noc::Network net(bench::makeBenchTopology(gCli), benchConfig(4));
  telemetry::MetricsRegistry registry;
  net.enableTelemetry(registry);
  noc::FlowTracer* tracer = nullptr;
  if (traceJson) {
    noc::TraceConfig traceConfig;
    traceConfig.sampleEvery = gCli.traceSample;
    tracer = &net.enableTracing(traceConfig);
  }
  noc::Watchdog watchdog("dog", net.ledger(), 500,
                         [&net] { return net.blockedLinkNames(); },
                         [&net] { return net.blockedLinkTraceDump(); });
  net.simulator().add(watchdog);
  net.ledger().setWarmupCycles(kWarmup);
  net.attachTraffic(benchTraffic(pattern, load));
  net.run(kWarmup + kMeasure);
  if (tracer) *traceJson = tracer->perfettoJson();
  telemetry::RunReport report = noc::buildRunReport(
      std::string("loadsweep.") + std::string(noc::name(pattern)), net,
      &watchdog);
  report.set("run", "offered_load", load);
  report.set("run", "seed", std::uint64_t{99});
  report.set("run", "kernel", gCli.kernel);
  return report.toJson();
}

// --- QoS isolation experiment (--qos) ---------------------------------

// The probe flow: low-rate short Control packets whose tail latency the
// sweep defends.  The rate is far below any knee so its baseline p99 is a
// property of the topology, not of queueing.
noc::FlowSpec qosControlFlow() {
  return qosFlow(router::TrafficClass::Control, 0.02, 2, 99);
}

struct QosPoint {
  std::size_t ctrlCount;
  double ctrlP99;
  double ctrlMax;
  double bulkP99;
  std::uint64_t bulkDelivered;
  double throughput;
};

QosPoint runQos(const std::vector<noc::FlowSpec>& flows) {
  auto topo = bench::makeBenchTopology(gCli);
  noc::Network net(topo, benchConfig(4, 4));
  net.ledger().setWarmupCycles(kWarmup);
  net.attachTraffic(flows);
  net.run(kWarmup + kMeasure);
  if (!net.healthy()) std::printf("!! unhealthy run\n");
  const auto& ctrl =
      net.ledger().packetLatency(router::TrafficClass::Control);
  const auto& bulk = net.ledger().packetLatency(router::TrafficClass::Bulk);
  return {ctrl.count(),
          ctrl.percentile(0.99),
          ctrl.max(),
          bulk.percentile(0.99),
          net.ledger().delivered(router::TrafficClass::Bulk),
          net.ledger().throughputFlitsPerCyclePerNode(kMeasure,
                                                      topo->nodes())};
}

std::string qosInstrumentedReport(const std::vector<noc::FlowSpec>& flows,
                                  double bulkLoad) {
  noc::Network net(bench::makeBenchTopology(gCli), benchConfig(4, 4));
  telemetry::MetricsRegistry registry;
  net.enableTelemetry(registry);
  noc::Watchdog watchdog("dog", net.ledger(), 500,
                         [&net] { return net.blockedLinkNames(); },
                         [&net] { return net.blockedLinkTraceDump(); });
  net.simulator().add(watchdog);
  net.ledger().setWarmupCycles(kWarmup);
  net.attachTraffic(flows);
  net.run(kWarmup + kMeasure);
  telemetry::RunReport report =
      noc::buildRunReport("loadsweep.qos", net, &watchdog);
  report.set("run", "control_load", 0.02);
  report.set("run", "bulk_load", bulkLoad);
  report.set("run", "seed", std::uint64_t{99});
  report.set("run", "kernel", gCli.kernel);
  return report.toJson();
}

int runQosSweep(const std::string& path) {
  std::printf(
      "RASoC %s QoS isolation sweep (16 nodes, n=16, 4 VCs, qosClasses, "
      "%d measured cycles, %s kernel)\n\n",
      bench::makeBenchTopology(gCli)->describe().c_str(), kMeasure,
      gCli.kernel.c_str());

  // Unloaded baseline: the Control probe alone on an idle network.
  const QosPoint base = runQos({qosControlFlow()});
  std::printf("Control baseline (no competing traffic): p99=%.1f max=%.1f "
              "over %zu packets\n\n",
              base.ctrlP99, base.ctrlMax, base.ctrlCount);

  std::printf("--- Control probe vs Bulk flood (UniformRandom, p=4) ---\n");
  tech::Table table({"bulk load", "ctrl p99", "ctrl/base", "ctrl max",
                     "bulk p99", "bulk delivered", "thru"});
  bool isolated = true;
  for (double bulkLoad : {0.10, 0.30, 0.50, 0.70}) {
    const QosPoint point = runQos(
        {qosControlFlow(),
         qosFlow(router::TrafficClass::Bulk, bulkLoad, 6, 7)});
    const double ratio =
        base.ctrlP99 > 0.0 ? point.ctrlP99 / base.ctrlP99 : 0.0;
    if (ratio > 2.0) isolated = false;
    table.addRow({fmt(bulkLoad), fmt(point.ctrlP99, "%.1f"),
                  fmt(ratio), fmt(point.ctrlMax, "%.1f"),
                  fmt(point.bulkP99, "%.1f"), std::to_string(
                      static_cast<unsigned long long>(point.bulkDelivered)),
                  fmt(point.throughput, "%.4f")});
  }
  std::fputs(table.render().c_str(), stdout);
  if (!isolated) {
    std::printf("\n!! Control p99 exceeded 2x its unloaded baseline\n");
    return 1;
  }

  // Four-class mix at the heaviest load: per-class tails must respect the
  // priority order (control <= latency <= bulk/best-effort tails).
  std::printf("\n--- four-class mix (bulk+best-effort at 0.35 each) ---\n");
  {
    auto topo = bench::makeBenchTopology(gCli);
    noc::Network net(topo, benchConfig(4, 4));
    net.ledger().setWarmupCycles(kWarmup);
    net.attachTraffic(std::vector<noc::FlowSpec>{
        qosFlow(router::TrafficClass::Control, 0.02, 2, 99),
        qosFlow(router::TrafficClass::Latency, 0.05, 2, 51),
        qosFlow(router::TrafficClass::Bulk, 0.35, 6, 7),
        qosFlow(router::TrafficClass::BestEffort, 0.35, 6, 13)});
    net.run(kWarmup + kMeasure);
    if (!net.healthy()) std::printf("!! unhealthy run\n");
    tech::Table mix({"class", "delivered", "lat mean", "lat p50",
                     "lat p99", "lat max"});
    for (int c = router::kNumTrafficClasses - 1; c >= 0; --c) {
      const auto cls = static_cast<router::TrafficClass>(c);
      const auto& lat = net.ledger().packetLatency(cls);
      mix.addRow({std::string(router::name(cls)),
                  std::to_string(static_cast<unsigned long long>(
                      net.ledger().delivered(cls))),
                  fmt(lat.mean()), fmt(lat.percentile(0.5)),
                  fmt(lat.percentile(0.99)), fmt(lat.max())});
    }
    std::fputs(mix.render().c_str(), stdout);
  }

  std::printf(
      "\nShape checks: the Control column is flat — its p99 stays within\n"
      "2x the unloaded baseline at every Bulk load, because Control owns\n"
      "the top adaptive lane (qosVcMask) and wins strict-priority output\n"
      "arbitration.  Bulk's own p99 explodes past its saturation knee; the\n"
      "starvation guard keeps it moving but absorbs all the queueing.\n");

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::printf("!! cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs("[\n", out);
  std::fputs(
      qosInstrumentedReport({qosControlFlow(),
                             qosFlow(router::TrafficClass::Bulk, 0.50, 6, 7)},
                            0.50)
          .c_str(),
      out);
  std::fputs("]\n", out);
  std::fclose(out);
  std::printf("\nRunReport JSON written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parseSweepCli(argc, argv, /*allowQuick=*/false, gCli))
    return 1;
  if (gCli.qos)
    return runQosSweep(gCli.path.empty() ? "bench_noc_qos_report.json"
                                         : gCli.path);
  const std::string path =
      gCli.path.empty() ? "bench_noc_loadsweep_report.json" : gCli.path;

  std::printf(
      "RASoC %s load sweep (16 nodes, n=16, 8-flit packets, %d measured "
      "cycles, %s kernel)\n\n",
      bench::makeBenchTopology(gCli)->describe().c_str(), kMeasure,
      gCli.kernel.c_str());

  for (noc::TrafficPattern pattern : benchPatterns()) {
    std::printf("--- pattern: %s ---\n",
                std::string(noc::name(pattern)).c_str());
    tech::Table table({"load", "lat p=2", "thru p=2", "lat p=4", "thru p=4",
                       "lat p=8", "thru p=8"});
    for (double load : {0.02, 0.05, 0.10, 0.20, 0.35, 0.50}) {
      std::vector<std::string> row{fmt(load)};
      for (int p : {2, 4, 8}) {
        const Point point = run(pattern, load, p);
        row.push_back(fmt(point.latency));
        row.push_back(fmt(point.throughput, "%.4f"));
      }
      table.addRow(row);
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  }

  // Virtual-channel latency-throughput comparison (EXPERIMENTS.md): the
  // same sweep at VC counts 1, 2 and 4.  On the wrapping topologies VC >= 2
  // also switches the routes from non-wrapping to minimal-with-escape, so
  // the ring/torus rows show the wrap shortcut, not just the extra lanes.
  std::printf("--- virtual channels (UniformRandom, p=4) ---\n");
  {
    tech::Table table({"load", "lat vc1", "thru vc1", "lat vc2", "thru vc2",
                       "lat vc4", "thru vc4"});
    for (double load : {0.05, 0.20, 0.35, 0.50}) {
      std::vector<std::string> row{fmt(load)};
      for (int vcs : {1, 2, 4}) {
        const Point point =
            run(noc::TrafficPattern::UniformRandom, load, 4, vcs);
        row.push_back(fmt(point.latency));
        row.push_back(fmt(point.throughput, "%.4f"));
      }
      table.addRow(row);
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  }

  std::printf(
      "Shape checks: latency is flat near the zero-load value until the\n"
      "saturation knee, deeper buffers push the knee to higher loads, and\n"
      "hotspot traffic saturates earliest.  Torus wrap links cut the mean\n"
      "distance, so its knee sits at a higher load than the mesh; the ring\n"
      "has the least bisection and saturates first.\n");

  // JSON artifact: one instrumented mid-load run per pattern, concatenated
  // as a JSON array.
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::printf("!! cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs("[\n", out);
  bool first = true;
  std::string traceJson;
  for (noc::TrafficPattern pattern : benchPatterns()) {
    if (!first) std::fputs(",\n", out);
    // The hotspot run is the interesting one to trace: its congestion tree
    // shows up as hop_blocked time on the flow tracks.
    const bool traceThis =
        !gCli.tracePath.empty() && pattern == noc::TrafficPattern::HotSpot;
    std::fputs(
        instrumentedReport(pattern, 0.20, traceThis ? &traceJson : nullptr)
            .c_str(),
        out);
    first = false;
  }
  std::fputs("]\n", out);
  std::fclose(out);
  std::printf("\nRunReport JSON written to %s\n", path.c_str());

  if (!gCli.tracePath.empty() && !bench::writePerfettoTrace(traceJson, gCli))
    return 1;
  return 0;
}
