// Whole-network simulation speed: wall-clock simulated cycles per second
// for loaded meshes and tori, the practical limit on how much NoC
// evaluation the harnesses above can afford.
//
// Each row builds one network under 0.2 flits/cycle/node uniform traffic
// (6-flit payloads, seed 17) or, on the `_qos` row, qosClasses with
// perfbench's four-class mix (Control 0.02 and Latency 0.05 with 2-flit
// payloads, Bulk 0.15 and BestEffort 0.15 with 6-flit payloads, seed 17),
// which times the strict-priority link scheduler and its starvation
// guard.  Each runs kWarmupCycles untimed, then times
// kRepetitions windows of the row's fixed cycle count with
// std::chrono::steady_clock.  It reports the median cycles/s, the
// interquartile range of the repetitions, and `units_per_cycle`, the
// Simulator::evaluateCalls() delta per timed cycle: the ops executed under
// the compiled kernel; under the naive kernel, the naive program's unit
// count once per fixpoint pass (a unit is an op, or the evaluate() of a
// module without a lowering such as a single-VC channel's paper block).
//
//   bench_sim_speed            every row (about 20 s on a 4-core host)
//   bench_sim_speed <prefix>   only the rows whose name starts with it,
//                              e.g. `mesh8` or `mesh16_vc`
//
// Stdout is one JSON object; per-row progress goes to stderr.  When both
// mesh8_vc1 and mesh8_vc1_telemetry run, `telemetry_ratio` is the
// instrumented row's rate over the plain one.  Exits 1 if any row's
// network ends unhealthy, 2 on a bad argument.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "noc/network.hpp"
#include "telemetry/metrics.hpp"

using namespace rasoc;

namespace {

constexpr std::uint64_t kWarmupCycles = 500;
constexpr int kRepetitions = 7;

struct Row {
  std::string name;
  const char* topology;  // makeTopology kind
  int side;
  sim::Simulator::Kernel kernel;
  int vcs;
  bool qos;  // qosClasses and the four-class mix
  bool telemetry;
  std::uint64_t windowCycles;  // per timed repetition
};

// Windows are sized so each repetition takes roughly 0.1-0.3 s.
std::vector<Row> rows() {
  using K = sim::Simulator::Kernel;
  std::vector<Row> out;
  for (int side : {8, 16})
    for (int vcs : {1, 2, 4})
      out.push_back({"mesh" + std::to_string(side) + "_vc" +
                         std::to_string(vcs),
                     "mesh", side, K::Compiled, vcs, false, false,
                     side == 8 ? 2000u : 400u});
  out.push_back({"mesh8_vc4_qos", "mesh", 8, K::Compiled, 4, true, false,
                 2000});
  out.push_back(
      {"mesh8_vc1_naive", "mesh", 8, K::Naive, 1, false, false, 600});
  out.push_back(
      {"mesh8_vc4_naive", "mesh", 8, K::Naive, 4, false, false, 1500});
  out.push_back({"mesh8_vc1_telemetry", "mesh", 8, K::Compiled, 1, false,
                 true, 2000});
  out.push_back(
      {"torus8_vc1", "torus", 8, K::Compiled, 1, false, false, 2000});
  out.push_back(
      {"torus16_vc1", "torus", 16, K::Compiled, 1, false, false, 400});
  out.push_back(
      {"mesh32_vc1", "mesh", 32, K::Compiled, 1, false, false, 100});
  return out;
}

struct Result {
  double cyclesPerS;  // median over the repetitions
  double iqr;         // of the per-repetition cycles/s
  double unitsPerCycle;
  bool healthy;
};

// Linear-interpolated quantile of an ascending sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Result measure(const Row& row) {
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.params.numVCs = row.vcs;
  cfg.params.qosClasses = row.qos;
  if (row.side > 8) cfg.params.m = 12;  // offsets beyond 8x8 exceed m=8
  cfg.kernel = row.kernel;
  noc::Network net(noc::makeTopology(row.topology, row.side, row.side), cfg);
  telemetry::MetricsRegistry registry;
  if (row.telemetry) net.enableTelemetry(registry);
  auto flow = [](router::TrafficClass cls, double load, int payload) {
    noc::FlowSpec f;
    f.trafficClass = cls;
    f.traffic.offeredLoad = load;
    f.traffic.payloadFlits = payload;
    f.traffic.seed = 17;
    return f;
  };
  if (row.qos) {
    net.attachTraffic({flow(router::TrafficClass::Control, 0.02, 2),
                       flow(router::TrafficClass::Latency, 0.05, 2),
                       flow(router::TrafficClass::Bulk, 0.15, 6),
                       flow(router::TrafficClass::BestEffort, 0.15, 6)});
  } else {
    net.attachTraffic(flow(router::TrafficClass::BestEffort, 0.2, 6).traffic);
  }
  net.run(kWarmupCycles);

  std::vector<double> rates;
  const std::uint64_t unitsBefore = net.simulator().evaluateCalls();
  for (int r = 0; r < kRepetitions; ++r) {
    const auto start = std::chrono::steady_clock::now();
    net.run(row.windowCycles);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    rates.push_back(static_cast<double>(row.windowCycles) / elapsed.count());
  }
  const double timedCycles =
      static_cast<double>(row.windowCycles) * kRepetitions;
  std::sort(rates.begin(), rates.end());
  return {quantile(rates, 0.5),
          quantile(rates, 0.75) - quantile(rates, 0.25),
          static_cast<double>(net.simulator().evaluateCalls() - unitsBefore) /
              timedCycles,
          net.healthy()};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: %s [row-name-prefix]\n", argv[0]);
    return 2;
  }
  const std::string_view prefix = argc == 2 ? argv[1] : "";
  std::vector<Row> selected;
  for (const Row& row : rows())
    if (row.name.substr(0, prefix.size()) == prefix) selected.push_back(row);
  if (selected.empty()) {
    std::fprintf(stderr, "no row name starts with '%s'\n", argv[1]);
    return 2;
  }

  double plainRate = 0.0;  // mesh8_vc1 and mesh8_vc1_telemetry, if run
  double telemetryRate = 0.0;
  bool healthy = true;
  std::printf("{\n  \"warmup_cycles\": %llu,\n  \"repetitions\": %d,\n"
              "  \"rows\": {\n",
              static_cast<unsigned long long>(kWarmupCycles), kRepetitions);
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Row& row = selected[i];
    const Result res = measure(row);
    if (row.name == "mesh8_vc1") plainRate = res.cyclesPerS;
    if (row.name == "mesh8_vc1_telemetry") telemetryRate = res.cyclesPerS;
    healthy = healthy && res.healthy;
    std::fprintf(stderr, "%-20s %10.1f cycles/s (IQR %.1f)%s\n",
                 row.name.c_str(), res.cyclesPerS, res.iqr,
                 res.healthy ? "" : "  UNHEALTHY");
    std::printf(
        "    \"%s\": {\"topology\": \"%s\", \"side\": %d, \"kernel\": "
        "\"%s\", \"vcs\": %d, \"qos\": %s, \"telemetry\": %s, "
        "\"window_cycles\": %llu, "
        "\"cycles_per_s\": %.1f, \"cycles_per_s_iqr\": %.1f, "
        "\"units_per_cycle\": %.2f, \"healthy\": %s}%s\n",
        row.name.c_str(), row.topology, row.side,
        row.kernel == sim::Simulator::Kernel::Naive ? "naive" : "compiled",
        row.vcs, row.qos ? "true" : "false", row.telemetry ? "true" : "false",
        static_cast<unsigned long long>(row.windowCycles), res.cyclesPerS,
        res.iqr, res.unitsPerCycle, res.healthy ? "true" : "false",
        i + 1 < selected.size() ? "," : "");
  }
  std::printf("  }");
  if (plainRate > 0.0 && telemetryRate > 0.0)
    std::printf(",\n  \"telemetry_ratio\": %.4f", telemetryRate / plainRate);
  std::printf("\n}\n");
  return healthy ? 0 : 1;
}
