// Simulator performance microbenchmarks (google-benchmark): cycles/second
// for a single router and for full meshes - the practical limit on how much
// NoC evaluation the harnesses above can afford.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "noc/network.hpp"
#include "router/rasoc.hpp"
#include "sim/simulator.hpp"
#include "softcore/elaborate.hpp"
#include "tech/mapper.hpp"

using namespace rasoc;

namespace {

void BM_SingleRouterIdle(benchmark::State& state) {
  router::RouterParams params;
  router::Rasoc dut("dut", params);
  sim::Simulator sim;
  sim.add(dut);
  sim.reset();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SingleRouterIdle);

constexpr auto kNaive =
    static_cast<std::int64_t>(sim::Simulator::Kernel::Naive);
constexpr auto kCompiled =
    static_cast<std::int64_t>(sim::Simulator::Kernel::Compiled);

// Decodes the kernel argument (state.range(1)); a value that names no
// kernel skips the row with an error instead of building a network.
bool kernelArg(benchmark::State& state, sim::Simulator::Kernel& kernel) {
  const std::int64_t arg = state.range(1);
  if (arg != kNaive && arg != kCompiled) {
    state.SkipWithError("kernel arg must be 0 (naive) or 1 (compiled)");
    return false;
  }
  kernel = static_cast<sim::Simulator::Kernel>(arg);
  return true;
}

// Args: (side, kernel, numVCs) with the kernel arg the Simulator::Kernel
// value: 0 = naive fixpoint, 1 = compiled (word-packed arena + levelized
// op tape).  Compare BM_MeshUnderLoad/8/0/1 against /8/1/1 for the
// lowering speedup; the VC axis covers the VC router at 8x8 and 16x16
// (--benchmark_filter='BM_MeshUnderLoad/(8|16)/1/' prints the compiled VC
// table).  Rates are wall clock (UseRealTime), not CPU time.
// `evals_per_cycle` is Simulator::evaluateCalls() per cycle: evaluate()
// calls under the naive kernel, executed ops under the compiled one.
void BM_MeshUnderLoad(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  if (side > 8) cfg.params.m = 12;  // 16x16 offsets exceed the m=8 RIB range
  if (!kernelArg(state, cfg.kernel)) return;
  cfg.params.numVCs = static_cast<int>(state.range(2));
  noc::Network mesh(
      std::make_shared<noc::MeshTopology>(noc::MeshShape{side, side}), cfg);
  noc::TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.payloadFlits = 6;
  traffic.seed = 17;
  mesh.attachTraffic(traffic);
  const std::uint64_t evalsBefore = mesh.simulator().evaluateCalls();
  for (auto _ : state) mesh.run(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["routers"] = side * side;
  state.counters["evals_per_cycle"] = benchmark::Counter(
      static_cast<double>(mesh.simulator().evaluateCalls() - evalsBefore),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MeshUnderLoad)
    ->ArgsProduct({{2, 4, 6, 8}, {kNaive}, {1}})
    ->ArgsProduct({{8, 16}, {kCompiled}, {1, 2, 4}})
    ->Args({32, kCompiled, 1})
    ->UseRealTime();

// Torus counterpart of BM_MeshUnderLoad (same arg encoding): the wrap
// links leave no edge port pruned, so every router carries all five.
void BM_TorusUnderLoad(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  if (side > 8) cfg.params.m = 12;  // 16x16 offsets exceed the m=8 RIB range
  if (!kernelArg(state, cfg.kernel)) return;
  noc::Network net(noc::makeTopology("torus", side, side), cfg);
  noc::TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.payloadFlits = 6;
  traffic.seed = 17;
  net.attachTraffic(traffic);
  for (auto _ : state) net.run(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["routers"] = side * side;
}
BENCHMARK(BM_TorusUnderLoad)
    ->ArgsProduct({{8, 16}, {kCompiled}})
    ->UseRealTime();

// Same mesh with the telemetry subsystem attached: the delta against
// BM_MeshUnderLoad is the full cost of leaving instrumentation enabled
// (null-sink runs pay only a per-channel branch and are covered above).
void BM_MeshUnderLoadTelemetry(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  noc::Network mesh(
      std::make_shared<noc::MeshTopology>(noc::MeshShape{side, side}), cfg);
  telemetry::MetricsRegistry registry;
  mesh.enableTelemetry(registry);
  noc::TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.payloadFlits = 6;
  traffic.seed = 17;
  mesh.attachTraffic(traffic);
  for (auto _ : state) mesh.run(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["routers"] = side * side;
}
BENCHMARK(BM_MeshUnderLoadTelemetry)->Arg(4);

void BM_ElaborateAndMap(benchmark::State& state) {
  // Elaboration + technology mapping cost (the "synthesis" analogue).
  const tech::Flex10keMapper mapper;
  router::RouterParams params;
  params.n = 32;
  params.p = 4;
  for (auto _ : state) {
    const softcore::Entity router = softcore::elaborateRouter(params);
    benchmark::DoNotOptimize(router.totalCost(mapper));
  }
}
BENCHMARK(BM_ElaborateAndMap);

}  // namespace

BENCHMARK_MAIN();
