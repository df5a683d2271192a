// perfbench: the whole-network simulator benchmark.
//
// One process, one thread.  Builds a noc::Network for a named workload from
// the seed on the command line, runs a fixed warm-up and then a fixed
// measured window of simulated cycles under the default (compiled) kernel,
// checks the simulated results, and prints every metric by name and unit.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  README.md in this directory defines every metric.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Host time is wall clock (steady_clock); "simulated" values are modelled
// cycles and counts, which are deterministic for a seed.  Every layer is
// timed from outside, around calls to public functions: Network
// construction, Simulator::settle(), Simulator::tick(), two tick listeners
// registered first and last, Network::drain() and FlowTracer::perfettoJson().
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "noc/fault.hpp"
#include "noc/network.hpp"
#include "sim/compile.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_event.hpp"

using namespace rasoc;

namespace {

using Clock = std::chrono::steady_clock;
using Kernel = sim::Simulator::Kernel;

// Every workload runs on an 8x8 mesh of n=16, p=4 routers.
struct Workload {
  const char* name;
  bool qos;               // 4 VCs, qosClasses and a four-class traffic mix
  bool reliableObserved;  // parity, reliable transport, faults, observers
  std::uint64_t warmup;   // simulated cycles before host timing starts
  std::uint64_t window;   // simulated cycles in the measured window
};

// Window lengths are fixed in simulated cycles, never in host time: the
// reliable workload's per-cycle cost grows with run length, so a window
// that stretched or shrank with host speed would fake or hide a gain.
constexpr Workload kWorkloads[] = {
    {"mesh8_uniform", false, false, 1000, 12000},
    {"mesh8_qos_vc4", true, false, 500, 2000},
    {"mesh8_reliable_observed", false, true, 1000, 5000},
};

constexpr int kSide = 8;
constexpr std::uint64_t kPrefixCycles = 400;  // Naive-oracle comparison
constexpr std::uint64_t kDrainCap = 20000;
constexpr int kExtraSetUps = 2;  // per timed run
// Each run simulates this many input sets, all derived from --seed, and
// pools their simulated end-to-end metrics: one set's tail latency moves
// too much from seed to seed.  Timed runs cycle through the sets, so at
// least one set runs twice and must repeat exactly.
constexpr int kInputSets = 8;
constexpr int kMinReps = kInputSets + 1;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t inputSeed(std::uint64_t seed, int set) {
  return splitmix(seed) + static_cast<std::uint64_t>(set);
}

noc::NetworkConfig makeConfig(const Workload& w, const noc::Topology& topology,
                              std::uint64_t seed, Kernel kernel) {
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.params.numVCs = w.qos ? 4 : 1;
  cfg.params.qosClasses = w.qos;
  cfg.kernel = kernel;
  if (w.reliableObserved) {
    cfg.hlpParity = true;
    cfg.reliability.enabled = true;
    cfg.reliability.seqBits = 6;
    cfg.reliability.window = 8;
    cfg.reliability.rtoInitial = 256;
    cfg.reliability.rtoMax = 4096;
    cfg.reliability.nackMinInterval = 16;
    noc::CampaignConfig campaign;
    campaign.horizon = w.warmup + w.window;
    campaign.corruptRate = 1e-3;
    campaign.corruptLinkFraction = 0.75;
    campaign.stallEvents = 4;
    campaign.dropEvents = 4;
    campaign.minDuration = 16;
    campaign.maxDuration = 96;
    campaign.seed = splitmix(seed ^ 0xfa17);
    cfg.faultPlan = noc::makeFaultPlan(topology, campaign);
    cfg.faultSeed = splitmix(seed ^ 0x5eed);
  }
  return cfg;
}

noc::FlowSpec flow(router::TrafficClass cls, double load, int payload,
                   std::uint64_t seed) {
  noc::FlowSpec f;
  f.trafficClass = cls;
  f.traffic.pattern = noc::TrafficPattern::UniformRandom;
  f.traffic.offeredLoad = load;
  f.traffic.payloadFlits = payload;
  f.traffic.seed = seed;
  return f;
}

std::vector<noc::FlowSpec> makeFlows(const Workload& w, std::uint64_t seed) {
  const std::uint64_t s = splitmix(seed) >> 24;
  if (!w.qos) return {flow(router::TrafficClass::BestEffort, 0.2, 6, s)};
  return {flow(router::TrafficClass::Control, 0.02, 2, s),
          flow(router::TrafficClass::Latency, 0.05, 2, s),
          flow(router::TrafficClass::Bulk, 0.15, 6, s),
          flow(router::TrafficClass::BestEffort, 0.15, 6, s)};
}

// In-memory spans: name, start, end and the span that contains it.  Times
// are nanoseconds since the process's first span.
class Spans {
 public:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    int parent;
  };

  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent) {
    spans_.push_back({name, ns(start), ns(end), parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  int open(const char* name, int parent) {
    const Clock::time_point now = Clock::now();
    return add(name, now, now, parent);
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = ns(Clock::now());
  }

  // Summed duration and self time (duration minus the part its children
  // cover) per span name, in seconds.
  std::map<std::string, double> total() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += seconds(s.end - s.start);
    return out;
  }
  std::map<std::string, double> self() const {
    std::map<std::string, double> out = total();
    for (const Span& s : spans_)
      if (s.parent >= 0)
        out[spans_[static_cast<std::size_t>(s.parent)].name] -=
            seconds(s.end - s.start);
    return out;
  }

  bool write(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{%s, \"columns\": [\"name\", \"start_ns\", \"end_ns\", "
                    "\"parent\"], \"spans\": [\n",
                 header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      std::fprintf(f, "[\"%s\", %" PRId64 ", %" PRId64 ", %d]%s\n",
                   spans_[i].name, spans_[i].start, spans_[i].end,
                   spans_[i].parent, i + 1 < spans_.size() ? "," : "");
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t ns(Clock::time_point t) {
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  }
  static double seconds(std::int64_t ns) {
    return static_cast<double>(ns) * 1e-9;
  }

  std::vector<Span> spans_;
};

// Written by the two benchmark tick listeners of a traced run.
struct Probe {
  Clock::time_point firstListener;
  Clock::time_point lastListener;
};

// One built network with the observers its workload attaches.  The registry
// is declared first so that it outlives the network, as enableTelemetry
// requires.
struct Instance {
  telemetry::MetricsRegistry registry;
  std::unique_ptr<noc::Network> net;
  noc::FlowTracer* tracer = nullptr;
};

// Builds, attaches and settles once: everything setup_s covers.  With a
// probe, the benchmark's listeners bracket every listener the network
// registers.
std::unique_ptr<Instance> setUp(const Workload& w, std::uint64_t seed,
                                Kernel kernel, std::uint64_t warmup,
                                Spans& spans, int parent, Probe* probe) {
  auto inst = std::make_unique<Instance>();
  int span = spans.open("noc.build", parent);
  auto topology = noc::makeTopology("mesh", kSide, kSide);
  inst->net = std::make_unique<noc::Network>(
      topology, makeConfig(w, *topology, seed, kernel));
  spans.close(span);

  span = spans.open("noc.attach", parent);
  noc::Network& net = *inst->net;
  sim::Simulator& sim = net.simulator();
  if (probe)
    sim.addTickListener([probe] { probe->firstListener = Clock::now(); });
  if (w.reliableObserved) {
    net.enableTelemetry(inst->registry);
    inst->tracer = &net.enableTracing();
  }
  net.attachTraffic(makeFlows(w, seed));
  net.ledger().setWarmupCycles(warmup);
  if (probe)
    sim.addTickListener([probe] { probe->lastListener = Clock::now(); });
  spans.close(span);

  span = spans.open("sim.compile", parent);
  sim.settle();
  spans.close(span);
  return inst;
}

using Fingerprint = std::map<std::string, double>;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Everything one timed (or traced) run yields.  `sim` holds the simulated
// values and counts, which must repeat exactly for a seed.
struct Rep {
  double setupS = 0.0;
  double windowS = 0.0;
  double rateDrift = 0.0;  // traced runs: second-half over first-half rate
  Fingerprint sim;
  // Creation-to-delivery latency of packets created after the warm-up.
  std::vector<double> latency;
  std::uint64_t windowFlits = 0;  // delivered inside the measured window
  std::vector<std::string> failures;
};

std::uint64_t sumGenerators(noc::Network& net,
                            std::uint64_t (noc::TrafficGenerator::*counter)()
                                const) {
  std::uint64_t total = 0;
  const noc::Topology& topology = net.topology();
  for (std::size_t f = 0; f < net.trafficFlows(); ++f)
    for (int i = 0; i < topology.nodes(); ++i)
      total += (net.generator(topology.nodeAt(i), f).*counter)();
  return total;
}

Rep runMeasured(const Workload& w, std::uint64_t seed, bool traced,
                Spans& spans) {
  Rep rep;
  Probe probe;
  const Clock::time_point setupStart = Clock::now();
  const int setup = spans.open("setup", -1);
  auto inst = setUp(w, seed, Kernel::Compiled, w.warmup, spans, setup,
                    traced ? &probe : nullptr);
  spans.close(setup);
  rep.setupS = seconds(setupStart, Clock::now());
  noc::Network& net = *inst->net;
  sim::Simulator& sim = net.simulator();
  const int nodes = net.topology().nodes();

  const int warm = spans.open("warmup", -1);
  sim.tick();  // completes the cycle whose settle closed the set-up
  net.run(w.warmup - 1);
  spans.close(warm);

  const std::uint64_t unitsBefore = sim.evaluateCalls();
  const std::uint64_t flitsBefore = net.ledger().flitsDelivered();
  const int window = spans.open("window", -1);
  const std::uint64_t half = w.window / 2;
  const Clock::time_point windowStart = Clock::now();
  Clock::time_point halfMark;
  if (traced) {
    for (std::uint64_t i = 0; i < w.window; ++i) {
      const Clock::time_point c0 = Clock::now();
      sim.settle();
      const Clock::time_point c1 = Clock::now();
      sim.tick();
      const Clock::time_point c2 = Clock::now();
      const int cycle = spans.add("cycle", c0, c2, window);
      spans.add("sim.settle", c0, c1, cycle);
      const int tick = spans.add("sim.tick", c1, c2, cycle);
      spans.add("sim.edge", c1, probe.firstListener, tick);
      spans.add("telemetry.listeners", probe.firstListener,
                probe.lastListener, tick);
      if (i + 1 == half) halfMark = c2;
    }
  } else {
    net.run(w.window);
  }
  const Clock::time_point windowEnd = Clock::now();
  spans.close(window);
  rep.windowS = seconds(windowStart, windowEnd);
  if (traced) {
    const double firstRate =
        static_cast<double>(half) / seconds(windowStart, halfMark);
    const double secondRate =
        static_cast<double>(w.window - half) / seconds(halfMark, windowEnd);
    rep.rateDrift = secondRate / firstRate;
  }

  Fingerprint& fp = rep.sim;
  const double cycles = static_cast<double>(w.window);
  fp["sim.units_per_cycle"] =
      static_cast<double>(sim.evaluateCalls() - unitsBefore) / cycles;
  rep.windowFlits = net.ledger().flitsDelivered() - flitsBefore;
  fp["throughput_flits_per_node_cycle"] =
      static_cast<double>(rep.windowFlits) / cycles / nodes;
  fp["router.mean_link_utilization"] = net.meanLinkUtilization();
  fp["router.max_link_utilization"] = net.maxLinkUtilization();
  const sim::CompiledProgram* program = sim.compiledProgram();
  fp["sim.program_ops"] = static_cast<double>(program->opCount());
  fp["sim.program_thunks"] = static_cast<double>(program->thunkCount());
  fp["sim.program_iterate_segments"] =
      static_cast<double>(program->iterateSegmentCount());
  fp["sim.program_arena_words"] = static_cast<double>(program->wordCount());
  fp["sim.program_edge_items"] = static_cast<double>(program->edgeItemCount());

  net.pauseTraffic(true);
  const std::uint64_t drainStart = sim.cycle();
  const int drain = spans.open("noc.drain", -1);
  const bool drained = net.drain(kDrainCap);
  spans.close(drain);
  fp["noc.drain_cycles"] = static_cast<double>(sim.cycle() - drainStart);

  std::string json;
  if (inst->tracer) {
    const int exportSpan = spans.open("noc.flow_trace.export", -1);
    json = inst->tracer->perfettoJson();
    spans.close(exportSpan);
  }

  // Results, read outside every timed window.
  const noc::DeliveryLedger& ledger = net.ledger();
  fp["packets_attempted"] = static_cast<double>(ledger.queued());
  fp["packets_delivered"] = static_cast<double>(ledger.delivered());
  fp["latency_p50_cycles"] = ledger.packetLatency().percentile(0.50);
  fp["latency_p99_cycles"] = ledger.packetLatency().percentile(0.99);
  fp["noc.latency_samples"] =
      static_cast<double>(ledger.packetLatency().count());
  rep.latency = ledger.packetLatency().samples();
  fp["router.qos.control_p99_cycles"] =
      ledger.packetLatency(router::TrafficClass::Control).percentile(0.99);
  fp["noc.packets_generated"] = static_cast<double>(
      sumGenerators(net, &noc::TrafficGenerator::packetsGenerated));
  fp["noc.injections_skipped"] = static_cast<double>(
      sumGenerators(net, &noc::TrafficGenerator::injectionsSkipped));
  const noc::ReliabilityStats rs = net.reliabilityStats();
  fp["noc.reliable.retransmissions"] = static_cast<double>(rs.retransmissions);
  fp["noc.reliable.timeouts"] = static_cast<double>(rs.timeouts);
  fp["noc.reliable.duplicates_dropped"] =
      static_cast<double>(rs.duplicatesDropped);
  fp["noc.reliable.retx_per_delivered"] =
      ledger.delivered() ? static_cast<double>(rs.retransmissions) /
                               static_cast<double>(ledger.delivered())
                         : 0.0;
  fp["noc.fault.flits_corrupted"] = static_cast<double>(net.flitsCorrupted());
  fp["noc.fault.stall_cycles"] = static_cast<double>(net.faultStallCycles());
  fp["noc.parity_errors"] = static_cast<double>(net.parityErrorsDetected());
  fp["noc.flow_trace.events_recorded"] =
      inst->tracer ? static_cast<double>(inst->tracer->sink().recorded()) : 0.0;
  fp["noc.flow_trace.json_bytes"] = static_cast<double>(json.size());

  auto fail = [&rep](std::string what) {
    rep.failures.push_back(std::move(what));
  };
  if (!drained) fail("drain did not finish within its cap");
  if (!net.healthy()) fail("network unhealthy (misroute/overflow/misdelivery)");
  if (ledger.delivered() != ledger.queued())
    fail("delivered " + std::to_string(ledger.delivered()) + " of " +
         std::to_string(ledger.queued()) + " queued packets");
  if (net.unattributedPackets() != 0)
    fail(std::to_string(net.unattributedPackets()) + " unattributed packets");
  if (rs.abandoned != 0)
    fail(std::to_string(rs.abandoned) + " frames abandoned");
  if (inst->tracer) {
    std::string error;
    if (!telemetry::validatePerfettoJson(json, &error))
      fail("Perfetto export rejected: " + error);
  }
  return rep;
}

// Delivered count, latency percentiles and drain cycle of a short prefix
// run: the compiled kernel must match the Naive oracle exactly.
Fingerprint prefixFingerprint(const Workload& w, std::uint64_t seed,
                              Kernel kernel) {
  Spans scratch;
  auto inst = setUp(w, seed, kernel, 0, scratch, -1, nullptr);
  noc::Network& net = *inst->net;
  net.simulator().tick();
  net.run(kPrefixCycles - 1);
  net.pauseTraffic(true);
  const bool drained = net.drain(kDrainCap);
  const noc::DeliveryLedger& ledger = net.ledger();
  return {{"drained", drained ? 1.0 : 0.0},
          {"queued", static_cast<double>(ledger.queued())},
          {"delivered", static_cast<double>(ledger.delivered())},
          {"latency_p50", ledger.packetLatency().percentile(0.50)},
          {"latency_p99", ledger.packetLatency().percentile(0.99)},
          {"drain_cycle", static_cast<double>(net.simulator().cycle())}};
}

// Names the keys on which two fingerprints differ.
std::vector<std::string> differences(const Fingerprint& a,
                                     const Fingerprint& b) {
  std::vector<std::string> out;
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end() || it->second != value) out.push_back(key);
  }
  for (const auto& [key, value] : b)
    if (!a.count(key)) out.push_back(key);
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
}

void printTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "mesh8_uniform|mesh8_qos_vc4|mesh8_reliable_observed "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               why);
  return 2;
}

int run(const Workload& w, std::uint64_t seed, double budgetS, bool trace,
        const std::string& spansPath) {
  std::vector<std::string> failures;
  auto check = [&failures](const std::string& where,
                           const std::vector<std::string>& found) {
    for (const std::string& f : found) failures.push_back(where + ": " + f);
  };

  // Untraced runs, cycling through the input sets, until the time budget
  // is spent.  A repeated set must reproduce its first run exactly.  Extra
  // set-ups between them make setup_s a median over the whole budget.
  const std::uint64_t firstSeed = inputSeed(seed, 0);
  std::vector<double> setupS;
  std::vector<Rep> reps;
  const Clock::time_point budgetStart = Clock::now();
  while (reps.size() < static_cast<std::size_t>(kMinReps) ||
         seconds(budgetStart, Clock::now()) < budgetS) {
    for (int i = 0; i < kExtraSetUps; ++i) {
      Spans scratch;
      const Clock::time_point start = Clock::now();
      auto inst = setUp(w, firstSeed, Kernel::Compiled, w.warmup, scratch,
                        -1, nullptr);
      setupS.push_back(seconds(start, Clock::now()));
    }
    const int set = static_cast<int>(reps.size() % kInputSets);
    Spans scratch;
    reps.push_back(runMeasured(w, inputSeed(seed, set), false, scratch));
    Rep& rep = reps.back();
    const std::string name = "run " + std::to_string(reps.size());
    setupS.push_back(rep.setupS);
    check(name, rep.failures);
    check(name + " vs run " + std::to_string(set + 1) + " differs in",
          differences(reps[static_cast<std::size_t>(set)].sim, rep.sim));
    // Only the first run of each set feeds the pooled metrics; keeping
    // more would make peak memory depend on host speed.
    if (reps.size() > kInputSets) std::vector<double>().swap(rep.latency);
  }

  const Fingerprint prefix =
      prefixFingerprint(w, firstSeed, Kernel::Compiled);
  if (prefix.at("drained") == 0.0)
    failures.push_back("prefix run: drain did not finish within its cap");
  check("compiled vs Naive prefix differs in",
        differences(prefix, prefixFingerprint(w, firstSeed, Kernel::Naive)));

  std::vector<double> rates;
  for (const Rep& rep : reps)
    rates.push_back(static_cast<double>(w.window) / rep.windowS);
  const double cyclesPerS = median(rates);

  // Simulated end-to-end metrics, pooled over the input sets.
  noc::LatencyStats latency;
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t windowFlits = 0;
  for (int set = 0; set < kInputSets; ++set) {
    const Rep& rep = reps[static_cast<std::size_t>(set)];
    for (double sample : rep.latency) latency.record(sample);
    attempted += static_cast<std::uint64_t>(rep.sim.at("packets_attempted"));
    delivered += static_cast<std::uint64_t>(rep.sim.at("packets_delivered"));
    windowFlits += rep.windowFlits;
  }
  const int nodes = kSide * kSide;
  const std::vector<Metric> endToEnd = {
      {"cycles_per_s", cyclesPerS, "1/s"},
      {"setup_s", median(setupS), "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"latency_p50_cycles", latency.percentile(0.50), "cycles"},
      {"latency_p99_cycles", latency.percentile(0.99), "cycles"},
      {"throughput_flits_per_node_cycle",
       static_cast<double>(windowFlits) /
           static_cast<double>(w.window * kInputSets * nodes),
       "flit/node/cycle"},
  };
  const Fingerprint& fp = reps.front().sim;

  std::vector<Metric> perLayer;
  if (trace) {
    Spans spans;
    const Rep traced = runMeasured(w, firstSeed, true, spans);
    check("traced run", traced.failures);
    check("traced vs untraced run differs in",
          differences(fp, traced.sim));
    const std::map<std::string, double> self = spans.self();
    const std::map<std::string, double> total = spans.total();
    auto get = [](const std::map<std::string, double>& m, const char* key) {
      const auto it = m.find(key);
      return it == m.end() ? 0.0 : it->second;
    };
    const double cycles = static_cast<double>(w.window);
    const double settle = get(self, "sim.settle");
    const double edge = get(self, "sim.edge");
    const double listeners = get(self, "telemetry.listeners");
    perLayer = {
        {"sim.settle_ns_per_cycle", settle / cycles * 1e9, "ns"},
        {"sim.edge_ns_per_cycle", edge / cycles * 1e9, "ns"},
        {"sim.units_per_cycle", fp.at("sim.units_per_cycle"), "count"},
        {"sim.compile_s", get(total, "sim.compile"), "s"},
        {"sim.program_ops", fp.at("sim.program_ops"), "count"},
        {"sim.program_thunks", fp.at("sim.program_thunks"), "count"},
        {"sim.program_iterate_segments",
         fp.at("sim.program_iterate_segments"), "count"},
        {"sim.program_arena_words", fp.at("sim.program_arena_words"),
         "count"},
        {"sim.program_edge_items", fp.at("sim.program_edge_items"), "count"},
        {"sim.rate_drift", traced.rateDrift, "ratio"},
        {"telemetry.listener_ns_per_cycle", listeners / cycles * 1e9, "ns"},
        {"noc.build_s", get(total, "noc.build"), "s"},
        {"noc.drain_s", get(total, "noc.drain"), "s"},
        {"noc.drain_cycles", fp.at("noc.drain_cycles"), "cycles"},
        {"noc.packets_generated", fp.at("noc.packets_generated"), "count"},
        {"noc.injections_skipped", fp.at("noc.injections_skipped"), "count"},
        {"noc.latency_samples", fp.at("noc.latency_samples"), "count"},
        {"noc.reliable.retransmissions",
         fp.at("noc.reliable.retransmissions"), "count"},
        {"noc.reliable.timeouts", fp.at("noc.reliable.timeouts"), "count"},
        {"noc.reliable.duplicates_dropped",
         fp.at("noc.reliable.duplicates_dropped"), "count"},
        {"noc.reliable.retx_per_delivered",
         fp.at("noc.reliable.retx_per_delivered"), "ratio"},
        {"noc.fault.flits_corrupted", fp.at("noc.fault.flits_corrupted"),
         "count"},
        {"noc.fault.stall_cycles", fp.at("noc.fault.stall_cycles"), "cycles"},
        {"noc.parity_errors", fp.at("noc.parity_errors"), "count"},
        {"noc.flow_trace.export_s", get(total, "noc.flow_trace.export"),
         "s"},
        {"noc.flow_trace.events_recorded",
         fp.at("noc.flow_trace.events_recorded"), "count"},
        {"noc.flow_trace.json_bytes", fp.at("noc.flow_trace.json_bytes"),
         "bytes"},
        {"router.mean_link_utilization",
         fp.at("router.mean_link_utilization"), "ratio"},
        {"router.max_link_utilization", fp.at("router.max_link_utilization"),
         "ratio"},
        {"router.qos.control_p99_cycles",
         fp.at("router.qos.control_p99_cycles"), "cycles"},
        {"bench.trace_overhead", cyclesPerS / (cycles / traced.windowS),
         "ratio"},
        {"bench.unattributed_share",
         (traced.windowS - settle - edge - listeners) / traced.windowS,
         "ratio"},
    };
    if (!spansPath.empty()) {
      const std::string header = "\"workload\": \"" + std::string(w.name) +
                                 "\", \"seed\": " + std::to_string(seed);
      if (!spans.write(spansPath, header))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     spansPath.c_str());
    }
  }

  std::printf("perfbench %s seed=%" PRIu64 ": %zu timed runs of %" PRIu64
              " warm-up + %" PRIu64 " measured cycles, %d set-ups\n",
              w.name, seed, reps.size(), w.warmup, w.window,
              static_cast<int>(setupS.size()));
  std::printf("cycles_per_s of each timed run:");
  for (double r : rates) std::printf(" %.0f", r);
  std::printf("\n");
  printTable("end-to-end", endToEnd);
  // A failed check counts every attempted packet as failed.
  const bool correct = failures.empty();
  const std::uint64_t failed = correct ? attempted - delivered : attempted;
  std::printf("  %-36s %16" PRIu64 " count\n  %-36s %16" PRIu64
              " count\n  %-36s %16zu count\n",
              "packets_attempted", attempted, "packets_failed", failed,
              "latency_samples", latency.count());
  if (trace) printTable("per-layer (traced run)", perLayer);
  for (const std::string& f : failures)
    std::printf("CHECK FAILED %s\n", f.c_str());
  printJson(correct, attempted, failed, trace ? perLayer : endToEnd);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double budgetS = -1.0;
  int trace = -1;
  std::string spansPath;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, value) == 0) workload = &w;
      if (!workload) return usage("unknown workload");
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      budgetS = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spansPath = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!workload || budgetS <= 0.0 || (trace != 0 && trace != 1) ||
      argc % 2 == 0)
    return usage("missing or invalid argument");
  try {
    return run(*workload, seed, budgetS, trace == 1, spansPath);
  } catch (const std::exception& e) {
    std::printf("CHECK FAILED simulation threw: %s\n", e.what());
    printJson(false, 1, 1, {});
    return 1;
  }
}
