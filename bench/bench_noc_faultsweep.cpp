// Reliability experiment: fault-rate x offered-load sweep over a seeded
// fault campaign (noc/fault.hpp), with the NI retransmission protocol
// (noc/reliable.hpp) on and off.
//
// For each (fault intensity, load) cell the campaign scatters corruption
// windows, stuck-ack stalls and link-down outages over the links, the
// network runs under uniform traffic and then drains.  With reliability on
// the sweep reports delivered/lost/duplicate counts (exactly-once: lost
// and duplicates stay zero), the retransmission/timeout cost, and the
// goodput degradation versus the fault-free cell at the same load.  The
// reliability-off companion table shows what the same campaign does to an
// unprotected network: undelivered packets and unattributable fragments.
//
// Reliable runs pair the protocol with HLP parity: parity catches any
// single-bit flip per flit, the NI drops flagged frames before the
// transport, and retransmission turns detection into recovery.
//
// Flags are bench_noc_loadsweep's (bench_cli.hpp): --topology=mesh|torus|
// ring (16 nodes each), --kernel=naive|compiled (default compiled),
// --vcs=1|2|4, plus --quick for a reduced CI smoke grid.  First non-flag
// argument is the RunReport JSON artifact path (default
// bench_noc_faultsweep_report.json).
//
// --trace=<path> flit-traces the instrumented *reliable* run and writes
// its Chrome/Perfetto JSON there (--trace-sample=K thins it): the flow
// tracks show injection, the faulted hop's drop/corrupt/stall instants,
// the NACK/retransmit control frames and the exactly-once ejection.
//
// --qos replaces the grid with the QoS-over-reliability experiment: a
// Control probe and a Bulk flow share a 4-VC qosClasses network with the
// retransmission protocol on, swept across the fault campaign
// intensities.  Exactly-once must hold *per class* (data frames carry
// the submitter's class end to end; retransmissions and ACKs ride the
// Control-bound reliability class), and the Control probe's p99 must
// stay put while faults hammer the Bulk lane.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "noc/fault.hpp"
#include "noc/network.hpp"
#include "noc/observe.hpp"
#include "noc/watchdog.hpp"
#include "tech/report.hpp"

using namespace rasoc;
using bench::fmt;
using bench::qosFlow;

namespace {

bench::SweepCli gCli;

int measureCycles() { return gCli.quick ? 800 : 3000; }

std::vector<double> faultRates() {
  if (gCli.quick) return {0.0, 0.01};
  return {0.0, 0.002, 0.01, 0.05};
}

std::vector<double> loads() {
  if (gCli.quick) return {0.10};
  return {0.05, 0.15, 0.25};
}

// Scales a scalar fault intensity into a full campaign: the intensity is
// the per-flit corruption rate, and stall/outage events grow with it.
noc::CampaignConfig campaignFor(double intensity) {
  noc::CampaignConfig campaign;
  campaign.horizon = static_cast<std::uint64_t>(measureCycles());
  campaign.corruptRate = intensity;
  campaign.corruptLinkFraction = 0.75;
  const int events =
      intensity > 0.0 ? 2 + static_cast<int>(intensity * 100.0) : 0;
  campaign.stallEvents = events;
  campaign.dropEvents = events;
  campaign.minDuration = 16;
  campaign.maxDuration = 96;
  campaign.seed = 0xfa17;
  return campaign;
}

noc::NetworkConfig benchConfig(double intensity, bool reliable,
                               int vcs = 0) {
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  if (gCli.topology == "ring") cfg.params.m = 10;
  cfg.params.numVCs = vcs > 0 ? vcs : gCli.vcs;
  cfg.kernel = bench::benchKernel(gCli);
  cfg.hlpParity = true;  // same wire format in both tables
  if (reliable) {
    cfg.reliability.enabled = true;
    cfg.reliability.seqBits = 6;
    cfg.reliability.window = 8;
    // Generous timeouts: the RTO must sit above the congested round trip,
    // or queueing delay masquerades as loss and triggers spurious
    // retransmit storms.
    cfg.reliability.rtoInitial = 256;
    cfg.reliability.rtoMax = 4096;
    cfg.reliability.nackMinInterval = 16;
  }
  if (intensity > 0.0)
    cfg.faultPlan = noc::makeFaultPlan(*bench::makeBenchTopology(gCli),
                                       campaignFor(intensity));
  return cfg;
}

noc::TrafficConfig benchTraffic(double load) {
  noc::TrafficConfig traffic;
  traffic.pattern = noc::TrafficPattern::UniformRandom;
  traffic.offeredLoad = load;
  traffic.payloadFlits = 6;
  traffic.seed = 99;
  return traffic;
}

struct Cell {
  std::uint64_t queued = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;         // queued - delivered after the drain
  std::uint64_t duplicates = 0;   // duplicate frames suppressed at the NIs
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t unattributed = 0;
  bool drained = false;
  double goodput = 0.0;  // delivered payload+framing flits /cycle/node
};

Cell run(double intensity, double load, bool reliable, int vcs = 0) {
  auto topology = bench::makeBenchTopology(gCli);
  noc::Network net(topology, benchConfig(intensity, reliable, vcs));
  net.attachTraffic(benchTraffic(load));
  const int cycles = measureCycles();
  net.run(static_cast<std::uint64_t>(cycles));
  Cell cell;
  // Close the offered-load window, then drain so in-flight packets do not
  // masquerade as losses.  Unprotected runs can still be wedged by
  // truncated wormholes, so the cap must not hang.
  net.pauseTraffic(true);
  cell.drained = net.drain(static_cast<std::uint64_t>(cycles) * 20);
  cell.queued = net.ledger().queued();
  cell.delivered = net.ledger().delivered();
  cell.lost = cell.queued - cell.delivered;
  cell.unattributed = net.unattributedPackets();
  if (reliable) {
    const noc::ReliabilityStats rs = net.reliabilityStats();
    cell.duplicates = rs.duplicatesDropped;
    cell.retransmits = rs.retransmissions;
    cell.timeouts = rs.timeouts;
  }
  // Delivered flits over the whole run including the drain tail, so
  // retransmission latency shows up as lost goodput.
  cell.goodput = net.ledger().throughputFlitsPerCyclePerNode(
      net.simulator().cycle(), topology->nodes());
  return cell;
}

std::string fmtU(std::uint64_t v) { return std::to_string(v); }

// --- QoS-over-reliability experiment (--qos) --------------------------

struct QosCell {
  std::uint64_t ctrlQueued = 0;
  std::uint64_t ctrlDelivered = 0;
  std::uint64_t bulkQueued = 0;
  std::uint64_t bulkDelivered = 0;
  double ctrlP99 = 0.0;
  double ctrlNetP99 = 0.0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  bool drained = false;
};

QosCell runQosCell(double intensity) {
  auto topology = bench::makeBenchTopology(gCli);
  noc::NetworkConfig cfg = benchConfig(intensity, /*reliable=*/true, 4);
  cfg.params.qosClasses = true;
  noc::Network net(topology, cfg);
  // Bulk at 0.10: the class map confines Bulk to a single adaptive lane,
  // which saturates well before the whole-fabric knee — 0.10 keeps the
  // lane's queueing delay under the RTO so congestion does not
  // masquerade as loss in the timeout column.
  net.attachTraffic(std::vector<noc::FlowSpec>{
      qosFlow(router::TrafficClass::Control, 0.02, 2, 99),
      qosFlow(router::TrafficClass::Bulk, 0.10, 6, 7)});
  const int cycles = measureCycles();
  net.run(static_cast<std::uint64_t>(cycles));
  net.pauseTraffic(true);
  QosCell cell;
  cell.drained = net.drain(static_cast<std::uint64_t>(cycles) * 20);
  cell.ctrlQueued = net.ledger().queued(router::TrafficClass::Control);
  cell.ctrlDelivered = net.ledger().delivered(router::TrafficClass::Control);
  cell.bulkQueued = net.ledger().queued(router::TrafficClass::Bulk);
  cell.bulkDelivered = net.ledger().delivered(router::TrafficClass::Bulk);
  cell.ctrlP99 = net.ledger()
                     .packetLatency(router::TrafficClass::Control)
                     .percentile(0.99);
  cell.ctrlNetP99 = net.ledger()
                        .networkLatency(router::TrafficClass::Control)
                        .percentile(0.99);
  const noc::ReliabilityStats rs = net.reliabilityStats();
  cell.retransmits = rs.retransmissions;
  cell.timeouts = rs.timeouts;
  return cell;
}

int runQosSweep() {
  std::printf(
      "RASoC %s QoS-over-reliability sweep (16 nodes, n=16, 4 VCs, "
      "qosClasses, reliable transport, %d measured cycles + drain, %s "
      "kernel)\n\n",
      bench::makeBenchTopology(gCli)->describe().c_str(), measureCycles(),
      gCli.kernel.c_str());

  int exitCode = 0;
  tech::Table table({"fault rate", "ctrl q/d", "ctrl lost", "ctrl p99",
                     "ctrl net p99", "bulk q/d", "bulk lost", "retx",
                     "timeouts", "drained"});
  for (double rate : faultRates()) {
    const QosCell cell = runQosCell(rate);
    const std::uint64_t ctrlLost = cell.ctrlQueued - cell.ctrlDelivered;
    const std::uint64_t bulkLost = cell.bulkQueued - cell.bulkDelivered;
    table.addRow({fmt(rate, "%.3f"),
                  fmtU(cell.ctrlQueued) + "/" + fmtU(cell.ctrlDelivered),
                  fmtU(ctrlLost), fmt(cell.ctrlP99, "%.1f"),
                  fmt(cell.ctrlNetP99, "%.1f"),
                  fmtU(cell.bulkQueued) + "/" + fmtU(cell.bulkDelivered),
                  fmtU(bulkLost), fmtU(cell.retransmits),
                  fmtU(cell.timeouts), cell.drained ? "yes" : "NO"});
    if (ctrlLost != 0 || bulkLost != 0 || !cell.drained) {
      std::printf("!! per-class exactly-once violated at rate=%.3f\n", rate);
      exitCode = 1;
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nShape checks: lost is zero in both class columns at every fault\n"
      "rate — the class tag survives retransmission, so recovered frames\n"
      "land in their submitter's ledger bucket.  The end-to-end ctrl p99\n"
      "grows with the fault rate because a corrupted Control frame waits\n"
      "out an RTO like any other — reliability trades tail latency for\n"
      "the delivery guarantee, it does not bypass it per class.  That the\n"
      "net p99 matches the end-to-end p99 localizes the tail: the wait is\n"
      "in-flight recovery, not backlog at the source NI.\n");
  return exitCode;
}

std::string instrumentedReport(double intensity, double load, bool reliable,
                               std::string* traceJson = nullptr) {
  auto topology = bench::makeBenchTopology(gCli);
  noc::Network net(topology, benchConfig(intensity, reliable));
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
  net.attachTraffic(benchTraffic(load));
  const int cycles = measureCycles();
  net.run(static_cast<std::uint64_t>(cycles));
  net.pauseTraffic(true);
  net.drain(static_cast<std::uint64_t>(cycles) * 20);
  if (tracer) *traceJson = tracer->perfettoJson();
  telemetry::RunReport report = noc::buildRunReport(
      std::string("faultsweep.") + (reliable ? "reliable" : "unprotected"),
      net, &watchdog);
  report.set("run", "fault_intensity", intensity);
  report.set("run", "offered_load", load);
  report.set("run", "kernel", gCli.kernel);
  report.set("run", "seed", std::uint64_t{99});
  return report.toJson();
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parseSweepCli(argc, argv, /*allowQuick=*/true, gCli)) return 1;
  if (gCli.qos) return runQosSweep();
  const std::string path =
      gCli.path.empty() ? "bench_noc_faultsweep_report.json" : gCli.path;

  std::printf(
      "RASoC %s fault sweep (16 nodes, n=16, 8-flit packets, %d measured "
      "cycles + drain, %s kernel)\n\n",
      bench::makeBenchTopology(gCli)->describe().c_str(), measureCycles(),
      gCli.kernel.c_str());

  int exitCode = 0;

  std::printf("--- reliability ON (seq=6 bits, window=8, rto=256..4096) ---\n");
  for (double load : loads()) {
    std::printf("load %.2f:\n", load);
    tech::Table table({"fault rate", "queued", "delivered", "lost", "dup",
                       "retx", "timeouts", "goodput", "degr%"});
    double baseline = 0.0;
    for (double rate : faultRates()) {
      const Cell cell = run(rate, load, /*reliable=*/true);
      if (rate == 0.0) baseline = cell.goodput;
      const double degradation =
          baseline > 0.0 ? (1.0 - cell.goodput / baseline) * 100.0 : 0.0;
      table.addRow({fmt(rate, "%.3f"), fmtU(cell.queued),
                    fmtU(cell.delivered), fmtU(cell.lost),
                    fmtU(cell.duplicates), fmtU(cell.retransmits),
                    fmtU(cell.timeouts), fmt(cell.goodput, "%.4f"),
                    fmt(degradation, "%.1f")});
      if (cell.lost != 0 || !cell.drained) {
        std::printf("!! exactly-once violated at rate=%.3f load=%.2f\n",
                    rate, load);
        exitCode = 1;
      }
    }
    std::fputs(table.render().c_str(), stdout);
  }

  std::printf(
      "\n--- reliability OFF (same campaigns, unprotected wire format) "
      "---\n");
  for (double load : loads()) {
    std::printf("load %.2f:\n", load);
    tech::Table table({"fault rate", "queued", "delivered", "undelivered",
                       "unattributed", "drained", "goodput"});
    for (double rate : faultRates()) {
      const Cell cell = run(rate, load, /*reliable=*/false);
      table.addRow({fmt(rate, "%.3f"), fmtU(cell.queued),
                    fmtU(cell.delivered), fmtU(cell.lost),
                    fmtU(cell.unattributed), cell.drained ? "yes" : "NO",
                    fmt(cell.goodput, "%.4f")});
    }
    std::fputs(table.render().c_str(), stdout);
  }

  // Reliability over virtual channels: the same exactly-once claim must
  // hold when packets interleave flit-by-flit across VCs on every link —
  // the retransmission protocol sits above per-VC reassembly, so a framing
  // bug in either layer shows up as lost or duplicated frames here.
  std::printf("\n--- reliability over VCs (rate=%.3f, load=%.2f) ---\n",
              faultRates().back(), loads()[0]);
  {
    tech::Table table({"VCs", "queued", "delivered", "lost", "dup", "retx",
                       "goodput", "drained"});
    for (int vcs : {1, 2, 4}) {
      const Cell cell =
          run(faultRates().back(), loads()[0], /*reliable=*/true, vcs);
      table.addRow({fmtU(static_cast<std::uint64_t>(vcs)), fmtU(cell.queued),
                    fmtU(cell.delivered), fmtU(cell.lost),
                    fmtU(cell.duplicates), fmtU(cell.retransmits),
                    fmt(cell.goodput, "%.4f"), cell.drained ? "yes" : "NO"});
      if (cell.lost != 0 || !cell.drained) {
        std::printf("!! exactly-once violated at vcs=%d\n", vcs);
        exitCode = 1;
      }
    }
    std::fputs(table.render().c_str(), stdout);
  }

  std::printf(
      "\nShape checks: with reliability on, lost and dup are zero in every\n"
      "cell (exactly-once), and goodput degrades gracefully as retransmits\n"
      "consume bandwidth.  Without it the same campaigns strand packets\n"
      "(undelivered > 0) and leave unattributable fragments; a wedged drain\n"
      "(drained=NO) means a truncated wormhole never released its path.\n");

  const double midRate = faultRates().back();
  const double midLoad = loads()[loads().size() / 2];
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::printf("!! cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs("[\n", out);
  std::string traceJson;
  std::fputs(instrumentedReport(midRate, midLoad, true,
                                gCli.tracePath.empty() ? nullptr : &traceJson)
                 .c_str(),
             out);
  std::fputs(",\n", out);
  std::fputs(instrumentedReport(midRate, midLoad, false).c_str(), out);
  std::fputs("]\n", out);
  std::fclose(out);
  std::printf("\nRunReport JSON written to %s\n", path.c_str());

  if (!gCli.tracePath.empty() && !bench::writePerfettoTrace(traceJson, gCli))
    return 1;
  return exitCode;
}
