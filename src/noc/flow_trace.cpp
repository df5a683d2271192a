#include "noc/flow_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "noc/network.hpp"
#include "router/faulty_link.hpp"
#include "router/input_channel.hpp"
#include "router/output_channel.hpp"

namespace rasoc::noc {

using router::Port;
using router::kAllPorts;
using router::kNumPorts;
using telemetry::TraceEvent;
using telemetry::TraceEventKind;

namespace {

// Perfetto track-id plan.  Routers get one process each (tids 1..5 =
// input ports, 11..15 = output ports in Port order); flows group by source
// node.
constexpr int kRouterPidBase = 100;
constexpr int kFlowPidBase = 10000;

bool queuedKind(TraceEventKind kind) {
  return kind == TraceEventKind::PacketQueued ||
         kind == TraceEventKind::RetransmitQueued ||
         kind == TraceEventKind::AckQueued ||
         kind == TraceEventKind::NackQueued;
}

std::string pktName(std::uint64_t id) { return "pkt" + std::to_string(id); }

std::string flowName(std::int32_t src, std::int32_t dst) {
  return std::to_string(src) + "->" + std::to_string(dst);
}

}  // namespace

FlowTracer::FlowTracer(Network& network, TraceConfig config)
    : net_(&network), config_(config), sink_(config.capacity) {
  const Topology& topo = net_->topology();
  nodes_ = topo.nodes();
  const std::size_t slots = static_cast<std::size_t>(nodes_) * kNumPorts;
  inputs_.assign(slots, nullptr);
  outputs_.assign(slots, nullptr);
  upstream_.assign(slots, -1);
  fifo_.assign(slots, {});
  niStream_.assign(static_cast<std::size_t>(nodes_), {});
  prevAccepted_.assign(slots, 0);
  prevSent_.assign(slots, 0);
  popped_.assign(slots, {});
  poppedValid_.assign(slots, 0);
  transfer_.assign(slots, {});
  transferValid_.assign(slots, 0);

  for (int n = 0; n < nodes_; ++n) {
    const NodeId node = topo.nodeAt(n);
    const router::Rasoc& r = net_->router(node);
    for (Port p : kAllPorts) {
      if (!r.params().hasPort(p)) continue;
      const std::size_t s = slot(n, router::index(p));
      inputs_[s] = &r.inputChannel(p);
      outputs_[s] = &r.outputChannel(p);
      if (p == Port::Local) continue;
      if (const std::optional<NodeId> nb = topo.neighbor(node, p)) {
        const std::size_t in =
            slot(topo.indexOf(*nb), router::index(router::opposite(p)));
        upstream_[in] = static_cast<int>(s);
      }
    }
  }
  for (const auto& [id, link] : net_->faultyLinks()) {
    FaultyView view;
    view.slot = slot(topo.indexOf(id.from), router::index(id.port));
    view.link = link;
    faulty_.push_back(view);
  }
  resyncCounters();
}

void FlowTracer::emit(TraceEventKind kind, std::uint64_t cycle,
                      std::uint64_t id, const PacketMeta& m, int node,
                      int port, std::int32_t value) {
  TraceEvent ev;
  ev.cycle = cycle;
  ev.packet = id;
  ev.node = node;
  ev.src = m.src;
  ev.dst = m.dst;
  ev.value = value;
  ev.port = static_cast<std::int8_t>(port);
  ev.kind = kind;
  sink_.record(ev);
}

std::uint64_t FlowTracer::onPacketQueued(NodeId src, NodeId dst,
                                         TraceEventKind kind, int flits) {
  const Topology& topo = net_->topology();
  const int s = topo.indexOf(src);
  const int d = topo.indexOf(dst);
  const std::uint64_t id = nextId_++;
  const bool sampled =
      config_.sampleEvery <= 1 ||
      (static_cast<std::uint64_t>(s) * static_cast<std::uint64_t>(nodes_) +
       static_cast<std::uint64_t>(d)) %
              config_.sampleEvery ==
          0;
  Staged staged;
  staged.kind = kind;
  staged.src = s;
  staged.dst = d;
  staged.flits = flits;
  if (!sampled) {
    staged_.push_back(staged);  // a filler: id 0, no slot
    return 0;
  }
  PacketMeta m;
  m.id = id;
  m.src = s;
  m.dst = d;
  m.flits = flits;
  m.kind = kind;
  std::uint32_t metaSlot;
  if (freeSlots_.empty()) {
    metaSlot = static_cast<std::uint32_t>(metas_.size());
    metas_.push_back(m);
  } else {
    metaSlot = freeSlots_.back();
    freeSlots_.pop_back();
    metas_[metaSlot] = m;
  }
  ++packetsTraced_;
  staged.ref = {id, metaSlot};
  staged_.push_back(staged);
  return id;
}

void FlowTracer::desync(const char* where, int node, int port) const {
  std::ostringstream os;
  os << "flow tracer shadow state desynchronized (" << where << ") at node "
     << node << " port " << port
     << ": enableTracing must run before the first cycle and before any "
        "packet is queued";
  throw std::logic_error(os.str());
}

void FlowTracer::onTick() {
  const std::uint64_t cycle = net_->simulator().cycle();

  // 1. Flush NI enqueues staged since the previous edge into the shadow
  //    per-NI stream queues (order matches the NI's send queue).
  for (const Staged& s : staged_) {
    NiEntry entry;
    entry.ref = s.ref;
    entry.flits = s.flits;
    niStream_[static_cast<std::size_t>(s.src)].push_back(entry);
    if (PacketMeta* m = meta(s.ref)) {
      m->queuedCycle = cycle;
      emit(s.kind, cycle, s.ref.id, *m, s.src, router::index(Port::Local),
           s.flits);
    }
  }
  staged_.clear();

  // 2. Input-buffer reads: the rd && rok strobes were settled pre-edge, so
  //    the head of each shadow FIFO is exactly the flit that left.
  for (int n = 0; n < nodes_; ++n) {
    for (Port p : kAllPorts) {
      const std::size_t s = slot(n, router::index(p));
      poppedValid_[s] = 0;
      const router::InputChannel* ic = inputs_[s];
      if (!ic || !ic->dequeueFired()) continue;
      auto& q = fifo_[s];
      if (q.empty()) desync("buffer read", n, router::index(p));
      const FifoEntry e = q.front();
      q.pop_front();
      popped_[s] = e.ref;
      poppedValid_[s] = 1;
      if (PacketMeta* m = meta(e.ref)) {
        const std::uint64_t residency = cycle - e.enqCycle;
        if (e.bop) {
          ++m->hops;
          m->hopBlocked += residency - 1;
        }
        emit(TraceEventKind::FifoDequeue, cycle, e.ref.id, *m, n,
             router::index(p), static_cast<std::int32_t>(residency));
      }
    }
  }

  // 3. Output channels: arbitration (grants fire when the registered
  //    connection appears at this edge; every other pre-edge requester
  //    waited) and flit transfers (flitsSent deltas; the source input is
  //    the pre-edge selection).
  for (int n = 0; n < nodes_; ++n) {
    for (Port p : kAllPorts) {
      const std::size_t s = slot(n, router::index(p));
      transferValid_[s] = 0;
      const router::OutputChannel* oc = outputs_[s];
      if (!oc) continue;
      const std::uint64_t sent = oc->flitsSent();
      const bool transferred = sent != prevSent_[s];
      prevSent_[s] = sent;

      const bool preConn = oc->connectedWire();
      const int preSel = oc->selWire();
      const int own = router::index(p);
      const auto& xbar = oc->xbarWires();
      const bool grantFired = !preConn && oc->controller().isConnected();
      const int granted = router::index(oc->controller().selectedInput());
      for (int i = 0; i < kNumPorts; ++i) {
        if (i == own || !xbar[static_cast<std::size_t>(i)].req[
                            static_cast<std::size_t>(own)].get())
          continue;
        if (preConn && preSel == i) continue;  // already being served
        const auto& q = fifo_[slot(n, i)];
        if (q.empty()) continue;
        const PacketRef& ref = q.front().ref;
        if (PacketMeta* m = meta(ref)) {
          const bool won = grantFired && granted == i;
          emit(won ? TraceEventKind::ArbGrant : TraceEventKind::ArbConflict,
               cycle, ref.id, *m, n, own, i);
        }
      }

      if (!transferred) continue;
      const std::size_t from = slot(n, preSel);
      if (!poppedValid_[from]) desync("transfer source", n, own);
      const PacketRef ref = popped_[from];
      if (p == Port::Local) {
        const auto& w = oc->outWires();
        if (PacketMeta* m = meta(ref)) {
          if (w.flit.bop.get()) {
            m->headerEjectCycle = cycle;
            emit(TraceEventKind::HeaderEjected, cycle, ref.id, *m, n, own, 0);
          }
          if (w.flit.eop.get()) {
            emit(TraceEventKind::PacketEjected, cycle, ref.id, *m, n, own, 0);
            completePacket(ref, cycle);
          }
        }
      } else {
        if (PacketMeta* m = meta(ref))
          emit(TraceEventKind::LinkTransfer, cycle, ref.id, *m, n, own, 0);
        transfer_[s] = ref;
        transferValid_[s] = 1;
      }
    }
  }

  // 4. Faulty links, attributed via this edge's transfer (corrupt/drop act
  //    on the transferred flit) or the blocked input's head (stalls).
  for (FaultyView& f : faulty_) {
    const int n = static_cast<int>(f.slot / kNumPorts);
    const int p = static_cast<int>(f.slot % kNumPorts);
    const std::uint64_t corrupted = f.link->flitsCorrupted();
    if (corrupted != f.prevCorrupted) {
      f.prevCorrupted = corrupted;
      if (transferValid_[f.slot]) {
        const PacketRef& ref = transfer_[f.slot];
        if (PacketMeta* m = meta(ref))
          emit(TraceEventKind::LinkCorrupt, cycle, ref.id, *m, n, p, 0);
      }
    }
    const std::uint64_t dropped = f.link->flitsDropped();
    if (dropped != f.prevDropped) {
      f.prevDropped = dropped;
      if (transferValid_[f.slot]) {
        const PacketRef& ref = transfer_[f.slot];
        if (PacketMeta* m = meta(ref))
          emit(TraceEventKind::LinkDrop, cycle, ref.id, *m, n, p, 0);
        // The flit was consumed by the link; it never reaches the far side.
        transferValid_[f.slot] = 0;
      }
    }
    const std::uint64_t stalls = f.link->stallCycles();
    if (stalls != f.prevStalls) {
      f.prevStalls = stalls;
      const router::OutputChannel* oc = outputs_[f.slot];
      if (oc && oc->connectedWire()) {
        const auto& q = fifo_[slot(n, oc->selWire())];
        if (!q.empty()) {
          const PacketRef& ref = q.front().ref;
          if (PacketMeta* m = meta(ref))
            emit(TraceEventKind::LinkStall, cycle, ref.id, *m, n, p, 0);
        }
      }
    }
  }

  // 5. Input-buffer writes (flitsAccepted deltas).  Local ports consume
  //    the NI shadow stream; the other ports take this edge's transfer on
  //    the upstream link.
  for (int n = 0; n < nodes_; ++n) {
    for (Port p : kAllPorts) {
      const std::size_t s = slot(n, router::index(p));
      const router::InputChannel* ic = inputs_[s];
      if (!ic) continue;
      const std::uint64_t accepted = ic->flitsAccepted();
      if (accepted == prevAccepted_[s]) continue;
      prevAccepted_[s] = accepted;
      const bool bop = ic->inWires().flit.bop.get();
      PacketRef ref;
      if (p == Port::Local) {
        auto& stream = niStream_[static_cast<std::size_t>(n)];
        if (stream.empty()) desync("NI stream", n, router::index(p));
        NiEntry& e = stream.front();
        ref = e.ref;
        const std::int32_t seq = e.next++;
        if (PacketMeta* m = meta(ref)) {
          emit(TraceEventKind::FlitInjected, cycle, ref.id, *m, n,
               router::index(p), seq);
          if (bop) {
            m->headerInjectCycle = cycle;
            emit(TraceEventKind::HeaderInjected, cycle, ref.id, *m, n,
                 router::index(p), 0);
          }
        }
        if (e.next == e.flits) stream.pop_front();
      } else {
        const int up = upstream_[s];
        if (up < 0 || !transferValid_[static_cast<std::size_t>(up)])
          desync("link push", n, router::index(p));
        ref = transfer_[static_cast<std::size_t>(up)];
        if (PacketMeta* m = meta(ref))
          emit(TraceEventKind::FifoEnqueue, cycle, ref.id, *m, n,
               router::index(p), 0);
      }
      FifoEntry e;
      e.ref = ref;
      e.enqCycle = cycle;
      e.bop = bop;
      fifo_[s].push_back(e);
    }
  }
}

void FlowTracer::completePacket(const PacketRef& ref,
                                std::uint64_t ejectCycle) {
  const PacketMeta& done = metas_[ref.slot];
  decomp_.endToEnd.record(static_cast<double>(ejectCycle - done.queuedCycle));
  decomp_.sourceQueue.record(
      static_cast<double>(done.headerInjectCycle - done.queuedCycle));
  decomp_.hopMin.record(static_cast<double>(done.hops));
  decomp_.hopBlocked.record(static_cast<double>(done.hopBlocked));
  decomp_.drain.record(
      static_cast<double>(ejectCycle - done.headerEjectCycle));
  ++packetsCompleted_;
  if (spans_.size() < config_.maxFlowSpans) {
    FlowSpan span;
    span.id = ref.id;
    span.src = done.src;
    span.dst = done.dst;
    span.kind = done.kind;
    span.queuedCycle = done.queuedCycle;
    span.injectCycle = done.headerInjectCycle;
    span.headerEjectCycle = done.headerEjectCycle;
    span.ejectCycle = ejectCycle;
    span.hops = done.hops;
    span.blockedCycles = done.hopBlocked;
    spans_.push_back(span);
  } else {
    ++spanOverflow_;
  }
  metas_[ref.slot].id = 0;
  freeSlots_.push_back(ref.slot);
}

void FlowTracer::resyncCounters() {
  const std::size_t slots = static_cast<std::size_t>(nodes_) * kNumPorts;
  for (std::size_t s = 0; s < slots; ++s) {
    prevAccepted_[s] = inputs_[s] ? inputs_[s]->flitsAccepted() : 0;
    prevSent_[s] = outputs_[s] ? outputs_[s]->flitsSent() : 0;
  }
  for (FaultyView& f : faulty_) {
    f.prevCorrupted = f.link->flitsCorrupted();
    f.prevDropped = f.link->flitsDropped();
    f.prevStalls = f.link->stallCycles();
  }
}

void FlowTracer::clear() {
  sink_.clear();
  staged_.clear();
  metas_.clear();
  freeSlots_.clear();
  for (auto& q : fifo_) q.clear();
  for (auto& q : niStream_) q.clear();
  decomp_ = Decomposition{};
  spans_.clear();
  spanOverflow_ = 0;
  nextId_ = 1;
  packetsTraced_ = 0;
  packetsCompleted_ = 0;
  resyncCounters();
}

std::string FlowTracer::perfettoJson() const {
  telemetry::PerfettoWriter w;
  const Topology& topo = net_->topology();

  // Metadata: one process per router (tracks per port), one process per
  // flow source (tracks per destination).
  for (int n = 0; n < nodes_; ++n) {
    const NodeId node = topo.nodeAt(n);
    // Appended piecewise: GCC 12 -O3 reports a false -Wrestrict overlap
    // for `"literal" + std::string`.
    std::string process = "r";
    process += std::to_string(n);
    process += " (" + std::to_string(node.x) + "," + std::to_string(node.y) +
               ")";
    w.processName(kRouterPidBase + n, process);
    for (Port p : kAllPorts) {
      if (!inputs_[slot(n, router::index(p))]) continue;
      const std::string letter(router::name(p));
      w.threadName(kRouterPidBase + n, 1 + router::index(p), "in." + letter);
      w.threadName(kRouterPidBase + n, 11 + router::index(p),
                   "out." + letter);
    }
  }
  std::set<std::pair<std::int32_t, std::int32_t>> flows;
  for (const FlowSpan& span : spans_) flows.insert({span.src, span.dst});
  for (std::size_t i = 0; i < sink_.size(); ++i) {
    const TraceEvent& ev = sink_.at(i);
    if (queuedKind(ev.kind)) flows.insert({ev.src, ev.dst});
  }
  std::set<std::int32_t> flowSrcs;
  for (const auto& [src, dst] : flows) {
    if (flowSrcs.insert(src).second)
      w.processName(kFlowPidBase + src, "flows from " + std::to_string(src));
    w.threadName(kFlowPidBase + src, dst + 1, "to " + std::to_string(dst));
  }

  // One span per completed packet on its flow track.
  for (const FlowSpan& span : spans_) {
    w.complete(kFlowPidBase + span.src, span.dst + 1, span.queuedCycle,
               span.ejectCycle - span.queuedCycle, pktName(span.id),
               {{"kind", std::string(telemetry::name(span.kind))},
                {"hops", std::to_string(span.hops)},
                {"blocked", std::to_string(span.blockedCycles)},
                {"inject", std::to_string(span.injectCycle)}});
  }

  // Port-level events from the ring.  FifoDequeue events carry the flit's
  // buffer residency, so each becomes a complete span without needing its
  // (possibly overwritten) matching enqueue; FlitInjected and FifoEnqueue
  // are redundant with those spans and stay ring-only.
  for (std::size_t i = 0; i < sink_.size(); ++i) {
    const TraceEvent& ev = sink_.at(i);
    const int pid = kRouterPidBase + ev.node;
    const int inTid = 1 + ev.port;
    const int outTid = 11 + ev.port;
    switch (ev.kind) {
      case TraceEventKind::PacketQueued:
      case TraceEventKind::RetransmitQueued:
      case TraceEventKind::AckQueued:
      case TraceEventKind::NackQueued:
        w.instant(kFlowPidBase + ev.src, ev.dst + 1, ev.cycle,
                  std::string(telemetry::name(ev.kind)) + " " +
                      pktName(ev.packet));
        break;
      case TraceEventKind::FlitInjected:
      case TraceEventKind::FifoEnqueue:
        break;
      case TraceEventKind::HeaderInjected:
        w.instant(pid, inTid, ev.cycle, "inject " + pktName(ev.packet));
        break;
      case TraceEventKind::FifoDequeue:
        w.complete(pid, inTid, ev.cycle - static_cast<std::uint64_t>(ev.value),
                   static_cast<std::uint64_t>(ev.value), pktName(ev.packet),
                   {{"flow", flowName(ev.src, ev.dst)}});
        break;
      case TraceEventKind::ArbGrant:
        w.instant(pid, outTid, ev.cycle,
                  "grant " +
                      std::string(router::name(
                          static_cast<Port>(ev.value))) +
                      " " + pktName(ev.packet));
        break;
      case TraceEventKind::ArbConflict:
        w.instant(pid, outTid, ev.cycle,
                  "wait " +
                      std::string(router::name(
                          static_cast<Port>(ev.value))) +
                      " " + pktName(ev.packet));
        break;
      case TraceEventKind::LinkTransfer:
        w.instant(pid, outTid, ev.cycle, "xfer " + pktName(ev.packet));
        break;
      case TraceEventKind::LinkCorrupt:
        w.instant(pid, outTid, ev.cycle, "fault:corrupt " + pktName(ev.packet));
        break;
      case TraceEventKind::LinkDrop:
        w.instant(pid, outTid, ev.cycle, "fault:drop " + pktName(ev.packet));
        break;
      case TraceEventKind::LinkStall:
        w.instant(pid, outTid, ev.cycle, "fault:stall " + pktName(ev.packet));
        break;
      case TraceEventKind::HeaderEjected:
        w.instant(pid, outTid, ev.cycle, "eject-head " + pktName(ev.packet));
        break;
      case TraceEventKind::PacketEjected:
        w.instant(pid, outTid, ev.cycle, "eject " + pktName(ev.packet));
        break;
    }
  }
  return w.toJson();
}

namespace {

void statRow(telemetry::RunReport& report, const std::string& key,
             const LatencyStats& stats) {
  report.set("trace", key + "_count",
             static_cast<std::uint64_t>(stats.count()));
  if (stats.count() == 0) return;
  report.set("trace", key + "_mean", stats.mean());
  report.set("trace", key + "_p50", stats.percentile(0.50));
  report.set("trace", key + "_p95", stats.percentile(0.95));
  report.set("trace", key + "_p99", stats.percentile(0.99));
}

}  // namespace

void FlowTracer::writeReport(telemetry::RunReport& report) const {
  report.set("trace", "sample_every", config_.sampleEvery);
  report.set("trace", "packets_traced", packetsTraced_);
  report.set("trace", "packets_completed", packetsCompleted_);
  report.set("trace", "events_recorded", sink_.recorded());
  report.set("trace", "events_retained",
             static_cast<std::uint64_t>(sink_.size()));
  report.set("trace", "events_dropped", sink_.dropped());
  statRow(report, "end_to_end", decomp_.endToEnd);
  statRow(report, "source_queue", decomp_.sourceQueue);
  statRow(report, "hop_min", decomp_.hopMin);
  statRow(report, "hop_blocked", decomp_.hopBlocked);
  statRow(report, "drain", decomp_.drain);
}

std::string FlowTracer::decompositionTable() const {
  std::ostringstream os;
  os << "component     count      mean       p50       p95       p99\n";
  const auto row = [&os](const char* label, const LatencyStats& stats) {
    os << label;
    for (std::size_t i = std::string(label).size(); i < 14; ++i) os << ' ';
    if (stats.count() == 0) {
      os << "    0\n";
      return;
    }
    const auto cell = [&os](double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", v);
      const std::string t = buf;
      for (std::size_t i = t.size(); i < 10; ++i) os << ' ';
      os << t;
    };
    const std::string count = std::to_string(stats.count());
    for (std::size_t i = count.size(); i < 5; ++i) os << ' ';
    os << count;
    cell(stats.mean());
    cell(stats.percentile(0.50));
    cell(stats.percentile(0.95));
    cell(stats.percentile(0.99));
    os << '\n';
  };
  row("end_to_end", decomp_.endToEnd);
  row("source_queue", decomp_.sourceQueue);
  row("hop_min", decomp_.hopMin);
  row("hop_blocked", decomp_.hopBlocked);
  row("drain", decomp_.drain);
  return os.str();
}

std::vector<TraceEvent> FlowTracer::recentLinkEvents(NodeId from, Port port,
                                                     std::size_t n) const {
  const Topology& topo = net_->topology();
  const int fromIdx = topo.indexOf(from);
  const int outPort = router::index(port);
  int toIdx = -1;
  int inPort = -1;
  if (port != Port::Local) {
    if (const std::optional<NodeId> nb = topo.neighbor(from, port)) {
      toIdx = topo.indexOf(*nb);
      inPort = router::index(router::opposite(port));
    }
  }
  std::vector<TraceEvent> out;
  for (std::size_t i = sink_.size(); i > 0 && out.size() < n; --i) {
    const TraceEvent& ev = sink_.at(i - 1);
    const bool sender = ev.node == fromIdx && ev.port == outPort;
    const bool receiver = toIdx >= 0 && ev.node == toIdx && ev.port == inPort;
    if (sender || receiver) out.push_back(ev);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace rasoc::noc
