#include "noc/ni.hpp"

#include <bit>
#include <stdexcept>

#include "noc/flow_trace.hpp"
#include "sim/compile.hpp"

namespace rasoc::noc {

using router::Flit;
using router::FlowControl;

NetworkInterface::NetworkInterface(std::string name,
                                   const router::RouterParams& params,
                                   std::shared_ptr<const Topology> topology,
                                   NodeId self, router::ChannelWires& toRouter,
                                   router::ChannelWires& fromRouter,
                                   DeliveryLedger& ledger, NiOptions options)
    : Module(std::move(name)),
      params_(params),
      options_(options),
      flowControl_(params.flowControl),
      topology_(std::move(topology)),
      self_(self),
      toRouter_(&toRouter),
      fromRouter_(&fromRouter),
      ledger_(&ledger) {
  if (!topology_) throw std::invalid_argument("NI needs a topology");
  topology_->indexOf(self_);  // bounds-check our own address
  if (static_cast<std::uint64_t>(topology_->nodes()) >
      static_cast<std::uint64_t>(router::dataMask(payloadBits())) + 1)
    throw std::invalid_argument(
        "node index must fit in one payload flit; shrink the network or "
        "widen n");
  if (options_.reliability.enabled) {
    options_.reliability.validate(payloadBits());
    transport_ = std::make_unique<ReliableTransport>(
        options_.reliability, topology_, self_, payloadBits());
  }
  if (params_.qosClasses) {
    if (options_.escapeVCs < 1 || options_.escapeVCs >= params_.numVCs)
      throw std::invalid_argument(
          "qosClasses: NI escapeVCs outside [1, numVCs)");
    // The in-band class field of the reliability control word must not
    // overlap the type bits, or recovered payloads lose their class and
    // the per-class delivery ledger can never close them.
    if (options_.reliability.enabled &&
        options_.reliability.seqBits + 4 > payloadBits())
      throw std::invalid_argument(
          "qosClasses + reliability: control word (seqBits + 2 class + 2 "
          "type bits) does not fit the flit payload");
  }
  if (vcMode() &&
      (options_.injectVc < 0 || options_.injectVc >= params_.numVCs))
    throw std::invalid_argument("NI injectVc outside [0, numVCs)");
}

NetworkInterface::NetworkInterface(std::string name,
                                   const router::RouterParams& params,
                                   MeshShape shape, NodeId self,
                                   router::ChannelWires& toRouter,
                                   router::ChannelWires& fromRouter,
                                   DeliveryLedger& ledger, NiOptions options)
    : NetworkInterface(std::move(name), params,
                       std::make_shared<MeshTopology>(shape), self, toRouter,
                       fromRouter, ledger, options) {}

int NetworkInterface::payloadBits() const {
  return options_.hlpParity ? params_.n - 1 : params_.n;
}

int NetworkInterface::injectVcFor(router::TrafficClass cls) const {
  if (!params_.qosClasses) return vcMode() ? options_.injectVc : 0;
  return router::qosInjectVc(cls, params_.numVCs, options_.escapeVCs);
}

std::size_t NetworkInterface::sendQueuePackets() const {
  std::size_t total = 0;
  for (const auto& q : sendQueues_) total += q.size();
  return total + (transport_ ? transport_->backlogFrames() : 0);
}

std::size_t NetworkInterface::sendQueuePackets(
    router::TrafficClass cls) const {
  return sendQueues_[static_cast<std::size_t>(injectVcFor(cls))].size();
}

bool NetworkInterface::idle() const {
  for (const auto& q : sendQueues_)
    if (!q.empty()) return false;
  return !transport_ || transport_->idle();
}

int NetworkInterface::scheduledInjectVc() const {
  // Work-conserving: the highest non-empty, non-blocked inject queue wins.
  // Downstream space is a credit in hand (credit mode), the VC's vcFree
  // level (on/off VC flow control), or nothing at numVCs == 1 in
  // handshake mode, where the ack completes the transfer.
  for (int v = params_.numVCs - 1; v >= 0; --v) {
    const auto vi = static_cast<std::size_t>(v);
    if (sendQueues_[vi].empty()) continue;
    const bool space = creditMode()
                           ? credits_[vi] > 0
                           : !vcMode() || toRouter_->vcFree[vi].get();
    if (space) return v;
  }
  return -1;
}

std::uint32_t NetworkInterface::parityProtect(std::uint32_t word) const {
  const std::uint32_t payload = word & router::dataMask(payloadBits());
  const bool odd = (std::popcount(payload) & 1) != 0;
  // Even parity over the full n-bit word: set the HLP bit to cancel odd
  // payload parity.
  return payload | (odd ? (1u << payloadBits()) : 0u);
}

bool NetworkInterface::parityOk(std::uint32_t word) const {
  return (std::popcount(word & router::dataMask(params_.n)) & 1) == 0;
}

void NetworkInterface::attachMetrics(const NiMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
}

void NetworkInterface::onReset() {
  for (auto& q : sendQueues_) q.clear();
  sendQueueFlits_ = 0;
  credits_.fill(params_.p);
  for (auto& buf : rxFlits_) buf.clear();
  received_.clear();
  cycle_ = 0;
  packetsSent_ = 0;
  packetsReceived_ = 0;
  parityErrors_ = 0;
  unattributed_ = 0;
  misdelivery_ = false;
  if (transport_) transport_->reset();
  lastMetricStats_ = ReliabilityStats{};
}

void NetworkInterface::send(NodeId dst,
                            const std::vector<std::uint32_t>& payload,
                            router::TrafficClass cls) {
  if (dst == self_)
    throw std::invalid_argument(
        "self-addressed packets are not routable (own-port request)");
  if (!topology_->contains(dst))
    throw std::invalid_argument("dst outside network");
  if (!params_.qosClasses) cls = router::TrafficClass::BestEffort;
  const int ledgerClass =
      params_.qosClasses ? static_cast<int>(cls) : -1;

  if (transport_) {
    // The ledger tracks the application packet once, at submission; frames
    // (first transmissions, retransmissions, ACKs) are protocol overhead.
    // `flits` uses the unprotected wire size so goodput numbers stay
    // comparable with reliability on and off.
    PacketRecord record;
    record.src = self_;
    record.dst = dst;
    record.createdCycle = cycle_;
    record.flits = static_cast<int>(payload.size()) + 2;
    record.trafficClass = ledgerClass;
    ledger_->onQueued(record);
    transport_->submit(dst, payload, cls);
    pumpTransport();
    return;
  }

  // Wire format: header + source-index flit + payload (last flit = eop).
  std::vector<std::uint32_t> words;
  words.reserve(payload.size() + 1);
  words.push_back(static_cast<std::uint32_t>(topology_->indexOf(self_)));
  words.insert(words.end(), payload.begin(), payload.end());
  if (options_.hlpParity) {
    for (std::uint32_t& word : words) word = parityProtect(word);
  }

  const int vc = injectVcFor(cls);
  OutPacket packet;
  packet.dst = dst;
  packet.ledgerClass = ledgerClass;
  packet.flits =
      router::makePacket(topology_->ribFor(self_, dst, params_.numVCs), words,
                         params_, vc);
  if (params_.qosClasses)
    packet.flits[0].data =
        router::encodeTrafficClass(packet.flits[0].data, cls, params_.m);

  PacketRecord record;
  record.src = self_;
  record.dst = dst;
  record.createdCycle = cycle_;
  record.flits = static_cast<int>(packet.flits.size());
  record.trafficClass = ledgerClass;
  ledger_->onQueued(record);

  if (tracer_)
    tracer_->onPacketQueued(self_, dst, telemetry::TraceEventKind::PacketQueued,
                            static_cast<int>(packet.flits.size()));

  sendQueueFlits_ += packet.flits.size();
  sendQueues_[static_cast<std::size_t>(vc)].push_back(std::move(packet));
}

void NetworkInterface::evaluate() {
  presentSend();
  if (vcMode()) {
    advertiseRxSpace();
    if (creditMode()) returnRxCredits();
  } else {
    ackRx();
  }
}

void NetworkInterface::presentSend() {
  // Present the next flit whenever one is pending and the flow control
  // permits it (scheduledInjectVc).  With VCs the transfer is then
  // unconditional; at numVCs == 1 in handshake mode the ack completes it.
  const int injectVc = scheduledInjectVc();
  if (injectVc >= 0) {
    const OutPacket& pending =
        sendQueues_[static_cast<std::size_t>(injectVc)].front();
    const Flit& flit = pending.flits[pending.next];
    toRouter_->flit.data.set(flit.data);
    toRouter_->flit.bop.set(flit.bop);
    toRouter_->flit.eop.set(flit.eop);
    toRouter_->val.set(true);
  } else {
    toRouter_->flit.data.set(0);
    toRouter_->flit.bop.set(false);
    toRouter_->flit.eop.set(false);
    toRouter_->val.set(false);
  }
  if (vcMode()) toRouter_->vc.set(injectVc >= 0 ? injectVc : 0);
}

void NetworkInterface::ackRx() {
  // Receive side, always ready: in handshake mode this acknowledges the
  // incoming flit; in credit mode the same pulse returns the credit.
  fromRouter_->ack.set(fromRouter_->val.get());
}

void NetworkInterface::advertiseRxSpace() {
  // Every VC has unbounded reassembly space here, so all vcFree levels
  // stay up.
  for (int v = 0; v < params_.numVCs; ++v)
    fromRouter_->vcFree[static_cast<std::size_t>(v)].set(true);
}

void NetworkInterface::returnRxCredits() {
  // The flit is consumed the cycle it lands, so its credit returns
  // immediately on the arriving VC's vcAck line.
  for (int v = 0; v < params_.numVCs; ++v)
    fromRouter_->vcAck[static_cast<std::size_t>(v)].set(
        fromRouter_->val.get() && fromRouter_->vc.get() == v);
}

void NetworkInterface::clockEdge() {
  // --- send side ---------------------------------------------------------
  const bool presented = toRouter_->val.get();
  // With VCs a presented flit always lands (evaluate() only raises val
  // against advertised space or a credit in hand).
  const bool sent =
      presented && (vcMode() || creditMode() || toRouter_->ack.get());
  if (sent) {
    const int sentVc = vcMode() ? toRouter_->vc.get() : 0;
    std::deque<OutPacket>& queue =
        sendQueues_[static_cast<std::size_t>(sentVc)];
    OutPacket& packet = queue.front();
    const Flit& flit = packet.flits[packet.next];
    if (flit.bop && packet.tracked)
      ledger_->onHeaderInjected(self_, packet.dst, cycle_,
                                packet.ledgerClass);
    ++packet.next;
    --sendQueueFlits_;
    if (packet.next == packet.flits.size()) {
      ++packetsSent_;
      // The frame is fully on the wire: arm its retransmission timer.
      if (transport_ && packet.frameId != 0)
        transport_->onFrameSent(packet.frameId, cycle_);
      queue.pop_front();
    }
  }
  if (creditMode()) {
    if (vcMode()) {
      // Credits return on whichever VC each flit entered; every inject VC
      // keeps its own pool.
      const int sentVc = sent ? toRouter_->vc.get() : -1;
      for (int v = 0; v < params_.numVCs; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        credits_[vi] += (toRouter_->vcAck[vi].get() ? 1 : 0) -
                        (v == sentVc ? 1 : 0);
      }
    } else {
      credits_[0] += (toRouter_->ack.get() ? 1 : 0) - (sent ? 1 : 0);
    }
  }

  if (metricsAttached_) {
    if (metrics_.flitsInjected && sent) metrics_.flitsInjected->inc();
    if (metrics_.backpressureCycles && sendQueueFlits_ > 0 && !sent)
      metrics_.backpressureCycles->inc();
    if (metrics_.sendQueueFlits)
      metrics_.sendQueueFlits->observe(static_cast<double>(sendQueueFlits_));
  }

  // --- receive side ------------------------------------------------------
  const bool gotFlit = fromRouter_->val.get();
  if (metricsAttached_ && metrics_.flitsEjected && gotFlit)
    metrics_.flitsEjected->inc();
  if (gotFlit) {
    Flit flit;
    flit.data = fromRouter_->flit.data.get();
    flit.bop = fromRouter_->flit.bop.get();
    flit.eop = fromRouter_->flit.eop.get();
    // Packets on different VCs interleave flit-by-flit on the physical
    // link, so each VC reassembles in its own buffer.
    const int rxVc = vcMode() ? fromRouter_->vc.get() : 0;
    acceptRxFlit(flit, rxFlits_[static_cast<std::size_t>(rxVc)]);
  }

  if (transport_) {
    transport_->onCycle(cycle_);
    pumpTransport();
    if (metricsAttached_) {
      const ReliabilityStats& s = transport_->stats();
      if (metrics_.retransmits)
        metrics_.retransmits->inc(s.retransmissions -
                                  lastMetricStats_.retransmissions);
      if (metrics_.timeouts)
        metrics_.timeouts->inc(s.timeouts - lastMetricStats_.timeouts);
      if (metrics_.duplicatesDropped)
        metrics_.duplicatesDropped->inc(s.duplicatesDropped -
                                        lastMetricStats_.duplicatesDropped);
      lastMetricStats_ = s;
    }
  }

  ++cycle_;
}

void NetworkInterface::acceptRxFlit(const Flit& flit,
                                    std::vector<Flit>& buf) {
  if (flit.bop) buf.clear();
  buf.push_back(flit);
  if (!flit.eop) return;
  if (buf.size() < 2 || !buf.front().bop) {
    misdelivery_ = true;
  } else {
    // Residual RIB must be zero: routing consumed the whole offset.
    const router::Rib residual = router::decodeRib(buf.front().data, params_.m);
    if (residual != router::Rib{0, 0}) misdelivery_ = true;
    bool parityBad = false;
    if (options_.hlpParity) {
      for (std::size_t i = 1; i < buf.size(); ++i) {
        if (!parityOk(buf[i].data)) {
          ++parityErrors_;
          parityBad = true;
        }
      }
    }
    const std::uint32_t mask = router::dataMask(payloadBits());
    if (transport_) {
      // Reliability path: hand the checksummed frame to the transport,
      // which validates it, dedups, reorders and ACKs.  Deliveries are
      // collected in the pump below.  Parity-flagged frames never reach
      // the transport: parity catches any single-bit flip per flit
      // (strictly stronger than the frame checksum, whose additive sum
      // can cancel across two corrupted flits), and dropping here turns
      // detection into recovery — the sender retransmits whatever is
      // never acknowledged.
      if (!parityBad) {
        std::vector<std::uint32_t> words;
        words.reserve(buf.size() - 1);
        for (std::size_t i = 1; i < buf.size(); ++i)
          words.push_back(buf[i].data & mask);
        transport_->onWireWords(words, cycle_);
      }
    } else {
      const auto srcIndex = static_cast<int>(buf[1].data & mask);
      // Under fault injection the decoded source index can be garbage;
      // count that as unattributed rather than tripping the bounds check.
      if (srcIndex < 0 || srcIndex >= topology_->nodes()) {
        ++unattributed_;
      } else {
        const NodeId src = topology_->nodeAt(srcIndex);
        // The ledger flows are per class on a QoS network (priority
        // scheduling reorders classes); the header carries the tag.
        const int cls =
            params_.qosClasses
                ? static_cast<int>(
                      router::decodeTrafficClass(buf.front().data, params_.m))
                : -1;
        if (!ledger_->tryDeliver(src, self_, cycle_, cls)) ++unattributed_;
      }
      ++packetsReceived_;
      std::vector<std::uint32_t> payload;
      for (std::size_t i = 2; i < buf.size(); ++i)
        payload.push_back(buf[i].data & mask);
      received_.push_back(std::move(payload));
    }
  }
  buf.clear();
}

void NetworkInterface::enqueueFrame(ReliableTransport::WireFrame&& frame) {
  std::vector<std::uint32_t> words;
  words.reserve(frame.words.size() + 1);
  words.push_back(static_cast<std::uint32_t>(topology_->indexOf(self_)));
  words.insert(words.end(), frame.words.begin(), frame.words.end());
  if (options_.hlpParity) {
    for (std::uint32_t& word : words) word = parityProtect(word);
  }
  // The transport picked the frame's class: the submitter's on first DATA
  // transmissions, the reliability class on retransmissions and ACK/NACKs
  // — so recovery traffic rides its own isolated channel.
  const int vc = injectVcFor(frame.cls);
  OutPacket packet;
  packet.dst = frame.dst;
  packet.frameId = frame.frameId;
  packet.tracked = frame.firstTransmission;
  if (params_.qosClasses && packet.tracked)
    packet.ledgerClass = static_cast<int>(frame.cls);
  packet.flits = router::makePacket(
      topology_->ribFor(self_, frame.dst, params_.numVCs), words, params_,
      vc);
  if (params_.qosClasses)
    packet.flits[0].data = router::encodeTrafficClass(packet.flits[0].data,
                                                      frame.cls, params_.m);
  if (tracer_) {
    using telemetry::TraceEventKind;
    TraceEventKind kind = TraceEventKind::PacketQueued;
    if (frame.type == FrameType::Ack)
      kind = TraceEventKind::AckQueued;
    else if (frame.type == FrameType::Nack)
      kind = TraceEventKind::NackQueued;
    else if (!frame.firstTransmission)
      kind = TraceEventKind::RetransmitQueued;
    tracer_->onPacketQueued(self_, frame.dst, kind,
                            static_cast<int>(packet.flits.size()));
  }
  sendQueueFlits_ += packet.flits.size();
  sendQueues_[static_cast<std::size_t>(vc)].push_back(std::move(packet));
}

void NetworkInterface::pumpTransport() {
  for (auto& frame : transport_->takeFrames())
    enqueueFrame(std::move(frame));
  for (auto& delivery : transport_->takeDeliveries()) {
    // Attribution is checksum-verified, so a failed ledger close would mean
    // a protocol bug rather than wire noise; count it like the unprotected
    // path does.  The delivery carries the submitter's class (recovered
    // from the DATA control word) so the per-class flow key matches even
    // when the payload arrived via a reclassified retransmission.
    const int cls =
        params_.qosClasses ? static_cast<int>(delivery.cls) : -1;
    if (!ledger_->tryDeliver(delivery.src, self_, cycle_, cls))
      ++unattributed_;
    ++packetsReceived_;
    received_.push_back(std::move(delivery.payload));
  }
}

bool NetworkInterface::describe(sim::Lowering& lw) {
  // One op per phase of evaluate(), so the receive side's wires do not
  // tie the send side into the router's combinational graph.
  std::vector<const sim::WireBase*> sendReads;
  std::vector<const sim::WireBase*> sendWrites = {
      &toRouter_->flit.data, &toRouter_->flit.bop, &toRouter_->flit.eop,
      &toRouter_->val};
  if (vcMode()) {
    sendWrites.push_back(&toRouter_->vc);
    if (!creditMode()) {
      // QoS injects on any adaptive VC, so the send side reads them all;
      // otherwise only the fixed inject VC's level matters.
      if (params_.qosClasses) {
        for (int v = options_.escapeVCs; v < params_.numVCs; ++v)
          sendReads.push_back(
              &toRouter_->vcFree[static_cast<std::size_t>(v)]);
      } else {
        sendReads.push_back(
            &toRouter_->vcFree[static_cast<std::size_t>(options_.injectVc)]);
      }
    }
  }
  lw.phaseOp<&NetworkInterface::presentSend>(*this, std::move(sendReads),
                                             std::move(sendWrites));
  if (vcMode()) {
    std::vector<const sim::WireBase*> frees, acks;
    for (int v = 0; v < params_.numVCs; ++v) {
      frees.push_back(&fromRouter_->vcFree[static_cast<std::size_t>(v)]);
      acks.push_back(&fromRouter_->vcAck[static_cast<std::size_t>(v)]);
    }
    lw.phaseOp<&NetworkInterface::advertiseRxSpace>(*this, {},
                                                    std::move(frees));
    if (creditMode())
      lw.phaseOp<&NetworkInterface::returnRxCredits>(
          *this, {&fromRouter_->val, &fromRouter_->vc}, std::move(acks));
  } else {
    lw.phaseOp<&NetworkInterface::ackRx>(*this, {&fromRouter_->val},
                                         {&fromRouter_->ack});
  }
  lw.edgeCall(*this);
  return true;
}

}  // namespace rasoc::noc
