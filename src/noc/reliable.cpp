#include "noc/reliable.hpp"

#include <algorithm>
#include <stdexcept>

#include "router/flit.hpp"

namespace rasoc::noc {

void ReliabilityConfig::validate(int payloadBits) const {
  if (seqBits < 2 || seqBits > 20)
    throw std::invalid_argument("reliability: seqBits must be 2..20");
  if (window < 1)
    throw std::invalid_argument("reliability: window must be >= 1");
  if (static_cast<std::uint32_t>(window) > (1u << (seqBits - 1)))
    throw std::invalid_argument(
        "reliability: window must be at most half the sequence space "
        "(selective repeat cannot distinguish old from new otherwise)");
  if (seqBits + 2 > payloadBits)
    throw std::invalid_argument(
        "reliability: control word (seqBits + 2 type bits) does not fit "
        "the flit payload");
  if (rtoInitial == 0)
    throw std::invalid_argument("reliability: rtoInitial must be >= 1");
  if (rtoMax < rtoInitial)
    throw std::invalid_argument("reliability: rtoMax < rtoInitial");
  if (maxRetries < 0)
    throw std::invalid_argument("reliability: negative maxRetries");
}

ReliabilityStats& ReliabilityStats::operator+=(const ReliabilityStats& o) {
  dataFramesSent += o.dataFramesSent;
  retransmissions += o.retransmissions;
  timeouts += o.timeouts;
  acksSent += o.acksSent;
  nacksSent += o.nacksSent;
  acksReceived += o.acksReceived;
  nacksReceived += o.nacksReceived;
  duplicatesDropped += o.duplicatesDropped;
  outOfOrderBuffered += o.outOfOrderBuffered;
  malformedFrames += o.malformedFrames;
  payloadsDelivered += o.payloadsDelivered;
  abandoned += o.abandoned;
  return *this;
}

std::uint32_t seqMask(int seqBits) {
  return seqBits >= 32 ? 0xffffffffu : ((1u << seqBits) - 1u);
}

std::uint32_t seqDistance(std::uint32_t from, std::uint32_t to, int seqBits) {
  return (to - from) & seqMask(seqBits);
}

bool seqLess(std::uint32_t a, std::uint32_t b, int seqBits) {
  const std::uint32_t d = seqDistance(a, b, seqBits);
  return d != 0 && d < (1u << (seqBits - 1));
}

bool seqLessEq(std::uint32_t a, std::uint32_t b, int seqBits) {
  return seqDistance(a, b, seqBits) < (1u << (seqBits - 1)) ||
         ((a ^ b) & seqMask(seqBits)) == 0;
}

ReliableTransport::ReliableTransport(ReliabilityConfig config,
                                     std::shared_ptr<const Topology> topology,
                                     NodeId self, int payloadBits)
    : config_(config),
      topology_(std::move(topology)),
      self_(self),
      payloadBits_(payloadBits),
      typeShift_(payloadBits - 2),
      selfIndex_(static_cast<std::uint32_t>(topology_->indexOf(self))) {
  config_.validate(payloadBits_);
}

void ReliableTransport::reset() {
  sendFlows_.clear();
  recvFlows_.clear();
  frameFlow_.clear();
  pendingFrames_.clear();
  pendingDeliveries_.clear();
  stats_ = ReliabilityStats{};
  nextFrameId_ = 1;
  unackedFrames_ = 0;
  backlogFrames_ = 0;
  nextDeadline_ = UINT64_MAX;
}

std::uint32_t ReliableTransport::checksum(
    std::uint32_t first, const std::vector<std::uint32_t>& rest) const {
  std::uint32_t sum = first;
  for (std::uint32_t w : rest) sum += w;
  return sum & router::dataMask(payloadBits_);
}

void ReliableTransport::submit(NodeId dst,
                               const std::vector<std::uint32_t>& payload,
                               router::TrafficClass cls) {
  const int dstIndex = topology_->indexOf(dst);
  SendFlow& flow = sendFlows_[dstIndex];
  if (flow.unacked.size() < static_cast<std::size_t>(config_.window)) {
    transmit(dstIndex, flow, payload, cls);
  } else {
    flow.backlog.push_back({payload, cls});
    ++backlogFrames_;
  }
}

void ReliableTransport::transmit(int dstIndex, SendFlow& flow,
                                 std::vector<std::uint32_t> payload,
                                 router::TrafficClass cls) {
  Outstanding frame;
  frame.seq = flow.nextSeq;
  flow.nextSeq = (flow.nextSeq + 1) & seqMask(config_.seqBits);
  frame.payload = std::move(payload);
  frame.cls = cls;
  frame.frameId = nextFrameId_++;
  frame.rto = config_.rtoInitial;

  const std::uint32_t control =
      (static_cast<std::uint32_t>(FrameType::Data)
       << static_cast<std::uint32_t>(typeShift_)) |
      (classFieldFits()
           ? static_cast<std::uint32_t>(cls) << config_.seqBits
           : 0u) |
      frame.seq;
  std::vector<std::uint32_t> words;
  words.reserve(frame.payload.size() + 2);
  words.push_back(control);
  words.insert(words.end(), frame.payload.begin(), frame.payload.end());
  words.push_back(checksum(selfIndex_, words));

  frameFlow_[frame.frameId] = dstIndex;
  pendingFrames_.push_back({topology_->nodeAt(dstIndex), std::move(words),
                            frame.frameId, true, FrameType::Data, cls});
  ++stats_.dataFramesSent;
  flow.unacked.push_back(std::move(frame));
  ++unackedFrames_;
}

void ReliableTransport::retransmit(int dstIndex, Outstanding& frame) {
  frameFlow_.erase(frame.frameId);
  frame.frameId = nextFrameId_++;
  frame.deadline = 0;  // re-armed when the NI finishes streaming it

  // The control word keeps the ORIGINAL submission class (end-to-end
  // identity); only the header tag below is reclassified for routing.
  const std::uint32_t control =
      (static_cast<std::uint32_t>(FrameType::Data)
       << static_cast<std::uint32_t>(typeShift_)) |
      (classFieldFits()
           ? static_cast<std::uint32_t>(frame.cls) << config_.seqBits
           : 0u) |
      frame.seq;
  std::vector<std::uint32_t> words;
  words.reserve(frame.payload.size() + 2);
  words.push_back(control);
  words.insert(words.end(), frame.payload.begin(), frame.payload.end());
  words.push_back(checksum(selfIndex_, words));

  frameFlow_[frame.frameId] = dstIndex;
  // Recovery traffic rides the isolated reliability class, not the class of
  // the original submission — the whole point is to keep retransmissions
  // out of the congestion that delayed the first copy.
  pendingFrames_.push_back({topology_->nodeAt(dstIndex), std::move(words),
                            frame.frameId, false, FrameType::Data,
                            config_.trafficClass});
  ++stats_.retransmissions;
}

void ReliableTransport::emitControl(int dstIndex, FrameType type,
                                    std::uint32_t seq) {
  const std::uint32_t control =
      (static_cast<std::uint32_t>(type)
       << static_cast<std::uint32_t>(typeShift_)) |
      seq;
  std::vector<std::uint32_t> words;
  words.push_back(control);
  words.push_back(checksum(selfIndex_, words));
  pendingFrames_.push_back({topology_->nodeAt(dstIndex), std::move(words),
                            /*frameId=*/0, /*firstTransmission=*/false,
                            type, config_.trafficClass});
  if (type == FrameType::Ack) ++stats_.acksSent;
  if (type == FrameType::Nack) ++stats_.nacksSent;
}

void ReliableTransport::promote(int dstIndex, SendFlow& flow) {
  while (flow.unacked.size() < static_cast<std::size_t>(config_.window) &&
         !flow.backlog.empty()) {
    Backlogged next = std::move(flow.backlog.front());
    flow.backlog.pop_front();
    --backlogFrames_;
    transmit(dstIndex, flow, std::move(next.payload), next.cls);
  }
}

void ReliableTransport::onFrameSent(std::uint64_t frameId,
                                    std::uint64_t cycle) {
  const auto it = frameFlow_.find(frameId);
  if (it == frameFlow_.end()) return;  // already acknowledged in transit
  for (Outstanding& frame : sendFlows_.find(it->second)->second.unacked) {
    if (frame.frameId == frameId) {
      frame.deadline = cycle + frame.rto;
      nextDeadline_ = std::min(nextDeadline_, frame.deadline);
      break;
    }
  }
}

void ReliableTransport::expireTimers(std::uint64_t cycle) {
  // Something may be due: scan every flow in destination order, then each
  // flow's unacked frames in sequence order, so retransmissions (and the
  // frame ids they draw) come out in a fixed order.  The scan also
  // recomputes the earliest deadline still armed.
  std::uint64_t next = UINT64_MAX;
  for (auto& [dstIndex, flow] : sendFlows_) {
    bool abandoned = false;
    for (auto it = flow.unacked.begin(); it != flow.unacked.end();) {
      Outstanding& frame = *it;
      if (frame.deadline == 0 || cycle < frame.deadline) {
        if (frame.deadline != 0) next = std::min(next, frame.deadline);
        ++it;
        continue;
      }
      ++stats_.timeouts;
      ++frame.timeouts;
      if (config_.maxRetries > 0 && frame.timeouts > config_.maxRetries) {
        ++stats_.abandoned;
        frameFlow_.erase(frame.frameId);
        it = flow.unacked.erase(it);
        --unackedFrames_;
        abandoned = true;
        continue;
      }
      frame.rto = std::min(frame.rto * 2, config_.rtoMax);
      retransmit(dstIndex, frame);
      ++it;
    }
    // A backlog waits only behind a full window, and every ACK/NACK pop
    // already promotes; an abandon is the one other way a window opens.
    if (abandoned) promote(dstIndex, flow);
  }
  nextDeadline_ = next;
}

void ReliableTransport::popAcked(SendFlow& flow, std::uint32_t upTo,
                                 bool inclusive) {
  while (!flow.unacked.empty()) {
    const std::uint32_t seq = flow.unacked.front().seq;
    const bool acked = inclusive ? seqLessEq(seq, upTo, config_.seqBits)
                                 : seqLess(seq, upTo, config_.seqBits);
    if (!acked) break;
    frameFlow_.erase(flow.unacked.front().frameId);
    flow.unacked.pop_front();
    --unackedFrames_;
  }
}

void ReliableTransport::handleAck(int srcIndex, std::uint32_t seq) {
  ++stats_.acksReceived;
  const auto it = sendFlows_.find(srcIndex);
  if (it == sendFlows_.end()) return;
  popAcked(it->second, seq, /*inclusive=*/true);
  promote(srcIndex, it->second);
}

void ReliableTransport::handleNack(int srcIndex, std::uint32_t seq) {
  ++stats_.nacksReceived;
  const auto it = sendFlows_.find(srcIndex);
  if (it == sendFlows_.end()) return;
  SendFlow& flow = it->second;
  // A NACK for `seq` implicitly acknowledges everything before it.
  popAcked(flow, seq, /*inclusive=*/false);
  for (Outstanding& frame : flow.unacked) {
    if (frame.seq != seq) continue;
    // Fast retransmit, but only when the previous copy fully left the NI
    // (deadline armed); otherwise a burst of NACKs would duplicate it.
    if (frame.deadline != 0) retransmit(srcIndex, frame);
    break;
  }
  promote(srcIndex, flow);
}

void ReliableTransport::handleData(int srcIndex, std::uint32_t seq,
                                   std::vector<std::uint32_t> payload,
                                   std::uint64_t cycle,
                                   router::TrafficClass cls) {
  RecvFlow& flow = recvFlows_[srcIndex];
  const std::uint32_t dist =
      seqDistance(flow.expected, seq, config_.seqBits);
  const std::uint32_t mask = seqMask(config_.seqBits);
  if (dist == 0) {
    // In order: deliver, then release any buffered successors.
    pendingDeliveries_.push_back(
        {topology_->nodeAt(srcIndex), std::move(payload), cls});
    ++stats_.payloadsDelivered;
    flow.expected = (flow.expected + 1) & mask;
    for (auto it = flow.buffered.find(flow.expected);
         it != flow.buffered.end(); it = flow.buffered.find(flow.expected)) {
      pendingDeliveries_.push_back({topology_->nodeAt(srcIndex),
                                    std::move(it->second.payload),
                                    it->second.cls});
      ++stats_.payloadsDelivered;
      flow.buffered.erase(it);
      flow.expected = (flow.expected + 1) & mask;
    }
    flow.nackPending = false;
    emitControl(srcIndex, FrameType::Ack, (flow.expected - 1) & mask);
  } else if (dist < static_cast<std::uint32_t>(config_.window)) {
    // Ahead of the expected frame: hold for reordering and ask for the gap.
    const auto [it, inserted] =
        flow.buffered.emplace(seq, Buffered{std::move(payload), cls});
    (void)it;
    if (inserted) {
      ++stats_.outOfOrderBuffered;
    } else {
      ++stats_.duplicatesDropped;
    }
    if (!flow.nackPending || flow.nackSeq != flow.expected ||
        cycle - flow.nackCycle >= config_.nackMinInterval) {
      emitControl(srcIndex, FrameType::Nack, flow.expected);
      flow.nackPending = true;
      flow.nackSeq = flow.expected;
      flow.nackCycle = cycle;
    }
  } else {
    // Behind the window: a duplicate of something already delivered.  The
    // sender evidently missed our ACK, so repeat it.
    ++stats_.duplicatesDropped;
    emitControl(srcIndex, FrameType::Ack, (flow.expected - 1) & mask);
  }
}

void ReliableTransport::onFrameWords(const std::vector<std::uint32_t>& words,
                                    std::uint64_t cycle) {
  if (words.size() < 3) {
    ++stats_.malformedFrames;
    return;
  }
  const std::uint32_t mask = router::dataMask(payloadBits_);
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < words.size(); ++i) sum += words[i] & mask;
  if ((sum & mask) != (words.back() & mask)) {
    ++stats_.malformedFrames;
    return;
  }
  const std::uint32_t srcWord = words[0] & mask;
  if (srcWord >= static_cast<std::uint32_t>(topology_->nodes())) {
    ++stats_.malformedFrames;
    return;
  }
  const std::uint32_t control = words[1] & mask;
  const std::uint32_t type =
      control >> static_cast<std::uint32_t>(typeShift_);
  const std::uint32_t seq = control & seqMask(config_.seqBits);
  // Bits between the class field (DATA only) and the type field must be
  // clear; ACK/NACK control words carry no class.
  const bool isData = type == static_cast<std::uint32_t>(FrameType::Data);
  const std::uint32_t clsField =
      isData && classFieldFits()
          ? 3u << static_cast<std::uint32_t>(config_.seqBits)
          : 0u;
  const std::uint32_t valid =
      (3u << static_cast<std::uint32_t>(typeShift_)) | clsField |
      seqMask(config_.seqBits);
  if ((control & ~valid & mask) != 0 || type > 2) {
    ++stats_.malformedFrames;
    return;
  }
  const auto cls = static_cast<router::TrafficClass>(
      clsField ? (control >> config_.seqBits) & 3u : 0u);
  const int srcIndex = static_cast<int>(srcWord);
  switch (static_cast<FrameType>(type)) {
    case FrameType::Data: {
      std::vector<std::uint32_t> payload;
      for (std::size_t i = 2; i + 1 < words.size(); ++i)
        payload.push_back(words[i] & mask);
      handleData(srcIndex, seq, std::move(payload), cycle, cls);
      break;
    }
    case FrameType::Ack:
      if (words.size() != 3) {
        ++stats_.malformedFrames;
        return;
      }
      handleAck(srcIndex, seq);
      break;
    case FrameType::Nack:
      if (words.size() != 3) {
        ++stats_.malformedFrames;
        return;
      }
      handleNack(srcIndex, seq);
      break;
  }
}

std::vector<ReliableTransport::WireFrame> ReliableTransport::takeFrames() {
  std::vector<WireFrame> out;
  out.swap(pendingFrames_);
  return out;
}

std::vector<ReliableTransport::Delivery>
ReliableTransport::takeDeliveries() {
  std::vector<Delivery> out;
  out.swap(pendingDeliveries_);
  return out;
}

std::uint64_t ReliableTransport::currentRto(NodeId dst) const {
  const auto it = sendFlows_.find(topology_->indexOf(dst));
  if (it == sendFlows_.end() || it->second.unacked.empty())
    return config_.rtoInitial;
  return it->second.unacked.front().rto;
}

}  // namespace rasoc::noc
