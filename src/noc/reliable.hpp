/// \file
/// End-to-end NI reliability protocol: sequence numbers, checksums,
/// ACK/NACK control frames, timeout-driven retransmission with bounded
/// exponential backoff, and an exactly-once reorder buffer.
///
/// The protocol lives entirely in the network interfaces — the cycle-exact
/// router blocks are untouched — and is opt-in via
/// NetworkConfig::reliability, so default runs stay bit-identical to the
/// unprotected network.  DESIGN.md §9 documents the frame format, the
/// sender/receiver state machines and the exactly-once argument.
///
/// Wire format (payload words of a packet, after the RIB header flit):
///
///   word 0  source node index (as in the unprotected format)
///   word 1  control word: [type:2 | 0… | cls:2 | seq:seqBits]
///   word 2… application payload (DATA frames only)
///   last    checksum over all preceding payload words
///
/// The 2-bit `cls` field (DATA frames; zero when it would overlap the type
/// bits) carries the submitter's TrafficClass in-band: a retransmission's
/// header flit is deliberately re-tagged with the reliability class for
/// routing isolation, so the receiver recovers the original class from the
/// control word, not the header.  Zero (BestEffort) on non-QoS networks,
/// which keeps the format bit-identical to the pre-QoS protocol.
///
/// DATA frames carry one application packet each; ACK frames acknowledge
/// every sequence number up to and including `seq` (cumulative); NACK
/// frames name the receiver's next expected sequence number and double as
/// a cumulative ACK for everything before it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "noc/topology.hpp"
#include "router/params.hpp"

namespace rasoc::noc {

/// Tuning knobs for the NI reliability protocol.
struct ReliabilityConfig {
  /// Master switch.  Off (the default) keeps the NI wire format and cycle
  /// behavior bit-identical to the unprotected network.
  bool enabled = false;

  /// Sequence number width.  The space must be at least twice the window
  /// (selective-repeat correctness; validate() enforces it).
  int seqBits = 8;

  /// Maximum unacknowledged DATA frames per destination; further sends
  /// queue in a per-flow backlog.
  int window = 8;

  /// Initial retransmission timeout in cycles, measured from the moment a
  /// frame's last flit leaves the NI.
  std::uint64_t rtoInitial = 64;

  /// Backoff ceiling: each timeout doubles a frame's RTO up to this bound.
  std::uint64_t rtoMax = 2048;

  /// Minimum cycles between NACKs for the same missing sequence number
  /// (suppresses NACK storms while a retransmission is in flight).
  std::uint64_t nackMinInterval = 32;

  /// Timeouts after which a frame is abandoned (0 = retry forever).
  /// Abandoning sacrifices the delivery guarantee; it exists so bounded
  /// campaigns can report losses instead of hanging.
  int maxRetries = 0;

  /// Traffic class protocol overhead rides on QoS networks
  /// (RouterParams::qosClasses): retransmissions and ACK/NACK control
  /// frames are tagged with it, so recovery traffic stays on an isolated
  /// channel instead of queueing behind the bulk flood that delayed the
  /// original frame.  First transmissions keep the submitter's class.
  /// Ignored on non-QoS networks.
  router::TrafficClass trafficClass = router::TrafficClass::Control;

  /// Throws std::invalid_argument for inconsistent knobs or a control word
  /// that does not fit `payloadBits` (needs seqBits + 2 bits).
  void validate(int payloadBits) const;
};

/// Lifetime counters kept by a ReliableTransport.
struct ReliabilityStats {
  std::uint64_t dataFramesSent = 0;  ///< first transmissions
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t acksSent = 0;
  std::uint64_t nacksSent = 0;
  std::uint64_t acksReceived = 0;
  std::uint64_t nacksReceived = 0;
  std::uint64_t duplicatesDropped = 0;   ///< already-seen DATA frames
  std::uint64_t outOfOrderBuffered = 0;  ///< held for reordering
  std::uint64_t malformedFrames = 0;     ///< checksum/parse failures
  std::uint64_t payloadsDelivered = 0;   ///< in-order app deliveries
  std::uint64_t abandoned = 0;           ///< gave up after maxRetries

  ReliabilityStats& operator+=(const ReliabilityStats& o);
};

/// Masks a sequence number to `seqBits`.
std::uint32_t seqMask(int seqBits);

/// (to - from) mod 2^seqBits: how far `to` is ahead of `from`.
std::uint32_t seqDistance(std::uint32_t from, std::uint32_t to, int seqBits);

/// Serial-number order: a comes strictly before b (within half the space).
bool seqLess(std::uint32_t a, std::uint32_t b, int seqBits);

/// Serial-number order: a == b or a comes before b.
bool seqLessEq(std::uint32_t a, std::uint32_t b, int seqBits);

/// Frame types carried in the control word's top two bits.
enum class FrameType : std::uint32_t { Data = 0, Ack = 1, Nack = 2 };

/// Per-NI protocol engine.  The owning NetworkInterface feeds it
/// application sends and received wire words, drains the frames it wants
/// transmitted, and delivers the in-order payloads it releases.  The
/// engine itself is pure bookkeeping — no wires, no simulator coupling —
/// which keeps it unit-testable without a network.
class ReliableTransport {
 public:
  /// A frame the NI should put on the wire.  `words` excludes the source
  /// index word (the NI prepends it, as for unprotected packets).
  /// `frameId` is nonzero for DATA frames: the NI reports it back through
  /// onFrameSent() when the last flit leaves, which arms the
  /// retransmission timer.  `firstTransmission` marks frames the delivery
  /// ledger should track (retransmissions and control frames are protocol
  /// overhead, invisible to the ledger).  `type` is the frame's protocol
  /// role; combined with `firstTransmission` it tells the flow tracer
  /// whether this wire packet is a first DATA send, a retransmission, or
  /// ACK/NACK overhead.
  struct WireFrame {
    NodeId dst;
    std::vector<std::uint32_t> words;
    std::uint64_t frameId = 0;
    bool firstTransmission = false;
    FrameType type = FrameType::Data;
    /// Traffic class the NI tags the wire packet with (QoS networks): the
    /// submitter's class on first DATA transmissions, the config's
    /// `trafficClass` on retransmissions and ACK/NACK frames.
    router::TrafficClass cls = router::TrafficClass::BestEffort;
  };

  /// An application payload released in order, exactly once.
  struct Delivery {
    NodeId src;
    std::vector<std::uint32_t> payload;
    /// The submitter's class, recovered from the control word's in-band
    /// field (BestEffort on non-QoS networks).
    router::TrafficClass cls = router::TrafficClass::BestEffort;
  };

  ReliableTransport(ReliabilityConfig config,
                    std::shared_ptr<const Topology> topology, NodeId self,
                    int payloadBits);

  void reset();

  /// Sender: accepts an application payload for `dst`.  Transmits
  /// immediately when the flow's window has room, else backlogs.  `cls`
  /// tags the first transmission on QoS networks (retransmissions ride
  /// the config's `trafficClass`).
  void submit(NodeId dst, const std::vector<std::uint32_t>& payload,
              router::TrafficClass cls = router::TrafficClass::BestEffort);

  /// The NI finished streaming the frame with this id; arms its timer.
  void onFrameSent(std::uint64_t frameId, std::uint64_t cycle);

  /// Per-cycle timeout scan; expired frames are re-queued with doubled RTO.
  /// Returns at once while `cycle` is below the earliest armed deadline.
  void onCycle(std::uint64_t cycle) {
    if (cycle >= nextDeadline_) expireTimers(cycle);
  }

  /// Receiver: a complete, well-framed packet arrived.  `words` are all
  /// payload words including the leading source index, masked to
  /// payloadBits.  Malformed frames are counted and dropped.  The header
  /// flit's class tag is irrelevant here — the submitter's class travels
  /// in-band in the control word.
  void onFrameWords(const std::vector<std::uint32_t>& words,
                    std::uint64_t cycle);

  /// Drains frames queued for the wire since the last call.
  std::vector<WireFrame> takeFrames();

  /// Drains payloads released for delivery since the last call.
  std::vector<Delivery> takeDeliveries();

  /// No unacknowledged frames, no backlog, nothing queued for the wire.
  bool idle() const {
    return unackedFrames_ == 0 && backlogFrames_ == 0 &&
           pendingFrames_.empty() && pendingDeliveries_.empty();
  }

  /// Frames waiting in per-flow backlogs / sent but not yet acknowledged,
  /// summed over every flow (running counts, O(1)).
  std::size_t backlogFrames() const { return backlogFrames_; }
  std::size_t unackedFrames() const { return unackedFrames_; }

  /// Current RTO of the oldest unacknowledged frame for `dst`
  /// (rtoInitial when the flow has none) — exposed for backoff tests.
  std::uint64_t currentRto(NodeId dst) const;

  const ReliabilityStats& stats() const { return stats_; }

 private:
  struct Outstanding {
    std::uint32_t seq = 0;
    std::vector<std::uint32_t> payload;
    router::TrafficClass cls = router::TrafficClass::BestEffort;
    std::uint64_t frameId = 0;   // latest transmission's id
    std::uint64_t deadline = 0;  // 0 = timer unarmed (still streaming out)
    std::uint64_t rto = 0;
    int timeouts = 0;
  };
  struct Backlogged {
    std::vector<std::uint32_t> payload;
    router::TrafficClass cls = router::TrafficClass::BestEffort;
  };
  struct SendFlow {
    std::uint32_t nextSeq = 0;
    std::deque<Outstanding> unacked;
    std::deque<Backlogged> backlog;
  };
  struct Buffered {
    std::vector<std::uint32_t> payload;
    router::TrafficClass cls = router::TrafficClass::BestEffort;
  };
  struct RecvFlow {
    std::uint32_t expected = 0;
    std::map<std::uint32_t, Buffered> buffered;
    bool nackPending = false;      // a NACK for `expected` was sent
    std::uint32_t nackSeq = 0;
    std::uint64_t nackCycle = 0;
  };

  // The in-band class field fits only when it does not overlap the type
  // bits; a too-tight control word degrades to classless (all BestEffort).
  bool classFieldFits() const { return config_.seqBits + 2 <= typeShift_; }

  std::uint32_t checksum(std::uint32_t first,
                         const std::vector<std::uint32_t>& rest) const;
  void transmit(int dstIndex, SendFlow& flow,
                std::vector<std::uint32_t> payload, router::TrafficClass cls);
  void retransmit(int dstIndex, Outstanding& frame);
  void emitControl(int dstIndex, FrameType type, std::uint32_t seq);
  void promote(int dstIndex, SendFlow& flow);
  void handleData(int srcIndex, std::uint32_t seq,
                  std::vector<std::uint32_t> payload, std::uint64_t cycle,
                  router::TrafficClass cls);
  void handleAck(int srcIndex, std::uint32_t seq);
  void handleNack(int srcIndex, std::uint32_t seq);
  void popAcked(SendFlow& flow, std::uint32_t upTo, bool inclusive);
  void expireTimers(std::uint64_t cycle);

  ReliabilityConfig config_;
  std::shared_ptr<const Topology> topology_;
  NodeId self_;
  int payloadBits_;
  int typeShift_;
  std::uint32_t selfIndex_;

  std::map<int, SendFlow> sendFlows_;  // keyed by destination node index
  std::map<int, RecvFlow> recvFlows_;  // keyed by source node index
  std::map<std::uint64_t, int> frameFlow_;  // frameId -> dst node index
  std::vector<WireFrame> pendingFrames_;
  std::vector<Delivery> pendingDeliveries_;
  ReliabilityStats stats_;
  std::uint64_t nextFrameId_ = 1;
  std::size_t unackedFrames_ = 0;  // sum of every flow's unacked.size()
  std::size_t backlogFrames_ = 0;  // sum of every flow's backlog.size()
  // No armed deadline is earlier than this (UINT64_MAX: none armed).  It
  // may be stale low after an ACK, which costs one empty scan.
  std::uint64_t nextDeadline_ = UINT64_MAX;
};

}  // namespace rasoc::noc
