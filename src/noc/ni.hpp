/// \file
/// Network interface: the "processing core" side of a router's Local port.
///
/// Sending: packets are queued, then streamed flit by flit over the local
/// input channel, honouring the link flow control (handshake or credits).
/// The wire format is:
///   - flit 0: header, bop set, low m bits = RIB computed by the topology
///   - flit 1: source node index (lets the destination close the ledger
///     entry)
///   - flit 2..: payload words, the last one with eop set
///
/// Receiving: the NI is always ready (in_ack = in_val); flits are collected
/// until eop, the source index is decoded, and the delivery ledger is
/// closed.  A sticky misdelivery flag records any packet whose residual RIB
/// is nonzero on arrival — the invariant that routing consumed the whole
/// offset the source computed.
///
/// With NiOptions::reliability enabled the NI additionally runs the
/// end-to-end protocol in noc/reliable.hpp: application payloads flow
/// through a ReliableTransport that frames them with sequence numbers and
/// checksums, retransmits on timeout, and releases them in order exactly
/// once at the receiver.  The option is off by default and the default wire
/// format and cycle behavior are bit-identical to the unprotected NI.
///
/// With RouterParams::qosClasses the NI is the tagging point of the QoS
/// story (DESIGN.md §13): send() takes a TrafficClass, encodes it into the
/// header flit's class bits and queues the packet on the class's inject VC
/// (router::qosInjectVc).  The queues are per VC — classes sharing an
/// inject VC share a FIFO, which preserves wormhole framing on that VC —
/// and injection is strict-priority work-conserving: each cycle the
/// highest inject VC with a pending flit and space downstream sends.
/// Under reliability, first transmissions carry the submitter's class and
/// retransmissions/ACKs ride ReliabilityConfig::trafficClass.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/module.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_event.hpp"

#include "noc/reliable.hpp"
#include "noc/stats.hpp"
#include "noc/topology.hpp"
#include "router/channel.hpp"
#include "router/flit.hpp"
#include "router/params.hpp"
#include "router/vc_arena.hpp"

namespace rasoc::noc {

class FlowTracer;

/// Optional NI behaviours beyond the base wire protocol.
struct NiOptions {
  /// Higher Level Protocol parity (paper Section 2: "the n data bits can be
  /// extended to include HLP signals, like the ones typically used for data
  /// integrity control").  The top data bit of every non-header flit
  /// carries even parity over the lower n-1 bits; the receiver checks it
  /// and counts violations.  Headers stay unprotected because their RIB is
  /// legitimately rewritten at every hop.
  bool hlpParity = false;

  /// End-to-end retransmission protocol (see noc/reliable.hpp).  Costs one
  /// control word and one checksum word per packet plus ACK/NACK traffic;
  /// leaves default runs untouched when disabled.
  ReliabilityConfig reliability;
};

/// Opt-in injection-side instrumentation (telemetry subsystem).
struct NiMetrics {
  telemetry::Counter* flitsInjected = nullptr;       ///< flits into the router
  telemetry::Counter* flitsEjected = nullptr;        ///< flits out of the router
  telemetry::Counter* backpressureCycles = nullptr;  ///< pending flit held back
  telemetry::Histogram* sendQueueFlits = nullptr;    ///< per-cycle queue depth
  // Reliability protocol counters (incremented only when it is enabled).
  telemetry::Counter* retransmits = nullptr;
  telemetry::Counter* timeouts = nullptr;
  telemetry::Counter* duplicatesDropped = nullptr;
};

/// One node's traffic endpoint: queues outbound packets, streams them into
/// the router's Local port, reassembles inbound flits and closes delivery
/// ledger entries.
class NetworkInterface : public sim::Module {
 public:
  /// The topology supplies the node indexing used by the source-index flit
  /// and the RIB written into every header; it must outlive the interface
  /// (the shared_ptr keeps it alive).
  NetworkInterface(std::string name, const router::RouterParams& params,
                   std::shared_ptr<const Topology> topology, NodeId self,
                   router::ChannelWires& toRouter,
                   router::ChannelWires& fromRouter, DeliveryLedger& ledger,
                   NiOptions options = {});

  /// Queues a packet of `payload` words for `dst` (throws on dst == self:
  /// an input channel may never request its own port).  With reliability
  /// enabled the payload is handed to the transport, which frames it and
  /// may delay it in a per-destination window backlog.  `cls` tags the
  /// packet on a QoS network (RouterParams::qosClasses); ignored otherwise.
  void send(NodeId dst, const std::vector<std::uint32_t>& payload,
            router::TrafficClass cls = router::TrafficClass::BestEffort);

  /// True when the attached router maps traffic classes onto VCs.
  bool qosEnabled() const { return params_.qosClasses; }

  /// Flits currently queued for the wire (all frame types).
  std::size_t sendQueueFlits() const { return sendQueueFlits_; }
  /// Packets queued for the wire plus, under reliability, backlogged
  /// payloads waiting for window space (traffic generators throttle on it).
  std::size_t sendQueuePackets() const;
  /// QoS networks: packets queued on `cls`'s inject VC (shared with any
  /// class mapping to the same VC).  Per-class generator throttling reads
  /// this instead of the aggregate so one class cannot stall another's
  /// injection.
  std::size_t sendQueuePackets(router::TrafficClass cls) const;
  /// Nothing queued and (under reliability) no frame awaiting an ACK.
  bool idle() const;

  std::uint64_t packetsSent() const { return packetsSent_; }
  std::uint64_t packetsReceived() const { return packetsReceived_; }
  bool misdeliveryDetected() const { return misdelivery_; }

  /// HLP parity diagnostics (always zero when hlpParity is off).
  std::uint64_t parityErrors() const { return parityErrors_; }
  /// Packets whose ledger entry could not be closed (source-index flit
  /// corrupted beyond attribution); only possible under fault injection.
  std::uint64_t unattributedPackets() const { return unattributed_; }

  /// Usable payload bits per flit (n, minus one when parity is enabled).
  int payloadBits() const;

  /// Sender-side credit counter for virtual channel `v` (meaningful under
  /// credit flow control; v = 0 at numVCs == 1; tests pair it with the
  /// local input channel's occupancy for the conservation invariant).
  int vcSendCredits(int v) const {
    return credits_[static_cast<std::size_t>(v)];
  }

  /// Payload words of every received packet, in arrival order (the source
  /// index flit is stripped; under reliability, protocol framing too).
  /// Tests use this to check payload integrity.
  const std::vector<std::vector<std::uint32_t>>& received() const {
    return received_;
  }
  void clearReceived() { received_.clear(); }

  std::uint64_t cycle() const { return cycle_; }

  /// Reliability protocol counters, or nullptr when the protocol is off.
  const ReliabilityStats* reliabilityStats() const {
    return transport_ ? &transport_->stats() : nullptr;
  }
  /// The protocol engine, or nullptr when the protocol is off (tests).
  const ReliableTransport* transport() const { return transport_.get(); }

  /// Enables instrumentation; the metrics must outlive the interface.
  void attachMetrics(const NiMetrics& metrics);

  /// Attaches the flow tracer (Network::enableTracing).  The NI reports
  /// only wire-packet enqueues — everything downstream is reconstructed
  /// from wires and counters — but must do so before any packet is queued
  /// so the tracer's shadow stream stays aligned with the send queues.
  void setTracer(FlowTracer* tracer) { tracer_ = tracer; }

  /// Lowering: the phase list, one arena op per combinational phase (so
  /// the send and receive sides stay apart in the combinational graph) and
  /// an arena edge op (queues, reassembly, the reliability machine).
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;

 private:
  bool creditMode() const {
    return flowControl_ == router::FlowControl::CreditBased;
  }
  bool vcMode() const { return params_.numVCs > 1; }
  // Inject VC for a class under qosClasses (otherwise injectVc_, or 0 at
  // numVCs == 1).
  int injectVcFor(router::TrafficClass cls) const;
  // The channel words' refs (toRouter, fromRouter), the accessor the
  // phases run over and the phase list (router::vcarena::Phases).
  friend struct router::vcarena::Phases;
  router::vcarena::ChannelRefs layout(
      const router::vcarena::ArenaPlacer& place) const;
  using SignalIo = router::vcarena::ChannelIo;
  template <class Emit>
  void phases(const Emit& emit, const router::vcarena::ChannelRefs& r) const;
  // The combinational phases and the edge, each written once over the
  // ChannelIo of the toRouter and fromRouter channel words.  presentSend:
  // the next pending flit onto toRouter, from the highest inject VC with a
  // pending flit and downstream space (reads the inject VCs' vcFree under
  // on/off VC flow control).  At numVCs == 1, ackRx mirrors fromRouter val
  // onto its ack.  With VCs, advertiseRxSpace raises every fromRouter
  // vcFree (reads no wire) and returnRxCredits (credit mode) pulses the
  // arriving flit's vcAck.
  void presentSend(const SignalIo& io) const;
  void ackRx(const SignalIo& io) const;
  void advertiseRxSpace(const SignalIo& io) const;
  void returnRxCredits(const SignalIo& io) const;
  // The edge: advances the send queue past a sent flit, settles credits,
  // takes a received flit and runs the reliability machine.
  void edge(const SignalIo& io);
  // Appends a received flit to its VC's reassembly buffer and completes
  // the packet on eop.
  void acceptRxFlit(const router::Flit& flit, std::vector<router::Flit>& buf);

  // Even-parity protect / check over the payload word layout.
  std::uint32_t parityProtect(std::uint32_t word) const;
  bool parityOk(std::uint32_t word) const;

  struct OutPacket;
  // The one packet-assembly path: prepends the source-index word, applies
  // parity, builds the flits on the class's inject VC (QoS-tagged), traces
  // the packet as `kind` and queues it.  `packet` carries the destination
  // and the bookkeeping fields; enqueue() fills in the flits.
  void enqueue(OutPacket&& packet, const std::vector<std::uint32_t>& payload,
               router::TrafficClass cls, telemetry::TraceEventKind kind);
  void enqueueFrame(ReliableTransport::WireFrame&& frame);
  void pumpTransport();

  router::RouterParams params_;
  NiOptions options_;
  router::FlowControl flowControl_;
  std::shared_ptr<const Topology> topology_;
  NodeId self_;
  // Escape VCs of the attached router (vcGeometry: 1 on meshes, 2 on
  // wrapping topologies), and the VC new packets are injected on without
  // qosClasses: the first adaptive one, so escape VCs stay clear for
  // in-flight traffic (0 when every VC is an escape VC).
  int escapeVCs_ = 1;
  int injectVc_ = 0;
  router::ChannelWires* toRouter_;
  router::ChannelWires* fromRouter_;
  DeliveryLedger* ledger_;
  std::unique_ptr<ReliableTransport> transport_;  // null when disabled

  // Send side.
  struct OutPacket {
    NodeId dst;
    std::vector<router::Flit> flits;
    std::size_t next = 0;
    // Reliability bookkeeping: `frameId` != 0 reports back to the
    // transport when fully streamed; `tracked` marks packets the delivery
    // ledger accounts (first transmissions — never ACKs/retransmissions).
    std::uint64_t frameId = 0;
    bool tracked = true;
    // Delivery-ledger flow class of a tracked packet (-1 off QoS).
    int ledgerClass = -1;
  };
  // One send queue per inject VC (index 0 at numVCs == 1).  Off QoS only
  // the fixed inject VC's queue fills; under qosClasses each class queues
  // on its own VC, so a backed-up Bulk queue never blocks a Control packet
  // behind it.
  std::array<std::deque<OutPacket>, router::kMaxVCs> sendQueues_;
  std::size_t sendQueueFlits_ = 0;
  // Send-side credits per VC (credit flow control).
  std::array<int, router::kMaxVCs> credits_{};

  // Receive side: packets on different virtual channels interleave
  // flit-by-flit on the physical link, so each VC reassembles
  // independently (index 0 at numVCs == 1).
  std::array<std::vector<router::Flit>, router::kMaxVCs> rxFlits_;
  std::vector<std::vector<std::uint32_t>> received_;

  std::uint64_t cycle_ = 0;
  std::uint64_t packetsSent_ = 0;
  std::uint64_t packetsReceived_ = 0;
  std::uint64_t parityErrors_ = 0;
  std::uint64_t unattributed_ = 0;
  bool misdelivery_ = false;

  NiMetrics metrics_;
  bool metricsAttached_ = false;
  FlowTracer* tracer_ = nullptr;
  ReliabilityStats lastMetricStats_;  // previous totals for counter deltas
};

}  // namespace rasoc::noc
