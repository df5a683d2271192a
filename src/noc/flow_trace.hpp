/// \file
/// Flow tracer: reconstructs every traced packet's flit-level lifecycle —
/// NI queueing, header injection, per-hop FIFO residency, arbitration,
/// link traversal (including fault events), reliable-transport overhead
/// frames and ejection — without instrumenting a single router block.
///
/// How it stays zero-cost when disabled: the router pipeline carries no
/// trace code at all.  The tracer is a Simulator tick listener that runs
/// *between* cycles, after every clock edge, when two complementary views
/// of the machine are simultaneously visible:
///
///   * wires still hold the settled pre-edge values (val/ack handshakes,
///     FIFO read strobes, crossbar requests, arbitration nets), and
///   * lifetime counters (InputChannel::flitsAccepted,
///     OutputChannel::flitsSent, FaultyLink fault counters) and registered
///     arbiter state are already post-edge.
///
/// Counter deltas say *what* moved this edge; pre-edge wires say *where*
/// and *which way*; and a set of shadow FIFO queues — one per router input
/// buffer, fed at the source by the NI enqueue hook (the one active hook,
/// noc/ni.cpp) — says *which packet* it was.  Determinism is inherited:
/// the scan iterates nodes and ports in fixed order and reads only values
/// every kernel computes identically, so the event stream is byte-stable
/// across the naive and compiled kernels.  A desynchronized
/// shadow queue (impossible unless the reconstruction rules are wrong)
/// throws immediately rather than producing a silently misattributed
/// trace.
///
/// Outputs: a bounded TraceSink ring (telemetry/trace_event.hpp), a
/// Chrome/Perfetto JSON export (one track per router port, one per
/// traced flow), a per-flow latency decomposition (source queueing / hop
/// minimum / hop blocked / drain) whose components sum *exactly* to the
/// traced end-to-end latency, and a `trace` RunReport section.  All of
/// them are byte-identical across settle kernels.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "telemetry/report.hpp"
#include "telemetry/trace_event.hpp"

#include "noc/stats.hpp"
#include "noc/topology.hpp"
#include "router/params.hpp"

namespace rasoc::router {
class InputChannel;
class OutputChannel;
class FaultyLink;
}  // namespace rasoc::router

namespace rasoc::noc {

class Network;

/// Knobs for Network::enableTracing.
struct TraceConfig {
  /// TraceSink ring capacity (events retained; older ones are overwritten).
  std::size_t capacity = 65536;

  /// Flow sampling: a packet is traced iff its flow satisfies
  /// (srcIndex * nodes + dstIndex) % sampleEvery == 0.  1 traces
  /// everything.  Untraced packets still occupy shadow-queue entries (the
  /// reconstruction needs every flit accounted for) but record no events,
  /// so the ring and the JSON shrink roughly by the factor.
  std::uint64_t sampleEvery = 1;

  /// Completed per-packet spans retained for the Perfetto flow tracks and
  /// the decomposition detail; the latency statistics keep accumulating
  /// past this bound.
  std::size_t maxFlowSpans = 8192;
};

/// See the file comment.  Construct through Network::enableTracing — the
/// tracer must attach before the first cycle and before any packet is
/// queued, so its shadow state starts aligned with the empty network.
class FlowTracer {
 public:
  FlowTracer(Network& network, TraceConfig config);

  /// Per-flow latency decomposition over completed traced packets, in
  /// cycles.  The identity
  ///   end_to_end = source_queue + hop_min + hop_blocked + drain
  /// holds exactly per packet: source_queue is NI queue wait (queued ->
  /// header on the wire), hop_min is the router count on the path (one
  /// cycle minimum per hop), hop_blocked is every extra cycle the header
  /// spent waiting in input buffers, and drain is the tail serialization
  /// after the header reached the destination NI.
  struct Decomposition {
    LatencyStats endToEnd;
    LatencyStats sourceQueue;
    LatencyStats hopMin;
    LatencyStats hopBlocked;
    LatencyStats drain;
  };

  /// One completed traced packet (Perfetto flow-track span).
  struct FlowSpan {
    std::uint64_t id = 0;
    std::int32_t src = 0;
    std::int32_t dst = 0;
    telemetry::TraceEventKind kind = telemetry::TraceEventKind::PacketQueued;
    std::uint64_t queuedCycle = 0;
    std::uint64_t injectCycle = 0;
    std::uint64_t headerEjectCycle = 0;
    std::uint64_t ejectCycle = 0;
    std::uint32_t hops = 0;
    std::uint64_t blockedCycles = 0;
  };

  // --- hooks -------------------------------------------------------------

  /// NI enqueue hook: a wire packet (application data, retransmission or
  /// control frame — `kind` says which) entered `src`'s send queue for
  /// `dst`.  Returns the assigned packet id, or 0 when the flow is not
  /// sampled.  The event itself is staged and recorded at the next tick.
  std::uint64_t onPacketQueued(NodeId src, NodeId dst,
                               telemetry::TraceEventKind kind, int flits);

  /// Tick listener body: reconstructs and records this edge's events.
  void onTick();

  /// Forgets all trace state and re-synchronizes the counter snapshots
  /// against the (freshly reset) network.
  void clear();

  // --- results -----------------------------------------------------------

  const TraceConfig& config() const { return config_; }
  const telemetry::TraceSink& sink() const { return sink_; }
  const Decomposition& decomposition() const { return decomp_; }
  const std::vector<FlowSpan>& flowSpans() const { return spans_; }

  /// Wire packets assigned a (sampled) trace id / completed end to end.
  std::uint64_t packetsTraced() const { return packetsTraced_; }
  std::uint64_t packetsCompleted() const { return packetsCompleted_; }

  /// Chrome/Perfetto trace_events JSON of everything currently retained
  /// (loadable in ui.perfetto.dev).  Deterministic for a seeded run and
  /// byte-identical across settle kernels.
  std::string perfettoJson() const;

  /// Fills the `trace` section of a RunReport (ring occupancy, packet
  /// counts, per-component latency percentiles).  Deterministic and
  /// kernel-independent.
  void writeReport(telemetry::RunReport& report) const;

  /// Human-readable per-component latency table (examples, logs).
  std::string decompositionTable() const;

  /// The most recent <= n retained events touching the directed link
  /// leaving `from` through `port` (either endpoint's channel), oldest
  /// first.  Feed through telemetry::describe for watchdog stall dumps.
  std::vector<telemetry::TraceEvent> recentLinkEvents(NodeId from,
                                                      router::Port port,
                                                      std::size_t n) const;

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  // A traced packet's id and its slot in metas_.  Untraced (sampled-out)
  // packets are id 0 with no slot; they still fill shadow entries so the
  // per-flit accounting stays aligned with the hardware queues.
  struct PacketRef {
    std::uint64_t id = 0;
    std::uint32_t slot = kNoSlot;
  };
  struct FifoEntry {
    PacketRef ref;
    std::uint64_t enqCycle = 0;
    bool bop = false;
  };
  struct NiEntry {
    PacketRef ref;
    std::int32_t flits = 0;
    std::int32_t next = 0;
  };
  struct Staged {
    PacketRef ref;
    telemetry::TraceEventKind kind = telemetry::TraceEventKind::PacketQueued;
    std::int32_t src = 0;
    std::int32_t dst = 0;
    std::int32_t flits = 0;
  };
  struct PacketMeta {
    std::uint64_t id = 0;  // owner of this slot; 0 = free
    std::int32_t src = 0;
    std::int32_t dst = 0;
    std::int32_t flits = 0;
    telemetry::TraceEventKind kind = telemetry::TraceEventKind::PacketQueued;
    std::uint64_t queuedCycle = 0;
    std::uint64_t headerInjectCycle = 0;
    std::uint64_t headerEjectCycle = 0;
    std::uint32_t hops = 0;
    std::uint64_t hopBlocked = 0;
  };
  struct FaultyView {
    std::size_t slot = 0;  // (fromNode, fromPort)
    const router::FaultyLink* link = nullptr;
    std::uint64_t prevCorrupted = 0;
    std::uint64_t prevDropped = 0;
    std::uint64_t prevStalls = 0;
  };

  std::size_t slot(int node, int port) const {
    return static_cast<std::size_t>(node) * router::kNumPorts +
           static_cast<std::size_t>(port);
  }
  /// The packet's metadata, or null when untraced or already completed.
  PacketMeta* meta(const PacketRef& ref) {
    if (ref.slot == kNoSlot) return nullptr;
    PacketMeta& m = metas_[ref.slot];
    return m.id == ref.id ? &m : nullptr;
  }
  void emit(telemetry::TraceEventKind kind, std::uint64_t cycle,
            std::uint64_t id, const PacketMeta& m, int node, int port,
            std::int32_t value);
  void resyncCounters();
  void completePacket(const PacketRef& ref, std::uint64_t ejectCycle);
  [[noreturn]] void desync(const char* where, int node, int port) const;

  Network* net_;
  TraceConfig config_;
  telemetry::TraceSink sink_;

  int nodes_ = 0;
  // Per-(node, port) cached views; null where the port is pruned.
  std::vector<const router::InputChannel*> inputs_;
  std::vector<const router::OutputChannel*> outputs_;
  std::vector<int> upstream_;  // receiving slot -> sending slot (-1 = none)
  std::vector<FaultyView> faulty_;

  // Shadow state (see file comment).
  std::vector<std::deque<FifoEntry>> fifo_;   // one per (node, in-port)
  std::vector<std::deque<NiEntry>> niStream_;  // one per node
  std::vector<Staged> staged_;
  // Dense packet slots: a traced packet holds one from queueing until
  // ejection, then its slot returns to the free list.
  std::vector<PacketMeta> metas_;
  std::vector<std::uint32_t> freeSlots_;

  // Previous lifetime counters, for per-edge deltas.
  std::vector<std::uint64_t> prevAccepted_;
  std::vector<std::uint64_t> prevSent_;

  // Per-tick scratch: which packet was read out of each input buffer this
  // edge, and which packet left each (node, out-port) over its link.
  std::vector<PacketRef> popped_;
  std::vector<char> poppedValid_;
  std::vector<PacketRef> transfer_;
  std::vector<char> transferValid_;

  Decomposition decomp_;
  std::vector<FlowSpan> spans_;
  std::uint64_t spanOverflow_ = 0;

  std::uint64_t nextId_ = 1;
  std::uint64_t packetsTraced_ = 0;
  std::uint64_t packetsCompleted_ = 0;
};

}  // namespace rasoc::noc
