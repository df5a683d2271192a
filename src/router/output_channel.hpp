/// \file
/// Output channel module (paper Figure 6): OC + ODS + ORS + OFC wired
/// together, presenting the crossbar nets on one side and the external
/// output link on the other.  VcOutputChannel is the numVCs > 1 variant
/// with per-downstream-VC connection state, VC allocation and — under
/// RouterParams::qosClasses — strict-priority link scheduling with a
/// starvation guard.
#pragma once

#include <array>
#include <optional>

#include "sim/module.hpp"
#include "sim/wire.hpp"
#include "telemetry/metrics.hpp"

#include "router/channel.hpp"
#include "router/credit.hpp"
#include "router/oc.hpp"
#include "router/ods.hpp"
#include "router/ofc.hpp"
#include "router/ors.hpp"
#include "router/params.hpp"

namespace rasoc::router {

/// Opt-in per-channel instrumentation (telemetry subsystem).  All pointers
/// null by default: an unattached channel pays one branch per cycle.
struct OutputChannelMetrics {
  telemetry::Counter* flitsSent = nullptr;      ///< flits put on the link
  telemetry::Counter* busyCycles = nullptr;     ///< link val asserted
  telemetry::Counter* grants = nullptr;         ///< arbitration grants issued
  telemetry::Counter* conflictCycles = nullptr; ///< a requester left waiting
  telemetry::Counter* routerFlits = nullptr;    ///< router-aggregate throughput
};

/// Single-VC output channel: the paper's OC + ODS + ORS + OFC block stack,
/// bit-exact to the RASoC VHDL at numVCs == 1.
class OutputChannel : public sim::Module {
 public:
  OutputChannel(std::string name, const RouterParams& params, Port ownPort,
                std::array<CrossbarWires, kNumPorts>& xbar, ChannelWires& out,
                ArbiterKind arbiter = ArbiterKind::RoundRobin);

  const OutputController& controller() const { return oc_; }
  Port port() const { return ownPort_; }

  /// Number of flits sent over the link since reset.
  std::uint64_t flitsSent() const { return flitsSent_; }

  // Read-only observation points for the flow tracer (pre-edge wires; see
  // InputChannel for the reconstruction contract).

  /// The external output link wires this channel drives.
  const ChannelWires& outWires() const { return *out_; }
  /// Combinational connection/selection nets driven by the OC this cycle.
  bool connectedWire() const { return nets_.connected.get(); }
  int selWire() const { return nets_.sel.get(); }
  /// The shared crossbar nets, for replaying request/grant decisions.
  const std::array<CrossbarWires, kNumPorts>& xbarWires() const {
    return *xbar_;
  }

  /// Enables instrumentation; the metrics must outlive the channel.
  void attachMetrics(const OutputChannelMetrics& metrics);

  /// Lowering: under the compiled kernel the OC/ODS/ORS/OFC subtree
  /// becomes two arena ops (grant publish + output muxes, flow-control
  /// response) and one edge op, each running the blocks' own bodies, the
  /// ones their evaluate() and clockEdge() run, over the packed words of
  /// router/vc_arena.hpp.  Under the naive kernel the blocks run themselves
  /// and the channel adds its accounting edge (router/output_channel.cpp).
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;

 private:
  // Refs of the channel's packed words and its own port index, placed by
  // layout(), the signal accessor the edge and the blocks' bodies run
  // over, and the list of the ops describe() lowers them to
  // (vcarena::Phases, output_channel.cpp).
  friend struct vcarena::Phases;
  struct Words {
    std::uint32_t link = 0;
    std::uint32_t block[kNumPorts] = {};
    std::uint32_t nets = 0;
    unsigned own = 0;
  };
  Words layout(const vcarena::ArenaPlacer& place);
  struct SignalIo;
  template <class Emit>
  void phases(const Emit& emit, const Words& t) const;

  // Sent counting and metrics, from pre-edge state: the channel's clock
  // edge runs before its OC child's.
  template <bool kMetrics>
  void edge(const SignalIo& io);
  // The compiled ops' early-outs (output_channel.cpp): the key of the
  // publish op's outputs, and whether the coming edge changes nothing.
  std::uint64_t publishKey(const SignalIo& io) const;
  bool quiet(const SignalIo& io) const;

  Port ownPort_;

  // Internal nets.
  OutputBlockNets nets_;

  // Blocks.
  OutputController oc_;
  Ods ods_;
  Ors ors_;
  std::optional<Ofc> handshakeOfc_;
  std::optional<CreditOfc> creditOfc_;

  std::uint64_t flitsSent_ = 0;
  // Tested by the edge op every cycle: kept beside the counter the edge
  // updates, not behind the metrics pointers, so an uninstrumented edge
  // touches no extra cache line.
  bool metricsAttached_ = false;
  // The compiled ops' quiet marks (output_channel.cpp): the publish op's
  // and the flow-control response's, each keyed by what its outputs
  // depend on.
  sim::QuietMark published_;
  sim::QuietMark responded_;
  ChannelWires* out_;
  FlowControl flowControl_;
  std::array<CrossbarWires, kNumPorts>* xbar_;
  OutputChannelMetrics metrics_;
};

/// Per-VC instrumentation for the VC'd output channel (telemetry subsystem).
struct VcOutputChannelMetrics {
  telemetry::Counter* flitsSent = nullptr;       ///< flits put on the link
  telemetry::Counter* busyCycles = nullptr;      ///< link val asserted
  telemetry::Counter* grants = nullptr;          ///< downstream-VC allocations
  telemetry::Counter* conflictCycles = nullptr;  ///< a requester left waiting
  telemetry::Counter* routerFlits = nullptr;     ///< router-aggregate flits
  std::array<telemetry::Counter*, kMaxVCs> vcFlits{};  ///< per downstream VC
};

/// Virtual-channel output channel (numVCs > 1): a connection table maps each
/// downstream VC to the (input port, input VC) holding it; allocation runs at
/// the clock edge (round-robin over a request bitmask per downstream VC),
/// and the settle schedules one connected, ready, non-blocked downstream VC
/// onto the one physical link — round-robin by default.  Flit transfers are unconditional once scheduled:
/// out_val is only asserted when the receiver advertised space (vcFree level)
/// or a credit was available, so the ack wire is unused at numVCs > 1.
///
/// With RouterParams::qosClasses the link scheduler switches to strict
/// priority by downstream VC index, descending — the class→VC map
/// (params.hpp, qosVcMask) places higher classes on higher VCs, so this is
/// strict priority by TrafficClass — tempered by a starvation guard: a VC
/// that stayed eligible but unscheduled for kQosStarvationWindow consecutive
/// edges preempts the priority order (lowest starved VC first, so escape VCs
/// win ties).  The guard bounds every VC's service interval, which keeps the
/// escape layer's deadlock-freedom argument intact under class mapping
/// (DESIGN.md §13).
class VcOutputChannel : public sim::Module {
 public:
  /// Edges a VC may stay eligible-but-unscheduled under QoS before it
  /// preempts the strict priority order.
  static constexpr int kQosStarvationWindow = 8;

  VcOutputChannel(std::string name, const RouterParams& params, Port ownPort,
                  VcGeometry geometry,
                  std::array<std::array<CrossbarWires, kMaxVCs>, kNumPorts>&
                      xbar,
                  ChannelWires& out);

  Port port() const { return ownPort_; }
  int numVCs() const { return numVCs_; }
  int escapeVCs() const { return escapeVCs_; }
  std::uint64_t flitsSent() const { return flitsSent_; }
  /// Flits sent on downstream VC `v` since reset.
  std::uint64_t flitsSent(int v) const {
    return vcFlitsSent_[static_cast<std::size_t>(v)];
  }
  /// Sender-side credit pool (credit flow control only).
  const VcCredits& credits() const { return credits_; }

  /// Enables instrumentation; the metrics must outlive the channel.
  void attachMetrics(const VcOutputChannelMetrics& metrics);

  /// Lowering: one arena op per combinational phase (grant publish, link
  /// schedule) and an arena edge op (router/output_channel.cpp).
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;

 private:
  // Refs of the channel's packed words and its own port index, placed by
  // layout(), the signal accessor the phase bodies run over, and the phase
  // list (vcarena::Phases, output_channel.cpp).
  friend struct vcarena::Phases;
  struct Words {
    std::uint32_t link = 0;
    std::uint32_t block[kNumPorts] = {};
    unsigned own = 0;
  };
  Words layout(const vcarena::ArenaPlacer& place) const;
  struct SignalIo;
  template <class Emit>
  void phases(const Emit& emit, const Words& t) const;

  bool creditMode() const {
    return flowControl_ == FlowControl::CreditBased;
  }
  // Bit d set: downstream VC d is connected, its source has a flit ready,
  // and the receiver can take it (`free`: the vcFree levels, bit per VC;
  // and a credit in credit mode) — the link scheduler's candidates and the
  // set the QoS starvation guard ages.
  unsigned schedulable(const SignalIo& io, unsigned free) const;
  // Rebuilds the grant lanes from the connection table's slots.
  void connectionsChanged();

  // The two combinational phases, each a compiled op.  Grant publish: gnt
  // from the registered grant lanes (reads no wire).  Link schedule:
  // rok/flit/vcFree -> rd and the output link.  Edge: starvation ageing,
  // transfer commit, credit returns, allocation.
  void publishGrants(const SignalIo& io);
  void scheduleLink(const SignalIo& io);
  template <bool kMetrics>
  void edge(const SignalIo& io);

  // One downstream VC's registered connection (wormhole: held from header
  // grant to tail send), meaningful while its bit of active_ is set.
  struct Conn {
    int inPort = 0;
    int inVc = 0;
  };

  // Ordered so that what every edge reads (the parameters, the masks, the
  // connection table) shares the object's first cache lines.
  RouterParams params_;
  Port ownPort_;
  FlowControl flowControl_;
  int numVCs_ = 1;
  int escapeVCs_ = 1;
  // The slots that may request this output: every VC of the other ports.
  std::uint32_t requesters_ = 0;

  // Registered state.  The masks are bit per downstream VC (or per
  // (input port, input VC) slot, bit inPort * kMaxVCs + inVc), written at
  // the edge where their source state changes.
  unsigned active_ = 0;          // connected downstream VCs
  std::uint32_t connSlots_ = 0;  // slots holding a downstream VC
  unsigned starving_ = 0;        // starve_[d] > 0
  unsigned starved_ = 0;         // starve_[d] >= kQosStarvationWindow
  int schedRR_ = 0;              // link-scheduling RR over downstream VCs
  bool metricsAttached_ = false;  // beside the state, as in OutputChannel
  std::array<Conn, kMaxVCs> conn_{};
  // Per input port: this output's strobe in each connected VC's grant lane
  // of that port's control word, as publishGrants() writes it.
  std::array<std::uint64_t, kNumPorts> grantLanes_{};
  std::array<int, kMaxVCs> starve_{};  // QoS: eligible-but-unscheduled edges
  std::array<int, kMaxVCs> rrNext_{};  // per-downstream-VC allocation RR
  VcCredits credits_;                  // credit mode only

  std::uint64_t flitsSent_ = 0;
  std::array<std::uint64_t, kMaxVCs> vcFlitsSent_{};

  ChannelWires* out_;
  std::array<std::array<CrossbarWires, kMaxVCs>, kNumPorts>* xbar_;
  VcOutputChannelMetrics metrics_;
};

}  // namespace rasoc::router
