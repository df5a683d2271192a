/// \file
/// Input channel module (paper Figure 5): IFC + IB + IC + IRS wired
/// together, presenting the external input link on one side and the
/// distributed-crossbar nets (x_*) on the other.
///
/// VcInputChannel is the numVCs > 1 variant: the FIFO + routing (IRS) state
/// is replicated per virtual channel, flits are demultiplexed by the
/// channel's vc wire, and flow control switches to per-VC on/off (vcFree
/// levels) or per-VC credits (vcAck pulses) — see router/channel.hpp.
///
/// Both routers write each combinational phase and clock edge once, over one
/// signal accessor on the packed words of router/vc_arena.hpp (one layout
/// for every VC count), read from the arena under both kernels.  At
/// numVCs == 1 the phases are the paper's blocks' own bodies, fused into
/// the channel's ops under the compiled kernel; under the naive kernel the
/// blocks run themselves as child modules.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "sim/module.hpp"
#include "sim/wire.hpp"
#include "telemetry/metrics.hpp"

#include "router/channel.hpp"
#include "router/credit.hpp"
#include "router/fifo.hpp"
#include "router/ic.hpp"
#include "router/ifc.hpp"
#include "router/irs.hpp"
#include "router/params.hpp"

namespace rasoc::router {

/// Opt-in per-channel instrumentation (telemetry subsystem).  All pointers
/// null by default: an unattached channel pays one branch per cycle.
struct InputChannelMetrics {
  telemetry::Counter* flitsAccepted = nullptr;  ///< flits taken off the link
  telemetry::Counter* fullCycles = nullptr;     ///< buffer full at the edge
  telemetry::Counter* stallCycles = nullptr;    ///< head flit present, no read
  telemetry::Histogram* occupancy = nullptr;    ///< per-cycle FIFO occupancy
};

/// Single-VC input channel: the paper's IFC + IB + IC + IRS block stack for
/// one port, bit-exact to the RASoC VHDL at numVCs == 1.
class InputChannel : public sim::Module {
 public:
  InputChannel(std::string name, const RouterParams& params, Port ownPort,
               FlowControl flowControl, ChannelWires& in, CrossbarWires& xbar);

  const InputBuffer& buffer() const { return *ib_; }
  const InputController& controller() const { return ic_; }
  Port port() const { return ownPort_; }

  /// Number of flits accepted from the link since reset.
  std::uint64_t flitsAccepted() const { return flitsAccepted_; }

  // Read-only observation points for the flow tracer, which reconstructs
  // flit movement from settled wires between settle() and tick() instead of
  // instrumenting the channel blocks.  Valid pre-edge only.

  /// True when the buffer head will be read out at the coming edge.
  bool dequeueFired() const { return nets_.rd.get() && nets_.rok.get(); }
  /// The external input link wires this channel samples.
  const ChannelWires& inWires() const { return *in_; }

  /// Enables instrumentation; the metrics must outlive the channel.
  void attachMetrics(const InputChannelMetrics& metrics);

  /// Lowering: under the compiled kernel the IFC/IB/IC/IRS subtree becomes
  /// three arena ops (buffer publish + routing, link-side flow control,
  /// read switch + credit return) and one edge op, each running the
  /// blocks' own bodies, the ones their evaluate() and clockEdge() run,
  /// over the packed words of router/vc_arena.hpp.  Under the naive kernel
  /// the blocks run themselves and the channel adds its accounting edge
  /// (router/input_channel.cpp).
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;

 private:
  // Refs of the channel's packed words, placed by layout(), the signal
  // accessor the edge and the blocks' bodies run over, and the list of the
  // ops describe() lowers them to (vcarena::Phases, input_channel.cpp).
  friend struct vcarena::Phases;
  struct Words {
    std::uint32_t link = 0;
    std::uint32_t block = 0;
    std::uint32_t nets = 0;
  };
  Words layout(const vcarena::ArenaPlacer& place);
  struct SignalIo;
  template <class Emit>
  void phases(const Emit& emit, const Words& t) const;

  // Accept counting and metrics, from pre-commit state: the channel's
  // clock edge runs before its buffer child's.
  template <bool kMetrics>
  void edge(const SignalIo& io);

  Port ownPort_;

  // Internal nets (VHDL signals of the input_channel entity).
  InputBlockNets nets_;

  // Blocks.  Declaration order matters: the nets above are bound into these.
  Ifc ifc_;
  std::unique_ptr<InputBuffer> ib_;
  InputController ic_;
  Irs irs_;
  std::unique_ptr<CreditReturnTap> creditTap_;  // credit mode only

  std::uint64_t flitsAccepted_ = 0;
  // Tested by the edge op every cycle: kept beside the counter the edge
  // updates, not behind the metrics pointers, so an uninstrumented edge
  // touches no extra cache line.
  bool metricsAttached_ = false;
  ChannelWires* in_;
  CrossbarWires* xbar_;
  InputChannelMetrics metrics_;
};

/// Registered per-VC input buffers of a VcInputChannel: one fixed-depth ring
/// per virtual channel.  Flits are held as opaque packed words (the flit
/// layout of router/vc_arena.hpp, so a buffered flit moves as one word);
/// the compiled ops read the rings in place.
class VcFifos {
 public:
  VcFifos(int numVCs, int depth)
      : depth_(depth),
        slots_(static_cast<std::size_t>(numVCs) *
               static_cast<std::size_t>(depth)) {}

  int size(int v) const { return count_[static_cast<std::size_t>(v)]; }
  bool full(int v) const { return size(v) >= depth_; }
  /// Bit v set: VC v holds a flit / is full.
  unsigned occupied() const { return occupied_; }
  unsigned fullVcs() const { return full_; }
  /// Oldest flit of VC v; a stale slot (but readable) when size(v) == 0.
  std::uint64_t head(int v) const {
    return slots_[base(v) + static_cast<std::size_t>(
                                head_[static_cast<std::size_t>(v)])];
  }
  /// Appends a flit to VC v; the caller guarantees !full(v).
  void push(int v, std::uint64_t flit) {
    const auto vi = static_cast<std::size_t>(v);
    int tail = head_[vi] + count_[vi];
    if (tail >= depth_) tail -= depth_;
    slots_[base(v) + static_cast<std::size_t>(tail)] = flit;
    occupied_ |= 1u << v;
    if (++count_[vi] == depth_) full_ |= 1u << v;
  }
  /// Drops VC v's head; the caller guarantees size(v) > 0.
  void pop(int v) {
    const auto vi = static_cast<std::size_t>(v);
    if (++head_[vi] == depth_) head_[vi] = 0;
    full_ &= ~(1u << v);
    if (--count_[vi] == 0) occupied_ &= ~(1u << v);
  }
  void clear() {
    head_.fill(0);
    count_.fill(0);
    occupied_ = 0;
    full_ = 0;
  }

 private:
  std::size_t base(int v) const {
    return static_cast<std::size_t>(v) * static_cast<std::size_t>(depth_);
  }

  int depth_;
  std::array<int, kMaxVCs> head_{};
  std::array<int, kMaxVCs> count_{};
  unsigned occupied_ = 0;
  unsigned full_ = 0;
  std::vector<std::uint64_t> slots_;  // VC v's ring at [v * depth, +depth)
};

/// Per-VC instrumentation for the VC'd input channel (telemetry subsystem):
/// shared counters plus one occupancy histogram per virtual channel.
struct VcInputChannelMetrics {
  telemetry::Counter* flitsAccepted = nullptr;  ///< flits taken off the link
  telemetry::Counter* fullCycles = nullptr;   ///< any VC full at the edge
  telemetry::Counter* stallCycles = nullptr;  ///< a head flit present, no read
  std::array<telemetry::Histogram*, kMaxVCs> occupancy{};  ///< per-VC depth
};

/// Virtual-channel input channel: per-VC FIFO + routing/read-switch state
/// behind one physical link.  Headers on escape VCs (v < escapeVCs) bid the
/// deterministic dimension-order port with the exact dateline class the next
/// link needs; headers on adaptive VCs bid one minimal productive port at a
/// time (west-first preference), rotating through their options on a
/// registered patience counter and converging on the escape path when
/// starved (ic.hpp, vcRouteOptions).  One bid per input VC per cycle keeps
/// the allocation single-stage.
///
/// With RouterParams::qosClasses the adaptive bid is class-constrained: the
/// header's TrafficClass tag (flit.hpp, decodeTrafficClass) selects the
/// qosVcMask() subset of adaptive downstream VCs the packet may occupy, so
/// classes stay on disjoint channels end to end.  The escape fallback is
/// unchanged — any starved header, of any class, converges onto the shared
/// escape path, which is what keeps the deadlock-freedom argument intact
/// (DESIGN.md §13).
class VcInputChannel : public sim::Module {
 public:
  VcInputChannel(std::string name, const RouterParams& params, Port ownPort,
                 VcGeometry geometry, ChannelWires& in,
                 std::array<CrossbarWires, kMaxVCs>& xbar);

  Port port() const { return ownPort_; }
  int numVCs() const { return numVCs_; }
  int escapeVCs() const { return escapeVCs_; }
  bool misrouteDetected() const { return misroute_; }
  bool overflowDetected() const { return overflow_; }
  std::uint64_t flitsAccepted() const { return flitsAccepted_; }

  /// Registered per-VC occupancy (flits buffered), for credit-conservation
  /// checks and occupancy heatmaps.
  int occupancy(int v) const { return fifo_.size(v); }
  /// Per-cycle running sum of occupancy(v), for time-averaged depth.
  std::uint64_t occupancySum(int v) const {
    return occupancySum_[static_cast<std::size_t>(v)];
  }

  /// True when VC v's buffer head will be read out at the coming edge
  /// (pre-edge wires; see InputChannel for the observation contract).
  bool dequeueFired(int v) const;

  /// Enables instrumentation; the metrics must outlive the channel.
  void attachMetrics(const VcInputChannelMetrics& metrics);

  /// Lowering: one arena op per combinational phase (publish, credit
  /// return) and an arena edge op (router/input_channel.cpp).
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;

 private:
  // Refs of the channel's packed words, placed by layout(), the signal
  // accessor the phase bodies run over, and the phase list
  // (vcarena::Phases, input_channel.cpp).
  friend struct vcarena::Phases;
  struct Words {
    std::uint32_t link = 0;
    std::uint32_t block = 0;
  };
  Words layout(const vcarena::ArenaPlacer& place) const;
  struct SignalIo;
  template <class Emit>
  void phases(const Emit& emit, const Words& t) const;

  bool creditMode() const {
    return flowControl_ == FlowControl::CreditBased;
  }

  // The two combinational phases, each a compiled op.  Publish: gnt ->
  // vcFree, rok, req, want and the crossbar flit (the FIFO heads are
  // registered).  Credit return (credit mode only): gnt/rd -> vcAck.
  // Edge: accept, pops, patience and accounting.
  void publish(const SignalIo& io);
  // Publish's bundle bits for the header at VC v's head (`head`, with rok):
  // its bid, from its route options, the patience and the grant lanes.
  std::uint64_t headerBid(const SignalIo& io, int v, std::uint64_t head);
  void returnCredits(const SignalIo& io);
  template <bool kMetrics>
  void edge(const SignalIo& io);
  // Registers whether VC v's new FIFO head is a header (called at the edge
  // where a push or pop exposes the head).
  void headChanged(int v);

  // Ordered so that what every edge reads (the parameters, the FIFO
  // state, the masks) shares the object's first cache lines.
  RouterParams params_;
  Port ownPort_;
  FlowControl flowControl_;
  int numVCs_ = 1;
  int escapeVCs_ = 1;
  std::uint32_t dataMask_ = 0;
  bool metricsAttached_ = false;  // beside the state, as in InputChannel
  bool misroute_ = false;         // sticky diagnostics
  bool overflow_ = false;

  // Registered per-VC state.
  unsigned headers_ = 0;  // bit v: VC v's head flit is a header
  VcFifos fifo_;
  std::array<int, kMaxVCs> patience_{};
  std::uint64_t flitsAccepted_ = 0;
  std::array<std::uint64_t, kMaxVCs> occupancySum_{};

  VcGeometry geometry_;
  ChannelWires* in_;
  std::array<CrossbarWires, kMaxVCs>* xbar_;
  VcInputChannelMetrics metrics_;
};

}  // namespace rasoc::router
