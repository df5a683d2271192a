/// \file
/// Fault-injecting link: a Link that corrupts, stalls, or drops flits
/// according to a schedule of fault windows (no background flip rate: a
/// link with no active window passes every flit clean).  Used to exercise
/// the paper's HLP extension ("the n data bits can be extended to include
/// Higher Level Protocol (HLP) signals, like the ones typically used for
/// data integrity control (parity and error)") and the end-to-end
/// reliability protocol layered above it.
///
/// Fault kinds:
///  - Corrupt: flips one random payload data bit per transferred flit with
///    the window's probability.  Headers (`bop`) pass clean: a corrupted
///    header would change the packet's route, which is a different
///    (routing-level) failure mode than the link noise HLP parity and the
///    NI checksum address.
///  - StuckAck: the link stops completing handshakes for the window — `val`
///    is masked downstream and `ack` upstream, so both endpoints simply
///    wait.  Models a wedged downstream router.
///  - LinkDown: body flits (neither `bop` nor `eop`) are silently consumed
///    (acked upstream but never presented downstream) for the window;
///    framing flits stall as in StuckAck.  Framing is preserved on purpose:
///    dropping a `bop`/`eop` would wedge the wormhole state machines of
///    every router downstream, a failure no end-to-end retransmission
///    protocol could recover from.
///
/// Faults are registered Link state (Link::Faults), which Link's own ops
/// read: the flip decision for the next flit is drawn at the clock edge so
/// the combinational phases stay idempotent, and window activity is
/// recomputed from a registered cycle counter for the same reason.  Stall
/// and drop windows require handshake flow control: under credit-based
/// flow control the ack wire carries credit returns, and masking or
/// forcing it would corrupt the credit accounting rather than model a
/// link fault.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "telemetry/metrics.hpp"

#include "router/link.hpp"

namespace rasoc::router {

/// One scheduled fault on a link: active on cycles
/// [start, start + duration).  `rate` is the per-flit corruption
/// probability and only meaningful for Kind::Corrupt.
struct FaultWindow {
  enum class Kind { Corrupt, StuckAck, LinkDown };

  Kind kind = Kind::Corrupt;
  std::uint64_t start = 0;
  std::uint64_t duration = 0;
  double rate = 1.0;
};

/// Per-link fault telemetry counters (optional; null pointers are skipped).
struct FaultyLinkMetrics {
  telemetry::Counter* flitsCorrupted = nullptr;
  telemetry::Counter* flitsDropped = nullptr;
  telemetry::Counter* stallCycles = nullptr;
};

class FaultyLink : public Link {
 public:
  /// Flips no bit until setWindows() schedules a fault; `dataBits` is the
  /// payload width a Corrupt window flips within.
  FaultyLink(std::string name, ChannelWires& src, ChannelWires& dst,
             int dataBits, std::uint64_t seed,
             FlowControl flowControl = FlowControl::Handshake, int numVCs = 1);

  /// Replaces the fault schedule.  Call before the first cycle.  Stall and
  /// drop windows throw under credit-based flow control at numVCs == 1 (see
  /// file comment); with VCs the per-VC vcFree levels are masked instead of
  /// the ack wire, so every window kind is legal under either flow control.
  /// A VC window never consumes flits: the masked vcFree stops the sender
  /// from scheduling, so both window kinds degrade to a full stall, and the
  /// vcAck credit pulses pass through even while the link is down (masking
  /// a pulse would permanently leak a credit and wedge the VC).
  void setWindows(std::vector<FaultWindow> windows);

  /// Attaches optional telemetry counters, incremented at each clock edge.
  void attachMetrics(const FaultyLinkMetrics& metrics) { metrics_ = metrics; }

  /// Payload flits whose data word was bit-flipped.
  std::uint64_t flitsCorrupted() const { return flitsCorrupted_; }
  /// Body flits silently consumed by LinkDown windows.
  std::uint64_t flitsDropped() const { return flitsDropped_; }
  /// Cycles in which an offered flit was blocked by a StuckAck or LinkDown
  /// window.
  std::uint64_t stallCycles() const { return stallCycles_; }

  /// Lowering: Link's settle ops, and this link's edge.
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;

 private:
  friend struct vcarena::Phases;
  // Link's phase list with the edge below (vcarena::Phases).
  template <class Emit>
  void phases(const Emit& emit, const vcarena::ChannelRefs& r) const;
  // Fault accounting, RNG draws and the fault state's recomputation, then
  // Link's transfer count, over the source and destination channel words.
  void edge(const SignalIo& io);
  void arm();
  void recomputeActive();

  int dataBits_;
  std::uint64_t seed_;
  sim::Xoshiro256 rng_;
  std::vector<FaultWindow> windows_;

  // Registered state, recomputed with Link::faults_ (whose flip is the
  // mask armed for the next payload flit) at reset and at every edge.
  std::uint64_t cycle_ = 0;
  double corruptRate_ = 0.0;  // effective flip probability this cycle

  std::uint64_t flitsCorrupted_ = 0;
  std::uint64_t flitsDropped_ = 0;
  std::uint64_t stallCycles_ = 0;
  FaultyLinkMetrics metrics_;
};

}  // namespace rasoc::router
