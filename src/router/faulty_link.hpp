/// \file
/// Fault-injecting link: a Link that corrupts, stalls, or drops flits
/// according to a baseline flip probability and an optional schedule of
/// fault windows.  Used to exercise the paper's HLP extension ("the n data
/// bits can be extended to include Higher Level Protocol (HLP) signals,
/// like the ones typically used for data integrity control (parity and
/// error)") and the end-to-end reliability protocol layered above it.
///
/// Fault kinds:
///  - Corrupt: flips one random payload data bit per transferred flit with
///    a configurable probability.  Headers (`bop`) pass clean: a corrupted
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
/// The flip decision for the next flit is drawn at the clock edge so the
/// combinational phases stay idempotent, and window activity is
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
  /// `flipProbability` is the baseline per-flit corruption probability that
  /// applies outside any window; Corrupt windows raise it to
  /// max(flipProbability, window.rate) while active.
  FaultyLink(std::string name, ChannelWires& src, ChannelWires& dst,
             int dataBits, double flipProbability, std::uint64_t seed,
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

  /// Compiled-kernel lowering: each of Link's phases is a phase op over
  /// the overrides below, with the read/write sets of Link::describe's
  /// field copies, and the clock edge (RNG draws, counters) is an edge
  /// call.  Window state is registered, so the split stays acyclic.
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;
  void clockEdge() override;
  // Window masking of Link's phases.  reverseAck also reads the offered
  // flit's val/bop/eop, because LinkDown consumes body flits.  vcAck
  // credit pulses always pass, so reverseVcAck is Link's.
  void forward() override;
  void reverseAck() override;
  void reverseVcFree() override;
  std::uint32_t transformData(std::uint32_t data, bool bop,
                              bool eop) override;
  void onTransfer(bool bop) override;

 private:
  void arm();
  void recomputeActive();

  int dataBits_;
  double flipProbability_;
  std::uint64_t seed_;
  sim::Xoshiro256 rng_;
  std::vector<FaultWindow> windows_;

  // Registered state: recomputed at reset and at every clock edge so the
  // combinational evaluate() sees a stable view within each settle.
  std::uint64_t cycle_ = 0;
  bool stallActive_ = false;
  bool downActive_ = false;
  double corruptRate_ = 0.0;   // effective flip probability this cycle
  std::uint32_t armedMask_ = 0;  // XORed into the next payload flit
  bool droppedThisEdge_ = false;

  std::uint64_t flitsCorrupted_ = 0;
  std::uint64_t flitsDropped_ = 0;
  std::uint64_t stallCycles_ = 0;
  FaultyLinkMetrics metrics_;
};

}  // namespace rasoc::router
