/// \file
/// Point-to-point link between two routers (or a router and a network
/// interface): forwards the data/framing/val wires downstream and the
/// ack/credit wire upstream, and counts transferred flits for utilization
/// statistics.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/module.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"

namespace rasoc::router {

/// Combinational point-to-point channel segment.
///
/// A Link is pass-through wiring plus bookkeeping: it copies the sender's
/// flit/val wires downstream and the receiver's ack wire upstream every
/// settle, and counts transferred flits at the clock edge (a transfer is
/// `val && ack` under handshake flow control, `val` under credit-based
/// flow control where `ack` carries returning credits instead).
class Link : public sim::Module {
 public:
  /// `src` is an output channel bundle (val driven by the sender, ack read
  /// by it); `dst` is an input channel bundle (val read by the receiver, ack
  /// driven by it).  With `numVCs` > 1 the link additionally forwards the
  /// flit's vc tag downstream and the per-VC vcFree levels and vcAck credit
  /// pulses upstream; the ack wire is unused (transfers are unconditional
  /// once scheduled — see router/channel.hpp).
  Link(std::string name, ChannelWires& src, ChannelWires& dst,
       FlowControl flowControl = FlowControl::Handshake, int numVCs = 1);

  ~Link() override = default;

  /// Total flits that crossed the link since the last reset.
  std::uint64_t flitsTransferred() const { return flitsTransferred_; }

  /// Cycles in which the link carried a flit / total cycles observed.
  double utilization(std::uint64_t cycles) const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(flitsTransferred_) /
                             static_cast<double>(cycles);
  }

  /// True when the sender is offering a flit that the receiver is not
  /// accepting this cycle.  Only meaningful under handshake flow control
  /// (credit-based links signal backpressure at the sender, not on the
  /// wire), so it reports false there.  Read after settle — e.g. from a
  /// watchdog diagnostics callback — to name wedged links.
  bool blocked() const {
    return flowControl_ == FlowControl::Handshake && numVCs_ == 1 &&
           src_->val.get() && !src_->ack.get();
  }

  /// Compiled-kernel lowering, one layout for every VC count: one masked
  /// field copy per phase of evaluate() between the packed channel words of
  /// router/vc_arena.hpp (flit + val + vc downstream; ack, or the vcFree
  /// levels and vcAck pulses, upstream) and a counting edge op.  The copies
  /// bypass the virtual hooks below, so a subclass that overrides a phase
  /// or transformData() overrides describe() too (FaultyLink does).
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;
  void evaluate() override;
  void clockEdge() override;

  /// The combinational phases of evaluate(), in call order, each lowered
  /// to its own op.  forward: flit, val (and vc) downstream.  reverseAck
  /// (single VC): ack upstream.  reverseVcFree / reverseVcAck (VCs): the
  /// per-VC levels and credit pulses upstream.
  virtual void forward();
  virtual void reverseAck();
  virtual void reverseVcFree();
  virtual void reverseVcAck();

  /// Hook for derived links (fault injection): the data word actually
  /// presented downstream.  Must be a pure function of its inputs and the
  /// link's registered state (evaluate() runs to fixpoint).
  virtual std::uint32_t transformData(std::uint32_t data, bool bop,
                                      bool eop) {
    (void)bop;
    (void)eop;
    return data;
  }

  /// Called once per transferred flit, at the clock edge; `bop` marks
  /// header flits.
  virtual void onTransfer(bool bop) { (void)bop; }

  /// Wire bundles, exposed so fault-injecting subclasses can mask the
  /// val/ack handshake (stall and link-down windows).
  ChannelWires& srcWires() { return *src_; }
  ChannelWires& dstWires() { return *dst_; }
  const ChannelWires& srcWires() const { return *src_; }
  FlowControl flowControl() const { return flowControl_; }
  int numVCs() const { return numVCs_; }

 private:
  ChannelWires* src_;
  ChannelWires* dst_;
  FlowControl flowControl_;
  int numVCs_ = 1;
  std::uint64_t flitsTransferred_ = 0;
};

}  // namespace rasoc::router
