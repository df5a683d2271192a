// IFC - Input Flow Controller (paper Figure 5).
//
// Translates between the handshake protocol on the external link and the
// FIFO write interface: "It just implements an AND gate in order to set the
// output in_ack when both in_val and wok equal 1."  The same condition
// drives the FIFO write strobe.
//
// In credit-based mode (paper Section 2.2 extension) the sender only emits
// a flit when it holds a credit, so the receiver accepts unconditionally:
// wr = in_val, and in_ack doubles as the credit-return line, pulsed by the
// input channel when a flit leaves the buffer (driven by the input channel
// wiring, not by the IFC).
#pragma once

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/params.hpp"

namespace rasoc::router {

class Ifc : public sim::Module {
 public:
  Ifc(std::string name, FlowControl mode, const sim::Wire<bool>& inVal,
      const sim::Wire<bool>& wok, sim::Wire<bool>* inAck, sim::Wire<bool>& wr)
      : Module(std::move(name)),
        mode_(mode),
        inVal_(&inVal),
        wok_(&wok),
        inAck_(inAck),
        wr_(&wr) {}

  // The combinational body, written over a signal accessor: WireIo below
  // (evaluate()) or the input channel's arena accessor (its compiled ops).
  template <class Io>
  void flow(const Io& io) const {
    if (mode_ == FlowControl::Handshake) {
      const bool accept = io.inVal() && io.wok();
      io.putInAck(accept);
      io.putWr(accept);
    } else {
      // Credit-based: space is guaranteed by the sender's credit counter.
      io.putWr(io.inVal());
    }
  }

 protected:
  void evaluate() override { flow(WireIo{*this}); }

 private:
  struct WireIo {
    const Ifc& b;
    bool inVal() const { return b.inVal_->get(); }
    bool wok() const { return b.wok_->get(); }
    void putInAck(bool v) const {
      if (b.inAck_ != nullptr) b.inAck_->set(v);
    }
    void putWr(bool v) const { b.wr_->set(v); }
  };

  FlowControl mode_;
  const sim::Wire<bool>* inVal_;
  const sim::Wire<bool>* wok_;
  sim::Wire<bool>* inAck_;  // null in credit mode (ack is the credit line)
  sim::Wire<bool>* wr_;
};

}  // namespace rasoc::router
