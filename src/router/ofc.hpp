// OFC - Output Flow Controller (paper Figure 6).
//
// Handshake mode: "Since there is no functional difference between the
// handshake and the FIFO protocols at the sender side, the OFC block just
// implements wires connecting the selected x_rok to out_val, and out_ack to
// x_rd."  The x_rd command is broadcast to every input channel's rd line
// for this output; the grant lines qualify it inside each IRS.
//
// Credit mode (paper Section 2.2: "this block can be easily replaced to
// implement the required logic (eg. an up/down counter in a credit-based
// strategy)") lives in router/credit.hpp.
#pragma once

#include <array>

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"

namespace rasoc::router {

class Ofc : public sim::Module {
 public:
  Ofc(std::string name, Port ownPort, const sim::Wire<bool>& rokSel,
      const sim::Wire<bool>& outAck, sim::Wire<bool>& outVal,
      sim::Wire<bool>& xRd, std::array<CrossbarWires, kNumPorts>& xbar)
      : Module(std::move(name)),
        ownPort_(ownPort),
        rokSel_(&rokSel),
        outAck_(&outAck),
        outVal_(&outVal),
        xRd_(&xRd),
        xbar_(&xbar) {}

  // The combinational body in its two halves, written over a signal
  // accessor: WireIo below (evaluate()) or the output channel's arena
  // accessor, whose compiled ops run them apart: offer reads the selected
  // rok, respond the link's ack, and one op reading both would close a
  // false cycle through the next router's flow control.  putReads drives
  // this output's rd line of every input.
  template <class Io>
  void offer(const Io& io) const {
    io.putOutVal(io.rokSel());
  }
  template <class Io>
  void respond(const Io& io) const {
    const bool rd = io.outAck();
    io.putXRd(rd);
    io.putReads(rd);
  }

 protected:
  void evaluate() override {
    const WireIo io{*this};
    offer(io);
    respond(io);
  }

 private:
  struct WireIo {
    const Ofc& b;
    bool rokSel() const { return b.rokSel_->get(); }
    bool outAck() const { return b.outAck_->get(); }
    void putOutVal(bool v) const { b.outVal_->set(v); }
    void putXRd(bool v) const { b.xRd_->set(v); }
    void putReads(bool v) const { driveReads(*b.xbar_, b.ownPort_, v); }
  };

  Port ownPort_;
  const sim::Wire<bool>* rokSel_;
  const sim::Wire<bool>* outAck_;
  sim::Wire<bool>* outVal_;
  sim::Wire<bool>* xRd_;
  std::array<CrossbarWires, kNumPorts>* xbar_;
};

}  // namespace rasoc::router
