// OC - Output Controller (paper Figure 6): round-robin arbitration and
// connection bookkeeping for one output channel.
//
// "The OC block runs a round-robin algorithm to select one of the requests
// emitted by the input channels.  After that, it sets the grant line to the
// selected request, commanding the ODS and ORS blocks to switch. ... The OC
// block also monitors eop and x_rd signals to determine when the last
// packet flit (the trailer) is delivered in order to cancel the established
// connection."
//
// Grants are registered: a request visible in cycle t is granted at the
// edge of cycle t and data flows from cycle t+1 (one-cycle arbitration
// latency, matching the synchronous grant register the paper's Table 3
// attributes to the OC: 56% of the router's flip-flops).
#pragma once

#include <array>

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"

namespace rasoc::router {

enum class ArbiterKind { RoundRobin, FixedPriority };

class OutputController : public sim::Module {
 public:
  // `xbar` holds one entry per input channel, indexed by port; entries for
  // ports absent from the router are never requested and never granted.
  // `outEop` is the ODS-muxed eop of the selected input; `rokSel` is the
  // ORS-muxed rok; `xRd` is the read command issued by the OFC (the
  // acknowledge in handshake mode, the credit-gated send in credit mode).
  OutputController(std::string name, Port ownPort,
                   std::array<CrossbarWires, kNumPorts>& xbar,
                   const sim::Wire<bool>& outEop,
                   const sim::Wire<bool>& rokSel,
                   const sim::Wire<bool>& xRd,
                   sim::Wire<bool>& connected, sim::Wire<int>& sel,
                   ArbiterKind arbiter = ArbiterKind::RoundRobin);

  bool isConnected() const { return connected_; }
  Port selectedInput() const { return static_cast<Port>(sel_); }
  std::uint64_t grantsIssued() const { return grantsIssued_; }

  // The combinational body and the clock edge, written over a signal
  // accessor: WireIo below (evaluate() / clockEdge()) or the output
  // channel's arena accessor (its compiled ops).  Grants and requests are
  // input-port masks: bit i is this output's gnt / req line of input i.
  template <class Io>
  void publish(const Io& io) const {
    io.putConnected(connected_);
    io.putSel(sel_);
    io.putGrants(connected_ ? 1u << sel_ : 0u);
  }
  template <class Io>
  void edge(const Io& io) {
    step(io.requests(), io.outEop(), io.rokSel(), io.xRd());
  }

 protected:
  void onReset() override;
  void evaluate() override { publish(WireIo{*this}); }
  void clockEdge() override { edge(WireIo{*this}); }

 private:
  struct WireIo {
    const OutputController& b;
    unsigned requests() const { return requestMask(*b.xbar_, b.ownPort_); }
    bool outEop() const { return b.outEop_->get(); }
    bool rokSel() const { return b.rokSel_->get(); }
    bool xRd() const { return b.xRd_->get(); }
    void putConnected(bool v) const { b.connectedWire_->set(v); }
    void putSel(int v) const { b.selWire_->set(v); }
    void putGrants(unsigned inputs) const {
      const int own = index(b.ownPort_);
      for (int i = 0; i < kNumPorts; ++i)
        (*b.xbar_)[static_cast<std::size_t>(i)].gnt[own].set(
            ((inputs >> i) & 1u) != 0);
    }
  };

  // Arbitration and teardown for one edge; `req` is the request mask.
  void step(unsigned req, bool outEop, bool rokSel, bool xRd);

  Port ownPort_;
  std::array<CrossbarWires, kNumPorts>* xbar_;
  const sim::Wire<bool>* outEop_;
  const sim::Wire<bool>* rokSel_;
  const sim::Wire<bool>* xRd_;
  sim::Wire<bool>* connectedWire_;
  sim::Wire<int>* selWire_;
  ArbiterKind arbiter_;

  // Registered state.
  bool connected_ = false;
  int sel_ = 0;       // input port index currently granted
  int rrPtr_ = 0;     // last granted input (round-robin pointer)
  std::uint64_t grantsIssued_ = 0;
};

}  // namespace rasoc::router
