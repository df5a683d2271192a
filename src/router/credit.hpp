// Credit-based Output Flow Controller - the replacement OFC the paper
// sketches in Section 2.2 ("an up/down counter in a credit-based strategy").
//
// The sender keeps an up/down counter initialized to the receiver's buffer
// depth.  A flit is sent (out_val asserted, x_rd issued) whenever the
// selected input has a flit ready AND a credit is available; the counter
// decrements per flit sent and increments per credit returned.  The
// channel's ack wire is reinterpreted as the credit-return line: the
// receiving input channel pulses it each cycle a flit leaves its buffer.
//
// Compared to the handshake OFC this removes the round-trip dependency
// (out_val -> receiver ack -> x_rd) from the flit transfer: the sender
// pops eagerly, which keeps the link busy when the receiver pipeline is
// draining.  The bench_ablation_flowctrl harness quantifies the difference.
#pragma once

#include <array>

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"

namespace rasoc::router {

class CreditOfc : public sim::Module {
 public:
  // `creditReturn` is the channel ack wire in credit mode; `initialCredits`
  // must equal the downstream buffer depth.
  CreditOfc(std::string name, Port ownPort, int initialCredits,
            const sim::Wire<bool>& rokSel,
            const sim::Wire<bool>& creditReturn, sim::Wire<bool>& outVal,
            sim::Wire<bool>& xRd, std::array<CrossbarWires, kNumPorts>& xbar)
      : Module(std::move(name)),
        ownPort_(ownPort),
        initialCredits_(initialCredits),
        rokSel_(&rokSel),
        creditReturn_(&creditReturn),
        outVal_(&outVal),
        xRd_(&xRd),
        xbar_(&xbar) {}

  int credits() const { return credits_; }

  // The combinational body and the clock edge, written over a signal
  // accessor: WireIo below (evaluate() / clockEdge()) or the output
  // channel's arena accessor (its compiled ops).  sends() is the one bit
  // send() drives; putReads drives this output's rd line of every input.
  template <class Io>
  bool sends(const Io& io) const {
    return io.rokSel() && credits_ > 0;
  }
  template <class Io>
  void send(const Io& io) const {
    const bool go = sends(io);
    io.putOutVal(go);
    io.putXRd(go);
    io.putReads(go);
  }
  template <class Io>
  void edge(const Io& io) {
    credits_ += (io.outAck() ? 1 : 0) - (sends(io) ? 1 : 0);
  }

 protected:
  void onReset() override { credits_ = initialCredits_; }
  void evaluate() override { send(WireIo{*this}); }
  void clockEdge() override { edge(WireIo{*this}); }

 private:
  struct WireIo {
    const CreditOfc& b;
    bool rokSel() const { return b.rokSel_->get(); }
    bool outAck() const { return b.creditReturn_->get(); }
    void putOutVal(bool v) const { b.outVal_->set(v); }
    void putXRd(bool v) const { b.xRd_->set(v); }
    void putReads(bool v) const { driveReads(*b.xbar_, b.ownPort_, v); }
  };

  Port ownPort_;
  int initialCredits_;
  int credits_ = 0;
  const sim::Wire<bool>* rokSel_;
  const sim::Wire<bool>* creditReturn_;
  sim::Wire<bool>* outVal_;
  sim::Wire<bool>* xRd_;
  std::array<CrossbarWires, kNumPorts>* xbar_;
};

// Per-VC sender-side credit bank (numVCs > 1, credit-based flow control):
// one up/down counter per virtual channel, each initialized to the
// receiver's per-VC buffer depth.  The channel's per-VC vcAck wires carry
// the returning credits (router/channel.hpp); the scalar ack wire is
// unused.  Used by VcOutputChannel; the VC'd network interface keeps its
// own per-VC counters (noc/ni.hpp, credits_).
class VcCredits {
 public:
  void reset(int numVCs, int depth);
  bool available(int v) const { return credits_[static_cast<std::size_t>(v)] > 0; }
  /// Bit v set: VC v has a credit.
  unsigned availableMask() const {
    unsigned vcs = 0;
    for (int v = 0; v < numVCs_; ++v)
      if (available(v)) vcs |= 1u << v;
    return vcs;
  }
  int credits(int v) const { return credits_[static_cast<std::size_t>(v)]; }
  void onSent(int v);
  void onReturn(int v);
  // Conservation invariant for tests: no counter may exceed its initial
  // depth or go negative.
  bool conserved() const;

 private:
  std::array<int, kMaxVCs> credits_{};
  int numVCs_ = 0;
  int depth_ = 0;
};

// Receiver-side credit return: pulses the channel's ack (credit) wire each
// cycle a flit is read out of the input buffer, freeing a slot.
class CreditReturnTap : public sim::Module {
 public:
  CreditReturnTap(std::string name, const sim::Wire<bool>& rd,
                  const sim::Wire<bool>& rok, sim::Wire<bool>& creditOut)
      : Module(std::move(name)), rd_(&rd), rok_(&rok), creditOut_(&creditOut) {}

  // The combinational body over a signal accessor (see CreditOfc::send).
  template <class Io>
  void pulse(const Io& io) const {
    io.putInAck(io.rd() && io.rok());
  }

 protected:
  void evaluate() override { pulse(WireIo{*this}); }

 private:
  struct WireIo {
    const CreditReturnTap& b;
    bool rd() const { return b.rd_->get(); }
    bool rok() const { return b.rok_->get(); }
    void putInAck(bool v) const { b.creditOut_->set(v); }
  };

  const sim::Wire<bool>* rd_;
  const sim::Wire<bool>* rok_;
  sim::Wire<bool>* creditOut_;
};

}  // namespace rasoc::router
