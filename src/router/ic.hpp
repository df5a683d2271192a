// IC - Input Controller (paper Figure 5): the routing function.
//
// "It detects the presence of a header at the IB block output, analyses the
// Routing Information Bits (RIB) included in the header, runs the routing
// algorithm to select an output channel, emits a request to the selected
// output channel, and, finally, updates the routing information in the
// header to take into account the performed routing."
//
// The block is purely combinational (the paper's Table 3 reports 0% of the
// router's flip-flops in the IC):
//  * while the header flit (bop set) is at the buffer head, the routing
//    decision and the request to the chosen output channel are decoded
//    directly from the RIB, and x_dout carries the header with the RIB
//    already decremented for the hop being taken;
//  * once the header is read out the request drops - the *output
//    controller's* connection register holds the wormhole path until the
//    trailer passes, so payload flits (and buffer-empty bubbles) flow
//    without the IC's involvement.
//
// The own-port request line does not exist in hardware ("it is not allowed
// to an input channel to request the output channel of its own port"); the
// model keeps a sticky misroute flag so tests can assert the situation
// never arises.
#pragma once

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/channel.hpp"
#include "router/flit.hpp"
#include "router/params.hpp"

namespace rasoc::router {

// --- VC-allocation stage (numVCs > 1) --------------------------------------
//
// With virtual channels the routing function grows a second output: besides
// the target port, each header names the downstream VCs it can use, as a
// bitmask on the `want` crossbar net.  Escape VCs
// (v < VcGeometry::escapeVCs()) carry deterministic dimension-order traffic
// and request exactly the dateline class of the next link (a one-bit mask);
// adaptive VCs may request any VC of their adaptive set — all adaptive VCs
// by default, or the class's qosVcMask() subset under
// RouterParams::qosClasses — of any minimal productive port, falling back
// to the escape path when starved (Duato's criterion: an adaptive packet
// can always reach the acyclic escape subnetwork, and packets on escape VCs
// never leave it).

// One candidate (output port, downstream-VC-set request) for a header.
struct VcRouteOption {
  Port port = Port::Local;
  unsigned want = 0;  // bitmask of acceptable downstream VCs
};

// Dateline class of the link leaving `out` for a packet at geometry `g`
// whose pre-hop routing offset is `rib`: class 1 while the remaining path
// along that axis still crosses the wrap link, class 0 after (and always 0
// on non-wrapping axes).  Stateless — position plus carried offset fully
// determine the class — so adaptive detours never corrupt it.  Per
// direction the class-1 channels ordered by coordinate, then the class-0
// channels, form a total order every dependency ascends: the escape
// subnetwork is acyclic (DESIGN.md §12).
int escapeClass(const VcGeometry& g, Port out, Rib rib);

// Fills `options` with the candidate bids for a header carrying `rib`, in
// preference order, and returns how many were written.  Escape VCs get
// exactly one option (the DOR port with its dateline class as a one-bit
// mask).  Adaptive VCs get the minimal productive ports west-first style (a
// negative X offset forces West before any adaptivity), each requesting
// `adaptiveMask` (the full adaptive VC set, or the packet class's
// qosVcMask() under QoS), then the escape option last so a starved header
// always converges onto the escape path.
int vcRouteOptions(const VcGeometry& g, Rib rib, bool adaptive,
                   RoutingAlgorithm routing, unsigned adaptiveMask,
                   std::array<VcRouteOption, kNumPorts>& options);

class InputController : public sim::Module {
 public:
  InputController(std::string name, const RouterParams& params, Port ownPort,
                  const FlitWires& ibDout, const sim::Wire<bool>& rok,
                  CrossbarWires& xbar);

  // Observability for tests: the decision made in the last evaluation.
  bool requesting() const { return requesting_; }
  Port requestedTarget() const { return target_; }
  bool misrouteDetected() const { return misroute_; }

  // The combinational body, written over a signal accessor: WireIo below
  // (evaluate()) or the input channel's arena accessor (its compiled ops).
  // putXbar drives x_rok, the request lines (a port mask) and x_dout.
  template <class Io>
  void route(const Io& io) {
    const Flit head = io.dout();
    const bool rok = io.rok();
    const bool headerVisible = rok && head.bop;

    Port target = Port::Local;
    Flit forwarded = head;
    if (headerVisible) {
      const Rib rib = decodeRib(head.data, m_);
      target = router::route(routing_, rib);
      // Update the header for the hop being taken before it leaves.
      forwarded.data =
          updateHeader(head.data, consumeHop(rib, target), m_) & mask_;
      if (target == ownPort_) misroute_ = true;
    }
    io.putXbar(rok, headerVisible ? 1u << index(target) : 0u, forwarded);

    requesting_ = headerVisible;
    target_ = target;
  }

 protected:
  void onReset() override;
  void evaluate() override { route(WireIo{*this}); }

 private:
  struct WireIo {
    const InputController& b;
    Flit dout() const { return readFlit(*b.ibDout_); }
    bool rok() const { return b.rok_->get(); }
    void putXbar(bool rok, unsigned req, const Flit& f) const {
      for (int o = 0; o < kNumPorts; ++o)
        b.xbar_->req[static_cast<std::size_t>(o)].set(((req >> o) & 1u) != 0);
      driveFlit(b.xbar_->flit, f);
      b.xbar_->rok.set(rok);
    }
  };

  int m_;
  std::uint32_t mask_;
  RoutingAlgorithm routing_ = RoutingAlgorithm::XY;
  Port ownPort_;

  const FlitWires* ibDout_;
  const sim::Wire<bool>* rok_;
  CrossbarWires* xbar_;

  // Last-evaluation observability (not hardware state).
  bool requesting_ = false;
  Port target_ = Port::Local;
  bool misroute_ = false;  // sticky diagnostic
};

}  // namespace rasoc::router
