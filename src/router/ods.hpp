// ODS - Output Data Switch (paper Figure 6).
//
// A 4:1, (n+2)-bit multiplexer connecting the selected input channel's
// x_dout (data + framing) to the external output channel.  The paper's
// Table 3 shows these switches dominating router area (49% of the logic
// cells for the 32-bit configuration) because each bit costs a LUT tree
// (Figure 8).
#pragma once

#include <array>

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"

namespace rasoc::router {

class Ods : public sim::Module {
 public:
  Ods(std::string name, const std::array<CrossbarWires, kNumPorts>& xbar,
      const sim::Wire<bool>& connected, const sim::Wire<int>& sel,
      FlitWires& out)
      : Module(std::move(name)),
        xbar_(&xbar),
        connected_(&connected),
        sel_(&sel),
        out_(&out) {
    sensitive(connected);
    sensitive(sel);
    for (const CrossbarWires& in : xbar) {
      sensitive(in.flit.data);
      sensitive(in.flit.bop);
      sensitive(in.flit.eop);
    }
  }

  // The combinational body, written over a signal accessor: WireIo below
  // (evaluate()) or the output channel's arena accessor (its compiled ops).
  template <class Io>
  void mux(const Io& io) const {
    io.putOutFlit(io.connected() ? io.xFlit(io.sel()) : Flit{});
  }

 protected:
  void evaluate() override { mux(WireIo{*this}); }

 private:
  struct WireIo {
    const Ods& b;
    bool connected() const { return b.connected_->get(); }
    int sel() const { return b.sel_->get(); }
    Flit xFlit(int i) const {
      return readFlit((*b.xbar_)[static_cast<std::size_t>(i)].flit);
    }
    void putOutFlit(const Flit& f) const { driveFlit(*b.out_, f); }
  };

  const std::array<CrossbarWires, kNumPorts>* xbar_;
  const sim::Wire<bool>* connected_;
  const sim::Wire<int>* sel_;
  FlitWires* out_;
};

}  // namespace rasoc::router
