// IRS - Input Read Switch (paper Figure 5).
//
// "The IRS block receives four pairs of x_rd - x_gnt signals from each
// output channel module, and connects the granted read command to the rd
// input of the IB block interface."  Logically: rd = OR over outputs of
// (gnt & rd); at most one grant is active at a time, so the OR is a switch.
#pragma once

#include <array>

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"

namespace rasoc::router {

class Irs : public sim::Module {
 public:
  Irs(std::string name, const CrossbarWires& xbar, sim::Wire<bool>& rd)
      : Module(std::move(name)), xbar_(&xbar), rd_(&rd) {
    for (int o = 0; o < kNumPorts; ++o) {
      sensitive(xbar.gnt[o]);
      sensitive(xbar.rd[o]);
    }
  }

  // The combinational body over a signal accessor (see Ifc::flow); grants()
  // and reads() are port masks.
  template <class Io>
  void select(const Io& io) const {
    io.putRd((io.grants() & io.reads()) != 0);
  }

 protected:
  void evaluate() override { select(WireIo{*this}); }

 private:
  struct WireIo {
    const Irs& b;
    unsigned grants() const { return mask(b.xbar_->gnt); }
    unsigned reads() const { return mask(b.xbar_->rd); }
    void putRd(bool v) const { b.rd_->set(v); }

    static unsigned mask(const std::array<sim::Wire<bool>, kNumPorts>& w) {
      unsigned m = 0;
      for (int o = 0; o < kNumPorts; ++o)
        if (w[static_cast<std::size_t>(o)].get()) m |= 1u << o;
      return m;
    }
  };

  const CrossbarWires* xbar_;
  sim::Wire<bool>* rd_;
};

}  // namespace rasoc::router
