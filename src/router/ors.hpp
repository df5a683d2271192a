// ORS - Output Rok Switch (paper Figure 6, entity name per Table 3).
//
// A 4:1, 1-bit multiplexer connecting the selected input channel's x_rok
// ("a flit is ready at the buffer head") toward the output flow controller,
// which turns it into out_val.
#pragma once

#include <array>

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"

namespace rasoc::router {

class Ors : public sim::Module {
 public:
  Ors(std::string name, const std::array<CrossbarWires, kNumPorts>& xbar,
      const sim::Wire<bool>& connected, const sim::Wire<int>& sel,
      sim::Wire<bool>& rokSel)
      : Module(std::move(name)),
        xbar_(&xbar),
        connected_(&connected),
        sel_(&sel),
        rokSel_(&rokSel) {
    sensitive(connected);
    sensitive(sel);
    for (const CrossbarWires& in : xbar) sensitive(in.rok);
  }

  // The combinational body over a signal accessor (see Ods::mux).
  template <class Io>
  void select(const Io& io) const {
    io.putRokSel(io.connected() && io.xRok(io.sel()));
  }

 protected:
  void evaluate() override { select(WireIo{*this}); }

 private:
  struct WireIo {
    const Ors& b;
    bool connected() const { return b.connected_->get(); }
    int sel() const { return b.sel_->get(); }
    bool xRok(int i) const {
      return (*b.xbar_)[static_cast<std::size_t>(i)].rok.get();
    }
    void putRokSel(bool v) const { b.rokSel_->set(v); }
  };

  const std::array<CrossbarWires, kNumPorts>* xbar_;
  const sim::Wire<bool>* connected_;
  const sim::Wire<int>* sel_;
  sim::Wire<bool>* rokSel_;
};

}  // namespace rasoc::router
