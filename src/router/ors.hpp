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

 protected:
  void evaluate() override {
    const bool rok =
        connected_->get() &&
        (*xbar_)[static_cast<std::size_t>(sel_->get())].rok.get();
    rokSel_->set(rok);
  }

 private:
  const std::array<CrossbarWires, kNumPorts>* xbar_;
  const sim::Wire<bool>* connected_;
  const sim::Wire<int>* sel_;
  sim::Wire<bool>* rokSel_;
};

}  // namespace rasoc::router
