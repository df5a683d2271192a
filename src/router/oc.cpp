#include "router/oc.hpp"

namespace rasoc::router {

OutputController::OutputController(
    std::string name, Port ownPort, std::array<CrossbarWires, kNumPorts>& xbar,
    const sim::Wire<bool>& outEop, const sim::Wire<bool>& rokSel,
    const sim::Wire<bool>& xRd, sim::Wire<bool>& connected,
    sim::Wire<int>& sel, ArbiterKind arbiter)
    : Module(std::move(name)),
      ownPort_(ownPort),
      xbar_(&xbar),
      outEop_(&outEop),
      rokSel_(&rokSel),
      xRd_(&xRd),
      connectedWire_(&connected),
      selWire_(&sel),
      arbiter_(arbiter) {}

void OutputController::onReset() {
  connected_ = false;
  sel_ = 0;
  rrPtr_ = 0;
  grantsIssued_ = 0;
}

void OutputController::step(unsigned req, bool outEop, bool rokSel,
                            bool xRd) {
  const int own = index(ownPort_);
  if (!connected_) {
    // Scan the other input ports starting after the round-robin pointer
    // (fixed priority always restarts at port 0).
    const int start = arbiter_ == ArbiterKind::RoundRobin ? rrPtr_ : -1;
    for (int k = 1; k <= kNumPorts; ++k) {
      const int i = ((start + k) % kNumPorts + kNumPorts) % kNumPorts;
      if (i == own) continue;
      if ((req >> i) & 1u) {
        connected_ = true;
        sel_ = i;
        rrPtr_ = i;
        ++grantsIssued_;
        break;
      }
    }
  } else {
    // Tear the connection down once the trailer flit is actually
    // transferred (present at the head and read toward the link).
    if (outEop && rokSel && xRd) {
      connected_ = false;
    }
  }
}

}  // namespace rasoc::router
