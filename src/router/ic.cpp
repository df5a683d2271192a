#include "router/ic.hpp"

namespace rasoc::router {

int escapeClass(const VcGeometry& g, Port out, Rib rib) {
  switch (out) {
    case Port::East: return (g.wrapX && g.x + rib.dx >= g.width) ? 1 : 0;
    case Port::West: return (g.wrapX && g.x + rib.dx < 0) ? 1 : 0;
    case Port::North: return (g.wrapY && g.y + rib.dy >= g.height) ? 1 : 0;
    case Port::South: return (g.wrapY && g.y + rib.dy < 0) ? 1 : 0;
    case Port::Local: break;
  }
  return 0;
}

int vcRouteOptions(const VcGeometry& g, Rib rib, bool adaptive,
                   RoutingAlgorithm routing, unsigned adaptiveMask,
                   std::array<VcRouteOption, kNumPorts>& options) {
  int count = 0;
  if (adaptive) {
    if (rib == Rib{0, 0}) {
      options[count++] = {Port::Local, adaptiveMask};
    } else if (rib.dx < 0) {
      // West-first restriction: a westward offset is consumed before any
      // adaptive choice opens up.
      options[count++] = {Port::West, adaptiveMask};
    } else {
      if (rib.dx > 0) options[count++] = {Port::East, adaptiveMask};
      if (rib.dy > 0) options[count++] = {Port::North, adaptiveMask};
      if (rib.dy < 0) options[count++] = {Port::South, adaptiveMask};
    }
  }
  const Port dor = route(routing, rib);
  options[count++] = {dor, 1u << escapeClass(g, dor, rib)};
  return count;
}

InputController::InputController(std::string name, const RouterParams& params,
                                 Port ownPort, const FlitWires& ibDout,
                                 const sim::Wire<bool>& rok,
                                 CrossbarWires& xbar)
    : Module(std::move(name)),
      m_(params.m),
      mask_(dataMask(params.n)),
      routing_(params.routing),
      ownPort_(ownPort),
      ibDout_(&ibDout),
      rok_(&rok),
      xbar_(&xbar) {}

void InputController::onReset() {
  requesting_ = false;
  target_ = Port::Local;
  misroute_ = false;
}

}  // namespace rasoc::router
