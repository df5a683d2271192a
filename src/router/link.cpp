#include "router/link.hpp"

#include <stdexcept>

namespace rasoc::router {

Link::Link(std::string name, ChannelWires& src, ChannelWires& dst,
           FlowControl flowControl, int numVCs)
    : Module(std::move(name)),
      src_(&src),
      dst_(&dst),
      flowControl_(flowControl),
      numVCs_(numVCs) {
  if (numVCs_ < 1 || numVCs_ > kMaxVCs)
    throw std::invalid_argument("Link: numVCs must be in [1, kMaxVCs]");
}

void Link::onReset() { flitsTransferred_ = 0; }

bool Link::describe(sim::Lowering& lw) {
  return vcarena::Phases::lower(*this, lw);
}

}  // namespace rasoc::router
