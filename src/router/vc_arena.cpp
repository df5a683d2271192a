#include "router/vc_arena.hpp"

#include <stdexcept>
#include <vector>

namespace rasoc::router::vcarena {

std::uint32_t channelWord(sim::Lowering& lw, const ChannelWires& c,
                          int numVCs) {
  // Both helpers place their group whole, so a placed first wire means
  // the whole group is.
  if (const auto word = lw.placedWord(c.flit.data)) return *word;
  std::vector<sim::WordField> fields = {
      {c.flit.data, 0},
      {c.flit.bop, sim::kFlitBopShift},
      {c.flit.eop, sim::kFlitEopShift},
      {c.val, kVal},
      {c.vc, kVc, kVcWidth}};
  for (int v = 0; v < numVCs; ++v) {
    const auto vi = static_cast<unsigned>(v);
    fields.emplace_back(c.vcFree[vi], kFree + vi);
    fields.emplace_back(c.vcAck[vi], kAck + vi);
  }
  return lw.packedWord(fields);
}

std::uint32_t portBlock(sim::Lowering& lw,
                        const std::array<CrossbarWires, kMaxVCs>& xbar,
                        int numVCs) {
  if (const auto word = lw.placedWord(xbar[0].gnt[0])) return *word;
  std::vector<sim::WordField> control;
  for (int v = 0; v < numVCs; ++v) {
    const CrossbarWires& x = xbar[static_cast<std::size_t>(v)];
    for (unsigned o = 0; o < kNumPorts; ++o) {
      const unsigned bit = kLane * static_cast<unsigned>(v) + o;
      control.emplace_back(x.gnt[o], bit);
      control.emplace_back(x.rd[o], kRd + bit);
    }
  }
  const std::uint32_t base = lw.packedWord(control);
  for (int v = 0; v < numVCs; ++v) {
    const CrossbarWires& x = xbar[static_cast<std::size_t>(v)];
    std::vector<sim::WordField> bundle = {{x.flit.data, 0},
                                          {x.flit.bop, sim::kFlitBopShift},
                                          {x.flit.eop, sim::kFlitEopShift},
                                          {x.rok, kRok}};
    for (unsigned o = 0; o < kNumPorts; ++o)
      bundle.emplace_back(x.req[o], kReq + o);
    bundle.emplace_back(x.want, kWant, kMaxVCs);
    if (lw.packedWord(bundle) != base + 1 + static_cast<std::uint32_t>(v))
      throw std::logic_error("vcarena::portBlock: block is not contiguous");
  }
  return base;
}

}  // namespace rasoc::router::vcarena
