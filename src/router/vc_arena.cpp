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
      {c.flit.bop, kBop},
      {c.flit.eop, kEop},
      {c.val, kVal},
      {c.vc, kVc, kVcWidth},
      {c.ack, kAck}};
  for (int v = 0; v < numVCs; ++v) {
    const auto vi = static_cast<unsigned>(v);
    fields.emplace_back(c.vcFree[vi], kFree + vi);
    fields.emplace_back(c.vcAck[vi], kVcAck + vi);
  }
  return lw.packedWord(fields);
}

std::uint64_t channelBits(const ChannelWires& c, int numVCs,
                          std::uint64_t mask) {
  std::uint64_t bits = 0;
  const auto read = [&](const sim::Wire<bool>& wire, std::size_t shift) {
    if ((mask >> shift) & 1u) bits |= std::uint64_t{wire.get()} << shift;
  };
  if (mask & sim::fieldMask(32)) bits |= c.flit.data.get();
  read(c.flit.bop, kBop);
  read(c.flit.eop, kEop);
  read(c.val, kVal);
  if ((mask >> kVc) & 1u)
    bits |= (static_cast<std::uint64_t>(c.vc.get()) &
             sim::fieldMask(kVcWidth))
            << kVc;
  read(c.ack, kAck);
  for (int v = 0; v < numVCs; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    read(c.vcFree[vi], kFree + vi);
    read(c.vcAck[vi], kVcAck + vi);
  }
  return bits & mask;
}

void driveChannelBits(ChannelWires& c, int numVCs, std::uint64_t mask,
                      std::uint64_t bits) {
  const auto drive = [&](sim::Wire<bool>& wire, std::size_t shift) {
    if ((mask >> shift) & 1u) wire.set(((bits >> shift) & 1u) != 0);
  };
  if (mask & sim::fieldMask(32))
    c.flit.data.set(static_cast<std::uint32_t>(bits));
  drive(c.flit.bop, kBop);
  drive(c.flit.eop, kEop);
  drive(c.val, kVal);
  if ((mask >> kVc) & 1u)
    c.vc.set(static_cast<int>((bits >> kVc) & sim::fieldMask(kVcWidth)));
  drive(c.ack, kAck);
  for (int v = 0; v < numVCs; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    drive(c.vcFree[vi], kFree + vi);
    drive(c.vcAck[vi], kVcAck + vi);
  }
}

std::uint32_t portBlock(sim::Lowering& lw,
                        std::span<const CrossbarWires> xbar) {
  if (const auto word = lw.placedWord(xbar[0].gnt[0])) return *word;
  std::vector<sim::WordField> control;
  for (std::size_t v = 0; v < xbar.size(); ++v) {
    for (unsigned o = 0; o < kNumPorts; ++o) {
      const unsigned bit = kLane * static_cast<unsigned>(v) + o;
      control.emplace_back(xbar[v].gnt[o], bit);
      control.emplace_back(xbar[v].rd[o], kRd + bit);
    }
  }
  const std::uint32_t base = lw.packedWord(control);
  for (std::size_t v = 0; v < xbar.size(); ++v) {
    const CrossbarWires& x = xbar[v];
    std::vector<sim::WordField> bundle = {{x.flit.data, 0},
                                          {x.flit.bop, kBop},
                                          {x.flit.eop, kEop},
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
