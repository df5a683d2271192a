#include "router/vc_arena.hpp"

#include <vector>

namespace rasoc::router::vcarena {

namespace {

// The field visitors: every word's layout, declared once.  Each calls
// f(wire, shift, width) per field, in placement order.

template <class F>
void channelFields(ChannelWires& c, int numVCs, F&& f) {
  f(c.flit.data, 0, 32);
  f(c.flit.bop, kBop, 1);
  f(c.flit.eop, kEop, 1);
  f(c.val, kVal, 1);
  f(c.vc, kVc, kVcWidth);
  f(c.ack, kAck, 1);
  for (int v = 0; v < numVCs; ++v) {
    const auto vi = static_cast<unsigned>(v);
    f(c.vcFree[vi], kFree + vi, 1);
    f(c.vcAck[vi], kVcAck + vi, 1);
  }
}

template <class F>
void controlFields(CrossbarWires* xbar, int numVCs, F&& f) {
  for (int v = 0; v < numVCs; ++v) {
    for (unsigned o = 0; o < kNumPorts; ++o) {
      const unsigned lane = kLane * static_cast<unsigned>(v) + o;
      f(xbar[v].gnt[o], lane, 1);
      f(xbar[v].rd[o], kRd + lane, 1);
    }
  }
}

template <class F>
void bundleFields(CrossbarWires& x, F&& f) {
  f(x.flit.data, 0, 32);
  f(x.flit.bop, kBop, 1);
  f(x.flit.eop, kEop, 1);
  f(x.rok, kRok, 1);
  for (unsigned o = 0; o < kNumPorts; ++o) f(x.req[o], kReq + o, 1);
  f(x.want, kWant, kMaxVCs);
}

template <class F>
void inputNetFields(InputBlockNets& n, F&& f) {
  f(n.dout.data, 0, 32);
  f(n.dout.bop, kBop, 1);
  f(n.dout.eop, kEop, 1);
  f(n.wok, kWok, 1);
  f(n.rok, kRokNet, 1);
  f(n.wr, kWr, 1);
  f(n.rd, kRdNet, 1);
}

template <class F>
void outputNetFields(OutputBlockNets& n, F&& f) {
  f(n.connected, kConnected, 1);
  f(n.rokSel, kRokSel, 1);
  f(n.xRd, kXRd, 1);
  f(n.sel, kSel, kSelWidth);
}

}  // namespace

template <class F>
void WireTwin::visit(F&& f) const {
  switch (kind_) {
    case Kind::Channel:
      return channelFields(*static_cast<ChannelWires*>(nets_), vcs_, f);
    case Kind::Control:
      return controlFields(static_cast<CrossbarWires*>(nets_), vcs_, f);
    case Kind::Bundle:
      return bundleFields(*static_cast<CrossbarWires*>(nets_), f);
    case Kind::InNets:
      return inputNetFields(*static_cast<InputBlockNets*>(nets_), f);
    case Kind::OutNets:
      return outputNetFields(*static_cast<OutputBlockNets*>(nets_), f);
  }
}

std::uint32_t ArenaPlacer::operator()(const WireTwin& twin) const {
  // Every word is placed whole, so a placed first field means the word is.
  const sim::WireBase* first = nullptr;
  std::size_t n = 0;
  twin.visit([&](const auto& wire, unsigned, unsigned) {
    if (n++ == 0) first = &wire;
  });
  if (const auto word = lw.placedWord(*first)) return *word;
  std::vector<sim::WordField> fields;
  fields.reserve(n);
  twin.visit([&](const auto& wire, unsigned shift, unsigned width) {
    fields.emplace_back(wire, shift, width);
  });
  return lw.packedWord(fields);
}

}  // namespace rasoc::router::vcarena
