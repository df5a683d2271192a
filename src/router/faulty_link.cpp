#include "router/faulty_link.hpp"

#include <algorithm>
#include <stdexcept>

namespace rasoc::router {

FaultyLink::FaultyLink(std::string name, ChannelWires& src, ChannelWires& dst,
                       int dataBits, std::uint64_t seed,
                       FlowControl flowControl, int numVCs)
    : Link(std::move(name), src, dst, flowControl, numVCs),
      dataBits_(dataBits),
      seed_(seed),
      rng_(seed) {
  if (dataBits_ < 1 || dataBits_ > 32)
    throw std::invalid_argument("FaultyLink: dataBits must be 1..32");
  recomputeActive();
  arm();
}

void FaultyLink::setWindows(std::vector<FaultWindow> windows) {
  for (const auto& w : windows) {
    if (!(w.rate >= 0.0 && w.rate <= 1.0))
      throw std::invalid_argument("FaultyLink: window rate must be in [0,1]");
    if (w.kind != FaultWindow::Kind::Corrupt &&
        flowControl() != FlowControl::Handshake && numVCs() == 1)
      throw std::invalid_argument(
          "FaultyLink: stall/drop windows require handshake flow control "
          "(the credit-based ack wire carries credit returns)");
  }
  windows_ = std::move(windows);
  corruptRate_ = 0.0;
  recomputeActive();
}

void FaultyLink::onReset() {
  Link::onReset();
  rng_ = sim::Xoshiro256(seed_);
  flitsCorrupted_ = 0;
  flitsDropped_ = 0;
  stallCycles_ = 0;
  cycle_ = 0;
  corruptRate_ = 0.0;
  recomputeActive();
  arm();
}

void FaultyLink::recomputeActive() {
  bool stall = false;
  bool down = false;
  double rate = 0.0;
  for (const auto& w : windows_) {
    if (cycle_ < w.start || cycle_ - w.start >= w.duration) continue;
    switch (w.kind) {
      case FaultWindow::Kind::Corrupt:
        rate = std::max(rate, w.rate);
        break;
      case FaultWindow::Kind::StuckAck:
        stall = true;
        break;
      case FaultWindow::Kind::LinkDown:
        down = true;
        break;
    }
  }
  // A window presents nothing downstream and masks every vcFree level.
  // With VCs no flit is ever consumed: the sender only raises val when
  // vcFree said so pre-edge, and the window state is registered, so val
  // is low for the whole window.  At one VC a full stall moves nothing
  // (both endpoints wait), and link down consumes offered body flits.
  faults_.keep = stall || down ? 0 : ~std::uint64_t{0};
  faults_.ack = stall ? AckPath::Stall
                : down ? AckPath::Consume
                       : AckPath::Copy;
  if (rate != corruptRate_) {
    corruptRate_ = rate;
    // Re-draw the armed mask under the new probability so a window's rate
    // cannot leak past its end via a stale mask.
    arm();
  }
}

void FaultyLink::arm() {
  if (rng_.chance(corruptRate_)) {
    faults_.flip = 1u << rng_.below(static_cast<std::uint64_t>(dataBits_));
  } else {
    faults_.flip = 0;
  }
}

void FaultyLink::edge(const SignalIo& io) {
  using vcarena::bit;
  const std::uint64_t offer = io.word(
      kSrc, bit(vcarena::kVal) | bit(vcarena::kBop) | bit(vcarena::kEop));
  const bool val = (offer & bit(vcarena::kVal)) != 0;
  const bool bop = (offer & bit(vcarena::kBop)) != 0;
  const bool body = (offer & (bit(vcarena::kBop) | bit(vcarena::kEop))) == 0;
  // VC windows never consume flits (see recomputeActive()); every
  // active-window cycle counts as a stall because all VCs are frozen for
  // its duration.
  const bool oneVc = numVCs() == 1;
  const bool dropped = oneVc && faults_.ack == AckPath::Consume && body && val;
  const bool blockedByFault =
      oneVc ? val && (faults_.ack == AckPath::Stall ||
                      (faults_.ack == AckPath::Consume && !body))
            : faults_.keep == 0;
  // Headers pass clean and do not consume the armed mask.  A dropped flit
  // never reached the far side, so its mask was not applied.
  if (transferring(io) && !bop) {
    if (!dropped && faults_.flip != 0) {
      ++flitsCorrupted_;
      if (metrics_.flitsCorrupted) metrics_.flitsCorrupted->inc();
    }
    arm();
  }
  Link::edge(io);
  if (dropped) {
    ++flitsDropped_;
    if (metrics_.flitsDropped) metrics_.flitsDropped->inc();
  }
  if (blockedByFault) {
    ++stallCycles_;
    if (metrics_.stallCycles) metrics_.stallCycles->inc();
  }
  ++cycle_;
  recomputeActive();
}

template <class Emit>
void FaultyLink::phases(const Emit& emit,
                        const vcarena::ChannelRefs& r) const {
  // Link's list with this edge; the ack op reads the offered flit
  // (AckPath::Consume).
  Link::phases(emit, r,
               vcarena::bit(vcarena::kVal) | vcarena::bit(vcarena::kBop) |
                   vcarena::bit(vcarena::kEop),
               [](FaultyLink& m, const auto& io) { m.edge(io); });
}

bool FaultyLink::describe(sim::Lowering& lw) {
  return vcarena::Phases::lower(*this, lw);
}

}  // namespace rasoc::router
