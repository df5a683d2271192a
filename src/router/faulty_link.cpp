#include "router/faulty_link.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/compile.hpp"

#include "router/vc_arena.hpp"

namespace rasoc::router {

FaultyLink::FaultyLink(std::string name, ChannelWires& src, ChannelWires& dst,
                       int dataBits, double flipProbability,
                       std::uint64_t seed, FlowControl flowControl,
                       int numVCs)
    : Link(std::move(name), src, dst, flowControl, numVCs),
      dataBits_(dataBits),
      flipProbability_(flipProbability),
      seed_(seed),
      rng_(seed) {
  if (dataBits_ < 1 || dataBits_ > 32)
    throw std::invalid_argument("FaultyLink: dataBits must be 1..32");
  if (!(flipProbability_ >= 0.0 && flipProbability_ <= 1.0))
    throw std::invalid_argument(
        "FaultyLink: flipProbability must be in [0,1]");
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
  stallActive_ = false;
  downActive_ = false;
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
  droppedThisEdge_ = false;
  stallActive_ = false;
  downActive_ = false;
  corruptRate_ = 0.0;
  recomputeActive();
  arm();
}

void FaultyLink::recomputeActive() {
  stallActive_ = false;
  downActive_ = false;
  double rate = flipProbability_;
  for (const auto& w : windows_) {
    if (cycle_ < w.start || cycle_ - w.start >= w.duration) continue;
    switch (w.kind) {
      case FaultWindow::Kind::Corrupt:
        rate = std::max(rate, w.rate);
        break;
      case FaultWindow::Kind::StuckAck:
        stallActive_ = true;
        break;
      case FaultWindow::Kind::LinkDown:
        downActive_ = true;
        break;
    }
  }
  if (rate != corruptRate_) {
    corruptRate_ = rate;
    // Re-draw the armed mask under the new probability so a window's rate
    // cannot leak past its end via a stale mask.  Only reachable with a
    // schedule present, so window-less links keep the historical RNG stream.
    if (!windows_.empty()) arm();
  }
}

void FaultyLink::arm() {
  if (rng_.chance(corruptRate_)) {
    armedMask_ = 1u << rng_.below(static_cast<std::uint64_t>(dataBits_));
  } else {
    armedMask_ = 0;
  }
}

void FaultyLink::forward() {
  if (!stallActive_ && !downActive_) {
    Link::forward();
    return;
  }
  // A window presents nothing downstream.  With VCs no flit is ever
  // consumed: the sender only raises val when vcFree said so pre-edge, and
  // the window state is registered, so val is low for the whole window.
  dstWires().flit.data.set(0);
  dstWires().flit.bop.set(false);
  dstWires().flit.eop.set(false);
  dstWires().val.set(false);
  if (numVCs() > 1) dstWires().vc.set(0);
}

void FaultyLink::reverseAck() {
  if (!stallActive_ && !downActive_) {
    Link::reverseAck();
    return;
  }
  // Link down consumes an offered body flit without presenting it; a full
  // stall moves nothing, so both endpoints wait.
  const bool body = !srcWires().flit.bop.get() && !srcWires().flit.eop.get();
  srcWires().ack.set(!stallActive_ && body && srcWires().val.get());
}

void FaultyLink::reverseVcFree() {
  if (!stallActive_ && !downActive_) {
    Link::reverseVcFree();
    return;
  }
  // Mask every vcFree level so the sender cannot schedule.
  for (int v = 0; v < numVCs(); ++v)
    srcWires().vcFree[static_cast<std::size_t>(v)].set(false);
}

void FaultyLink::clockEdge() {
  const bool val = srcWires().val.get();
  const bool bop = srcWires().flit.bop.get();
  const bool eop = srcWires().flit.eop.get();
  const bool body = !bop && !eop;
  // VC windows never consume flits (see forward()); every active-window
  // cycle counts as a stall because all VCs are frozen for its duration.
  droppedThisEdge_ =
      numVCs() == 1 && downActive_ && !stallActive_ && body && val;
  const bool blockedByFault =
      numVCs() == 1 ? (val && (stallActive_ || (downActive_ && !body)))
                    : (stallActive_ || downActive_);
  Link::clockEdge();
  if (droppedThisEdge_) {
    ++flitsDropped_;
    if (metrics_.flitsDropped) metrics_.flitsDropped->inc();
  }
  if (blockedByFault) {
    ++stallCycles_;
    if (metrics_.stallCycles) metrics_.stallCycles->inc();
  }
  droppedThisEdge_ = false;
  ++cycle_;
  recomputeActive();
}

std::uint32_t FaultyLink::transformData(std::uint32_t data, bool bop,
                                        bool eop) {
  (void)eop;
  if (bop) return data;  // headers pass clean (see header comment)
  return data ^ armedMask_;
}

void FaultyLink::onTransfer(bool bop) {
  // Headers pass clean and do not consume the armed mask.
  if (bop) return;
  if (droppedThisEdge_) {
    // The flit never reached the far side; the armed mask was not applied.
    arm();
    return;
  }
  if (armedMask_ != 0) {
    ++flitsCorrupted_;
    if (metrics_.flitsCorrupted) metrics_.flitsCorrupted->inc();
  }
  arm();
}

// --- compiled-kernel lowering ------------------------------------------

bool FaultyLink::describe(sim::Lowering& lw) {
  ChannelWires& src = srcWires();
  ChannelWires& dst = dstWires();
  // Same channel-word layout as a plain Link.
  vcarena::channelWord(lw, src, numVCs());
  vcarena::channelWord(lw, dst, numVCs());
  lw.phaseOp<&FaultyLink::forward>(
      *this,
      {&src.flit.data, &src.flit.bop, &src.flit.eop, &src.val, &src.vc},
      {&dst.flit.data, &dst.flit.bop, &dst.flit.eop, &dst.val, &dst.vc});
  if (numVCs() == 1) {
    lw.phaseOp<&FaultyLink::reverseAck>(
        *this, {&dst.ack, &src.val, &src.flit.bop, &src.flit.eop},
        {&src.ack});
  } else {
    std::vector<const sim::WireBase*> freeIn, freeOut, ackIn, ackOut;
    for (std::size_t v = 0; v < static_cast<std::size_t>(numVCs()); ++v) {
      freeIn.push_back(&dst.vcFree[v]);
      freeOut.push_back(&src.vcFree[v]);
      ackIn.push_back(&dst.vcAck[v]);
      ackOut.push_back(&src.vcAck[v]);
    }
    lw.phaseOp<&FaultyLink::reverseVcFree>(*this, std::move(freeIn),
                                           std::move(freeOut));
    if (flowControl() == FlowControl::CreditBased)
      lw.phaseOp<&FaultyLink::reverseVcAck>(*this, std::move(ackIn),
                                            std::move(ackOut));
  }
  lw.edgeCall(*this);
  return true;
}

}  // namespace rasoc::router
