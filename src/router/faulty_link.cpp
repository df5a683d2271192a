#include "router/faulty_link.hpp"

#include <algorithm>
#include <stdexcept>

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
  if (flipProbability_ < 0.0 || flipProbability_ > 1.0)
    throw std::invalid_argument("FaultyLink: probability must be in [0,1]");
  recomputeActive();
  arm();
}

void FaultyLink::setWindows(std::vector<FaultWindow> windows) {
  for (const auto& w : windows) {
    if (w.rate < 0.0 || w.rate > 1.0)
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

void FaultyLink::evaluate() {
  if (numVCs() > 1) {
    if (stallActive_ || downActive_) {
      // VC window: present nothing downstream and mask every vcFree level
      // so the sender cannot schedule; vcAck pulses still pass (a swallowed
      // credit return would be lost forever, wedging the VC after the
      // window lifts).  No flit is ever consumed: the sender only raises
      // val when vcFree said so pre-edge, and the window state is
      // registered, so val is low for the whole window.
      dstWires().flit.data.set(0);
      dstWires().flit.bop.set(false);
      dstWires().flit.eop.set(false);
      dstWires().val.set(false);
      dstWires().vc.set(0);
      for (int v = 0; v < numVCs(); ++v) {
        srcWires().vcFree[static_cast<std::size_t>(v)].set(false);
        srcWires().vcAck[static_cast<std::size_t>(v)].set(
            dstWires().vcAck[static_cast<std::size_t>(v)].get());
      }
      return;
    }
    Link::evaluate();
    return;
  }
  if (stallActive_ || downActive_) {
    const bool bop = srcWires().flit.bop.get();
    const bool eop = srcWires().flit.eop.get();
    const bool body = !bop && !eop;
    dstWires().flit.data.set(0);
    dstWires().flit.bop.set(false);
    dstWires().flit.eop.set(false);
    dstWires().val.set(false);
    if (!stallActive_ && body) {
      // Link down: consume the offered body flit without presenting it.
      srcWires().ack.set(srcWires().val.get());
    } else {
      // Full stall: nothing moves; both endpoints wait.
      srcWires().ack.set(false);
    }
    return;
  }
  Link::evaluate();
}

void FaultyLink::clockEdge() {
  const bool val = srcWires().val.get();
  const bool bop = srcWires().flit.bop.get();
  const bool eop = srcWires().flit.eop.get();
  const bool body = !bop && !eop;
  // VC windows never consume flits (see evaluate()); every active-window
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

}  // namespace rasoc::router
