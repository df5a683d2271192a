#include "router/link.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/compile.hpp"

#include "router/vc_arena.hpp"

namespace rasoc::router {

using vcarena::bit;

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

// --- phases, over the source and destination channel words --------------

template <class Io>
void Link::forward(const Io& io) const {
  std::uint64_t f = io.word(kSrc, vcarena::kForwardMask);
  if ((f & bit(vcarena::kBop)) == 0) f ^= faults_.flip;
  io.put(kDst, vcarena::kForwardMask, f & faults_.keep);
}

template <class Io>
void Link::reverseAck(const Io& io) const {
  std::uint64_t ack = 0;
  switch (faults_.ack) {
    case AckPath::Copy:
      ack = io.word(kDst, bit(vcarena::kAck));
      break;
    case AckPath::Stall:
      break;
    case AckPath::Consume: {
      // An offered body flit: val set, neither bop nor eop.
      constexpr std::uint64_t kFraming =
          bit(vcarena::kBop) | bit(vcarena::kEop) | bit(vcarena::kVal);
      if (io.word(kSrc, kFraming) == bit(vcarena::kVal))
        ack = bit(vcarena::kAck);
      break;
    }
  }
  io.put(kSrc, bit(vcarena::kAck), ack);
}

template <class Io>
void Link::reverseVcFree(const Io& io) const {
  io.put(kSrc, vcarena::kFreeMask,
         io.word(kDst, vcarena::kFreeMask) & faults_.keep);
}

template <class Io>
void Link::reverseVcAck(const Io& io) const {
  io.put(kSrc, vcarena::kVcAckMask, io.word(kDst, vcarena::kVcAckMask));
}

void Link::evaluate() {
  onWires([&](const auto& io) {
    forward(io);
    if (numVCs_ == 1) {
      reverseAck(io);
      return;
    }
    // VC mode: per-VC space/link-up levels and credit pulses upstream.
    // The ack wire is unused.
    reverseVcFree(io);
    reverseVcAck(io);
  });
}

void Link::onReset() { flitsTransferred_ = 0; }

void Link::clockEdge() {
  onWires([&](const auto& io) { edge(io); });
}

// --- compiled-kernel lowering ------------------------------------------
//
// One op per direction over the two channel words: flit + val + vc
// downstream, ack (single VC) or the vcFree levels and vcAck pulses (VCs)
// upstream.  Fusing the directions would tie the downstream val driver to
// the downstream ack reader and manufacture a false combinational cycle
// through the receiving router's flow controller.

vcarena::OpCtx<Link>* Link::describePhases(sim::Lowering& lw,
                                                bool readsOffer) {
  using Ctx = vcarena::OpCtx<Link>;
  vcarena::ArenaPlacer place{lw};
  Ctx* ctx = lw.ctx(Ctx{this,
                        {place(vcarena::WireTwin::channel(*src_, numVCs_)),
                         place(vcarena::WireTwin::channel(*dst_, numVCs_))}});

  // The ops' reads and writes, as bits of the same words.
  const std::uint32_t src = ctx->words[kSrc];
  const std::uint32_t dst = ctx->words[kDst];
  lw.op(&vcarena::channelOp<Link, &Link::forward<ArenaIo>>, ctx,
        {{src, vcarena::kForwardMask}}, {{dst, vcarena::kForwardMask}});
  if (numVCs_ == 1) {
    const std::uint64_t offer =
        bit(vcarena::kVal) | bit(vcarena::kBop) | bit(vcarena::kEop);
    lw.op(&vcarena::channelOp<Link, &Link::reverseAck<ArenaIo>>, ctx,
          {{dst, bit(vcarena::kAck)}, {src, readsOffer ? offer : 0}},
          {{src, bit(vcarena::kAck)}});
  } else {
    // The two VC reverse fields need separate ops: under credit flow
    // control vcAck is driven from the receiver's rd, which the receiver
    // computes from the vcFree of the next hop, so one op carrying both
    // would close a cycle through neighbouring routers.
    lw.op(&vcarena::channelOp<Link, &Link::reverseVcFree<ArenaIo>>, ctx,
          {{dst, vcarena::kFreeMask}}, {{src, vcarena::kFreeMask}});
    // vcAck pulses exist only under credit flow control; on/off links
    // never see one.
    if (flowControl_ == FlowControl::CreditBased)
      lw.op(&vcarena::channelOp<Link, &Link::reverseVcAck<ArenaIo>>, ctx,
            {{dst, vcarena::kVcAckMask}}, {{src, vcarena::kVcAckMask}});
  }
  return ctx;
}

bool Link::describe(sim::Lowering& lw) {
  lw.edgeOp(&vcarena::channelOp<Link, &Link::edge<ArenaIo>>,
            describePhases(lw, false));
  return true;
}

}  // namespace rasoc::router
