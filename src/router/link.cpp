#include "router/link.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/compile.hpp"

#include "router/vc_arena.hpp"

namespace rasoc::router {

namespace {

// Channel-word accessor indices (vcarena::ChannelWireIo / ChannelArenaIo).
constexpr std::size_t kSrc = 0;
constexpr std::size_t kDst = 1;

}  // namespace

using vcarena::bit;

Link::Link(std::string name, ChannelWires& src, ChannelWires& dst,
           FlowControl flowControl, int numVCs)
    : Link(std::move(name), src, dst, flowControl, numVCs, false) {}

Link::Link(std::string name, ChannelWires& src, ChannelWires& dst,
           FlowControl flowControl, int numVCs, bool faultable)
    : Module(std::move(name)),
      src_(&src),
      dst_(&dst),
      flowControl_(flowControl),
      numVCs_(numVCs),
      faultable_(faultable) {
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

template <class Io>
bool Link::transferring(const Io& io) const {
  const std::uint64_t need =
      flowControl_ == FlowControl::Handshake && numVCs_ == 1
          ? bit(vcarena::kVal) | bit(vcarena::kAck)
          : bit(vcarena::kVal);
  return io.word(kSrc, need) == need;
}

void Link::evaluate() {
  const vcarena::ChannelWireIo io{{src_, dst_}, numVCs_};
  forward(io);
  if (numVCs_ == 1) {
    reverseAck(io);
    return;
  }
  // VC mode: per-VC space/link-up levels and credit pulses upstream.  The
  // ack wire is unused.
  reverseVcFree(io);
  reverseVcAck(io);
}

bool Link::transferring() const {
  return transferring(vcarena::ChannelWireIo{{src_, dst_}, numVCs_});
}

void Link::onReset() { flitsTransferred_ = 0; }

void Link::clockEdge() {
  if (transferring()) ++flitsTransferred_;
}

// --- compiled-kernel lowering ------------------------------------------
//
// One op per direction over the two channel words: flit + val + vc
// downstream, ack (single VC) or the vcFree levels and vcAck pulses (VCs)
// upstream.  Fusing the directions would tie the downstream val driver to
// the downstream ack reader and manufacture a false combinational cycle
// through the receiving router's flow controller.

bool Link::describe(sim::Lowering& lw) {
  using Ctx = vcarena::ChannelCtx<Link>;
  using vcarena::ChannelArenaIo;
  Ctx* ctx = lw.ctx(Ctx{this,
                        {vcarena::channelWord(lw, *src_, numVCs_),
                         vcarena::channelWord(lw, *dst_, numVCs_)}});

  lw.op(&vcarena::channelOp<Link, &Link::forward<ChannelArenaIo>>, ctx,
        {&src_->flit.data, &src_->flit.bop, &src_->flit.eop, &src_->val,
         &src_->vc},
        {&dst_->flit.data, &dst_->flit.bop, &dst_->flit.eop, &dst_->val,
         &dst_->vc});

  if (numVCs_ == 1) {
    std::vector<const sim::WireBase*> reads = {&dst_->ack};
    if (faultable_)
      reads.insert(reads.end(),
                   {&src_->val, &src_->flit.bop, &src_->flit.eop});
    lw.op(&vcarena::channelOp<Link, &Link::reverseAck<ChannelArenaIo>>, ctx,
          std::move(reads), {&src_->ack});
  } else {
    // The two VC reverse fields need separate ops: under credit flow
    // control vcAck is driven from the receiver's rd, which the receiver
    // computes from the vcFree of the next hop, so one op carrying both
    // would close a cycle through neighbouring routers.
    std::vector<const sim::WireBase*> freeIn, freeOut, ackIn, ackOut;
    for (std::size_t v = 0; v < static_cast<std::size_t>(numVCs_); ++v) {
      freeIn.push_back(&dst_->vcFree[v]);
      freeOut.push_back(&src_->vcFree[v]);
      ackIn.push_back(&dst_->vcAck[v]);
      ackOut.push_back(&src_->vcAck[v]);
    }
    lw.op(&vcarena::channelOp<Link, &Link::reverseVcFree<ChannelArenaIo>>,
          ctx, std::move(freeIn), std::move(freeOut));
    // vcAck pulses exist only under credit flow control; on/off links
    // never see one.
    if (flowControl_ == FlowControl::CreditBased)
      lw.op(&vcarena::channelOp<Link, &Link::reverseVcAck<ChannelArenaIo>>,
            ctx, std::move(ackIn), std::move(ackOut));
  }

  if (faultable_) {
    // Fault windows and RNG draws stay host-side clockEdge() code.
    lw.edgeCall(*this);
  } else {
    lw.edgeOp(
        [](std::uint64_t* w, void* c) {
          auto* x = static_cast<Ctx*>(c);
          if (x->self->transferring(ChannelArenaIo{w, x->words.data()}))
            ++x->self->flitsTransferred_;
        },
        ctx);
  }
  return true;
}

}  // namespace rasoc::router
