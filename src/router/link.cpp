#include "router/link.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/compile.hpp"

#include "router/vc_arena.hpp"

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

void Link::evaluate() {
  forward();
  if (numVCs_ == 1) {
    reverseAck();
    return;
  }
  // VC mode: per-VC space/link-up levels and credit pulses upstream.  The
  // ack wire is unused.
  reverseVcFree();
  reverseVcAck();
}

void Link::forward() {
  const bool bop = src_->flit.bop.get();
  const bool eop = src_->flit.eop.get();
  dst_->flit.data.set(transformData(src_->flit.data.get(), bop, eop));
  dst_->flit.bop.set(bop);
  dst_->flit.eop.set(eop);
  dst_->val.set(src_->val.get());
  if (numVCs_ > 1) dst_->vc.set(src_->vc.get());
}

void Link::reverseAck() { src_->ack.set(dst_->ack.get()); }

void Link::reverseVcFree() {
  for (int v = 0; v < numVCs_; ++v)
    src_->vcFree[static_cast<std::size_t>(v)].set(
        dst_->vcFree[static_cast<std::size_t>(v)].get());
}

void Link::reverseVcAck() {
  for (int v = 0; v < numVCs_; ++v)
    src_->vcAck[static_cast<std::size_t>(v)].set(
        dst_->vcAck[static_cast<std::size_t>(v)].get());
}

void Link::onReset() { flitsTransferred_ = 0; }

void Link::clockEdge() {
  // With VCs a scheduled flit always transfers: the sender only raises val
  // toward a VC with advertised space or an in-hand credit.
  const bool transferred =
      (flowControl_ == FlowControl::Handshake && numVCs_ == 1)
          ? (src_->val.get() && src_->ack.get())
          : src_->val.get();
  if (transferred) {
    ++flitsTransferred_;
    onTransfer(src_->flit.bop.get());
  }
}

// --- compiled-kernel lowering ------------------------------------------
//
// A link copies whole fields between the two channel words
// (router/vc_arena.hpp), one op per direction: flit + val + vc downstream,
// ack (single VC) or the vcFree levels and vcAck pulses (VCs) upstream.
// Fusing the directions would tie the downstream val driver to the
// downstream ack reader and manufacture a false combinational cycle
// through the receiving router's flow controller.

namespace {

// Field copies between two packed words: src -> dst downstream, dst ->
// src upstream.
struct LinkCopyCtx {
  std::uint32_t src = 0, dst = 0;
  std::uint64_t mask = 0;
};

void linkCopyDown(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<LinkCopyCtx*>(vctx);
  sim::opCopyBits(w, c->dst, c->src, c->mask);
}

void linkCopyUp(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<LinkCopyCtx*>(vctx);
  sim::opCopyBits(w, c->src, c->dst, c->mask);
}

// A flit transferred when every bit of `need` is set in the source word.
struct LinkEdgeCtx {
  std::uint32_t src = 0;
  std::uint64_t need = 0;
  std::uint64_t* flits = nullptr;
};

void linkEdge(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<LinkEdgeCtx*>(vctx);
  if ((w[c->src] & c->need) == c->need) ++*c->flits;
}

}  // namespace

bool Link::describe(sim::Lowering& lw) {
  LinkCopyCtx copy;
  copy.src = vcarena::channelWord(lw, *src_, numVCs_);
  copy.dst = vcarena::channelWord(lw, *dst_, numVCs_);
  copy.mask = vcarena::kForwardMask;
  lw.op(&linkCopyDown, lw.ctx(copy),
        {&src_->flit.data, &src_->flit.bop, &src_->flit.eop, &src_->val,
         &src_->vc},
        {&dst_->flit.data, &dst_->flit.bop, &dst_->flit.eop, &dst_->val,
         &dst_->vc});

  LinkEdgeCtx edge;
  edge.src = copy.src;
  edge.need = std::uint64_t{1} << vcarena::kVal;
  edge.flits = &flitsTransferred_;
  if (numVCs_ == 1) {
    copy.mask = std::uint64_t{1} << vcarena::kAck;
    lw.op(&linkCopyUp, lw.ctx(copy), {&dst_->ack}, {&src_->ack});
    // A handshake transfer also needs the receiver's ack (see clockEdge()).
    if (flowControl_ == FlowControl::Handshake) edge.need |= copy.mask;
    lw.edgeOp(&linkEdge, lw.ctx(edge));
    return true;
  }

  // The two VC reverse fields need separate ops: under credit flow control
  // vcAck is driven from the receiver's rd, which the receiver computes
  // from the vcFree of the next hop, so one op carrying both would close a
  // cycle through neighbouring routers.
  std::vector<const sim::WireBase*> freeIn, freeOut, ackIn, ackOut;
  for (int v = 0; v < numVCs_; ++v) {
    freeIn.push_back(&dst_->vcFree[static_cast<std::size_t>(v)]);
    freeOut.push_back(&src_->vcFree[static_cast<std::size_t>(v)]);
    ackIn.push_back(&dst_->vcAck[static_cast<std::size_t>(v)]);
    ackOut.push_back(&src_->vcAck[static_cast<std::size_t>(v)]);
  }
  copy.mask = vcarena::kFreeMask;
  lw.op(&linkCopyUp, lw.ctx(copy), std::move(freeIn), std::move(freeOut));
  // vcAck pulses exist only under credit flow control; on/off links never
  // see one.
  if (flowControl_ == FlowControl::CreditBased) {
    copy.mask = vcarena::kVcAckMask;
    lw.op(&linkCopyUp, lw.ctx(copy), std::move(ackIn), std::move(ackOut));
  }
  lw.edgeOp(&linkEdge, lw.ctx(edge));
  return true;
}

}  // namespace rasoc::router
