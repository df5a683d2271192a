#include "router/input_channel.hpp"

#include <algorithm>
#include <bit>

#include "sim/compile.hpp"

#include "router/vc_arena.hpp"

namespace rasoc::router {

namespace {
// Settle cycles an adaptive header tries one route option before the
// patience rotation moves it to the next (the escape option is last and
// sticky, so every starved header eventually bids only its escape path).
constexpr int kVcPatienceWindow = 4;
constexpr int kVcPatienceCap = 1 << 20;

// Under qosClasses the window scales with the header's class: a high class
// owns (or nearly owns) its adaptive lane, so its bid is served quickly in
// the common case and rotating onto the escape layer — a class-blind FIFO
// that a Bulk flood keeps full — would be the dominant source of its tail
// latency.  Low classes keep the base window: their lanes saturate first
// and the escape fallback is how they drain.  Every window stays finite,
// so the Duato escape guarantee (DESIGN.md §12/§13) is unchanged.
constexpr int qosPatienceWindow(TrafficClass cls) {
  return kVcPatienceWindow << (2 * static_cast<int>(cls));
}
}  // namespace

InputChannel::InputChannel(std::string name, const RouterParams& params,
                           Port ownPort, FlowControl flowControl,
                           ChannelWires& in, CrossbarWires& xbar)
    : Module(std::move(name)),
      ownPort_(ownPort),
      ifc_(this->name() + ".ifc", flowControl, in.val, wok_,
           flowControl == FlowControl::Handshake ? &in.ack : nullptr, wr_),
      ib_(InputBuffer::create(this->name() + ".ib", params, in.flit, wr_, rd_,
                              ibDout_, wok_, rok_)),
      ic_(this->name() + ".ic", params, ownPort, ibDout_, rok_, xbar),
      irs_(this->name() + ".irs", xbar, rd_),
      in_(&in),
      xbar_(&xbar) {
  addChild(ifc_);
  addChild(*ib_);
  addChild(ic_);
  addChild(irs_);
  if (flowControl == FlowControl::CreditBased) {
    // The channel ack wire becomes the credit-return line, pulsed when a
    // flit leaves the buffer.
    creditTap_ = std::make_unique<CreditReturnTap>(this->name() + ".credit",
                                                   rd_, rok_, in.ack);
    addChild(*creditTap_);
  }
}

void InputChannel::attachMetrics(const InputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
  // The compiled edge lowering depends on whether metrics accounting runs.
  noteDescribeChanged();
}

void InputChannel::clockEdge() {
  if (wr_.get() && !ib_->full()) ++flitsAccepted_;
  if (!metricsAttached_) return;
  if (metrics_.flitsAccepted && wr_.get() && !ib_->full())
    metrics_.flitsAccepted->inc();
  if (metrics_.fullCycles && ib_->full()) metrics_.fullCycles->inc();
  if (metrics_.stallCycles && rok_.get() && !rd_.get())
    metrics_.stallCycles->inc();
  if (metrics_.occupancy)
    metrics_.occupancy->observe(static_cast<double>(ib_->occupancy()));
}

// --- compiled-kernel lowering ------------------------------------------
//
// The whole IFC + IB + IC + IRS (+ credit tap) subtree lowers to three
// combinational arena ops plus one edge op:
//
//   publish  - IB evaluate() (wok/rok/dout from registered FIFO state) fused
//              with the IC routing function (x_dout/x_rok/x_req).  Reads
//              nothing combinational, so it levelizes to the front.
//   flowCtl  - the IFC: wr (and, under handshake, in_ack) from in_val/wok.
//   readSw   - the IRS OR-reduce of gnt&rd (plus, under credit flow
//              control, the credit-return pulse on in_ack).  Kept separate
//              from flowCtl: fusing them would tie the in_ack driver to the
//              gnt/rd readers and manufacture a false combinational cycle
//              through the neighbouring router's ack chain.
//   edge     - flit-accept counting plus the FIFO commit, reading wr/rd/din
//              from the settled arena exactly as clockEdge() reads wires.

// Each op carries exactly the slices it touches: op contexts are the
// interpreter's dominant memory traffic, so smaller structs mean fewer
// cache lines streamed per simulated cycle.

namespace {

struct InChanPublishCtx {
  // FIFO view (registered state, read directly).
  const Flit* slots = nullptr;
  const int* count = nullptr;
  const int* rptr = nullptr;  // null: shift register, head = slots[count-1]
  int depth = 0;
  // Routing parameters and observability sink.
  int m = 0;
  std::uint32_t mask = 0;
  RoutingAlgorithm routing = RoutingAlgorithm::XY;
  InputController* ic = nullptr;
  sim::Slice wok, rok, xrok;
  std::uint32_t doutWord = 0, xbarWord = 0;
  sim::Slice req[kNumPorts];
};

struct InChanFlowHsCtx {
  sim::Slice inVal, wok, inAck, wr;
};

struct InChanFlowCrCtx {
  sim::Slice inVal, wr;
};

struct InChanRsCtx {
  sim::Slice gnt[kNumPorts], rdIn[kNumPorts];
  sim::Slice rd;
};

struct InChanRsCrCtx {
  InChanRsCtx rs;
  sim::Slice rok, inAck;
};

struct InChanCommitCtx {
  InputBuffer* ib = nullptr;
  sim::Slice wr, rd;
  std::uint32_t inWord = 0;
};

struct InChanEdgeCtx {
  InChanCommitCtx commit;
  const int* count = nullptr;
  int depth = 0;
  std::uint64_t* flitsAccepted = nullptr;
};

// IB publish + IC routing (ic.cpp InputController::evaluate over the
// arena, with the buffer head read straight from the FIFO store).
void inChanPublish(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanPublishCtx*>(vctx);
  const int count = *c->count;
  const bool empty = count == 0;
  sim::opPutBit(w, c->wok, count < c->depth);
  sim::opPutBit(w, c->rok, !empty);
  Flit h;
  if (!empty) h = c->rptr ? c->slots[*c->rptr] : c->slots[count - 1];
  sim::opPutFlit(w, c->doutWord, h.data, h.bop, h.eop);

  const bool headerVisible = !empty && h.bop;
  Port target = Port::Local;
  std::uint32_t forwarded = h.data;
  if (headerVisible) {
    const Rib rib = decodeRib(h.data, c->m);
    target = route(c->routing, rib);
    forwarded = updateHeader(h.data, consumeHop(rib, target), c->m) & c->mask;
  }
  for (int o = 0; o < kNumPorts; ++o)
    sim::opPutBit(w, c->req[o], headerVisible && o == index(target));
  sim::opPutFlit(w, c->xbarWord, forwarded, h.bop, h.eop);
  sim::opPutBit(w, c->xrok, !empty);
  c->ic->noteDecision(headerVisible, target);
}

// IFC, handshake mode: accept when offered and space is available.
void inChanFlowHandshake(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanFlowHsCtx*>(vctx);
  const bool accept = sim::opBit(w, c->inVal) && sim::opBit(w, c->wok);
  sim::opPutBit(w, c->inAck, accept);
  sim::opPutBit(w, c->wr, accept);
}

// IFC, credit mode: space is guaranteed by the sender's credit counter.
void inChanFlowCredit(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanFlowCrCtx*>(vctx);
  sim::opPutBit(w, c->wr, sim::opBit(w, c->inVal));
}

inline bool irsRead(const std::uint64_t* w, const InChanRsCtx* c) {
  bool read = false;
  for (int o = 0; o < kNumPorts; ++o)
    read = read || (sim::opBit(w, c->gnt[o]) && sim::opBit(w, c->rdIn[o]));
  return read;
}

// IRS: connect the granted output's read command to the buffer.
void inChanReadSwitch(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanRsCtx*>(vctx);
  sim::opPutBit(w, c->rd, irsRead(w, c));
}

// IRS + credit-return tap: the ack wire pulses when a flit leaves.
void inChanReadSwitchCredit(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanRsCrCtx*>(vctx);
  const bool read = irsRead(w, &c->rs);
  sim::opPutBit(w, c->rs.rd, read);
  sim::opPutBit(w, c->inAck, read && sim::opBit(w, c->rok));
}

// FIFO commit only (the metrics path lets clockEdge() do the accounting).
void inChanCommit(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanCommitCtx*>(vctx);
  c->ib->commitEdge(sim::opBit(w, c->wr), sim::opBit(w, c->rd),
                    sim::opFlitData(w, c->inWord),
                    sim::opFlitBop(w, c->inWord),
                    sim::opFlitEop(w, c->inWord));
}

// Accept counting + FIFO commit, in clockEdgeAll() order (channel before
// buffer child, so the occupancy test sees pre-commit state).
void inChanEdge(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanEdgeCtx*>(vctx);
  if (sim::opBit(w, c->commit.wr) && *c->count < c->depth)
    ++*c->flitsAccepted;
  inChanCommit(w, &c->commit);
}

}  // namespace

bool InputChannel::describe(sim::Lowering& lw) {
  const InputBuffer::CompiledView view = ib_->compiledView();

  InChanPublishCtx pub;
  pub.slots = view.slots;
  pub.count = view.count;
  pub.rptr = view.rptr;
  pub.depth = ib_->depth();
  pub.m = ic_.ribBits();
  pub.mask = ic_.dataMaskValue();
  pub.routing = ic_.routingAlgorithm();
  pub.ic = &ic_;
  pub.wok = lw.bit(wok_);
  pub.rok = lw.bit(rok_);
  pub.xrok = lw.bit(xbar_->rok);
  pub.doutWord = lw.flitWord(ibDout_.data, ibDout_.bop, ibDout_.eop);
  pub.xbarWord = lw.flitWord(xbar_->flit.data, xbar_->flit.bop,
                             xbar_->flit.eop);
  for (int o = 0; o < kNumPorts; ++o) pub.req[o] = lw.bit(xbar_->req[o]);

  std::vector<const sim::WireBase*> pubWrites = {
      &wok_,          &rok_,          &ibDout_.data,      &ibDout_.bop,
      &ibDout_.eop,   &xbar_->rok,    &xbar_->flit.data,  &xbar_->flit.bop,
      &xbar_->flit.eop};
  for (int o = 0; o < kNumPorts; ++o) pubWrites.push_back(&xbar_->req[o]);
  lw.op(&inChanPublish, lw.ctx(pub), {}, std::move(pubWrites));

  InChanRsCtx rs;
  for (int o = 0; o < kNumPorts; ++o) {
    rs.gnt[o] = lw.bit(xbar_->gnt[o]);
    rs.rdIn[o] = lw.bit(xbar_->rd[o]);
  }
  rs.rd = lw.bit(rd_);

  std::vector<const sim::WireBase*> irsReads;
  for (int o = 0; o < kNumPorts; ++o) {
    irsReads.push_back(&xbar_->gnt[o]);
    irsReads.push_back(&xbar_->rd[o]);
  }
  if (creditTap_ == nullptr) {
    InChanFlowHsCtx flow;
    flow.inVal = lw.bit(in_->val);
    flow.wok = pub.wok;
    flow.inAck = lw.bit(in_->ack);
    flow.wr = lw.bit(wr_);
    lw.op(&inChanFlowHandshake, lw.ctx(flow), {&in_->val, &wok_},
          {&in_->ack, &wr_});
    lw.op(&inChanReadSwitch, lw.ctx(rs), std::move(irsReads), {&rd_});
  } else {
    InChanFlowCrCtx flow;
    flow.inVal = lw.bit(in_->val);
    flow.wr = lw.bit(wr_);
    lw.op(&inChanFlowCredit, lw.ctx(flow), {&in_->val}, {&wr_});
    InChanRsCrCtx rsc;
    rsc.rs = rs;
    rsc.rok = pub.rok;
    rsc.inAck = lw.bit(in_->ack);
    irsReads.push_back(&rok_);
    lw.op(&inChanReadSwitchCredit, lw.ctx(rsc), std::move(irsReads),
          {&rd_, &in_->ack});
  }

  InChanCommitCtx commit;
  commit.ib = ib_.get();
  commit.wr = lw.bit(wr_);
  commit.rd = rs.rd;
  commit.inWord = lw.flitWord(in_->flit.data, in_->flit.bop, in_->flit.eop);

  if (metricsAttached_) {
    lw.edgeCall(*this);  // accept counter + metrics via clockEdge()
    lw.edgeOp(&inChanCommit, lw.ctx(commit));
  } else {
    InChanEdgeCtx edge;
    edge.commit = commit;
    edge.count = view.count;
    edge.depth = ib_->depth();
    edge.flitsAccepted = &flitsAccepted_;
    lw.edgeOp(&inChanEdge, lw.ctx(edge));
  }
  return true;
}

// --- VcInputChannel --------------------------------------------------------
//
// Each phase (publish, credit return, edge) is one member template written
// over a small signal accessor: WireIo reads and drives the Wire objects
// (evaluate() / clockEdge(), hence the naive kernel), ArenaIo the packed
// words of router/vc_arena.hpp (the compiled kernel's ops).  The two
// accessors expose the same signals at the same granularity, so the
// kernels share every line of channel behaviour.

namespace {

std::uint64_t packFlit(std::uint32_t data, bool bop, bool eop) {
  return data | (std::uint64_t{bop} << sim::kFlitBopShift) |
         (std::uint64_t{eop} << sim::kFlitEopShift);
}

bool flitBop(std::uint64_t flit) {
  return ((flit >> sim::kFlitBopShift) & 1u) != 0;
}

}  // namespace

struct VcInputChannel::WireIo {
  const VcInputChannel& ch;

  // Port masks (bit o) of the outputs granting / reading VC v.
  unsigned grants(int v) const { return strobes(v, &CrossbarWires::gnt); }
  unsigned reads(int v) const { return strobes(v, &CrossbarWires::rd); }
  // The link: val, target VC and the offered flit (packed).
  bool inVal() const { return ch.in_->val.get(); }
  int inVc() const { return ch.in_->vc.get(); }
  std::uint64_t inFlit() const {
    const FlitWires& f = ch.in_->flit;
    return packFlit(f.data.get(), f.bop.get(), f.eop.get());
  }
  // Per-VC levels (bit v) driven back up the link.
  void putFree(unsigned vcs) const { putLevels(ch.in_->vcFree, vcs); }
  void putAcks(unsigned vcs) const { putLevels(ch.in_->vcAck, vcs); }
  // VC v's crossbar bundle; `req` is a port mask.
  void putBundle(int v, bool rok, unsigned req, unsigned want,
                 std::uint32_t data, bool bop, bool eop) const {
    CrossbarWires& x = (*ch.xbar_)[static_cast<std::size_t>(v)];
    x.rok.set(rok);
    for (int o = 0; o < kNumPorts; ++o)
      x.req[static_cast<std::size_t>(o)].set(((req >> o) & 1u) != 0);
    x.want.set(static_cast<int>(want));
    x.flit.data.set(data);
    x.flit.bop.set(bop);
    x.flit.eop.set(eop);
  }

 private:
  unsigned strobes(int v, std::array<sim::Wire<bool>, kNumPorts>
                              CrossbarWires::*net) const {
    const auto& wires = (*ch.xbar_)[static_cast<std::size_t>(v)].*net;
    unsigned mask = 0;
    for (int o = 0; o < kNumPorts; ++o)
      if (wires[static_cast<std::size_t>(o)].get()) mask |= 1u << o;
    return mask;
  }
  void putLevels(std::array<sim::Wire<bool>, kMaxVCs>& wires,
                 unsigned vcs) const {
    for (int v = 0; v < ch.numVCs_; ++v)
      wires[static_cast<std::size_t>(v)].set(((vcs >> v) & 1u) != 0);
  }
};

struct VcInputChannel::ArenaCtx {
  VcInputChannel* self = nullptr;
  std::uint32_t link = 0;   // channel word of the input link
  std::uint32_t block = 0;  // port block: control word, then VC bundles
};

struct VcInputChannel::ArenaIo {
  std::uint64_t* w;
  const ArenaCtx* c;

  unsigned grants(int v) const {
    return static_cast<unsigned>(w[c->block] >> (vcarena::kLane * v)) &
           vcarena::kPortMask;
  }
  unsigned reads(int v) const {
    return static_cast<unsigned>(w[c->block] >>
                                 (vcarena::kRd + vcarena::kLane * v)) &
           vcarena::kPortMask;
  }
  bool inVal() const { return ((w[c->link] >> vcarena::kVal) & 1u) != 0; }
  int inVc() const {
    return static_cast<int>((w[c->link] >> vcarena::kVc) &
                            sim::fieldMask(vcarena::kVcWidth));
  }
  std::uint64_t inFlit() const { return w[c->link] & sim::kFlitWordMask; }
  void putFree(unsigned vcs) const {
    sim::opPutBits(w, c->link, vcarena::kFreeMask,
                   std::uint64_t{vcs} << vcarena::kFree);
  }
  void putAcks(unsigned vcs) const {
    sim::opPutBits(w, c->link, vcarena::kAckMask,
                   std::uint64_t{vcs} << vcarena::kAck);
  }
  void putBundle(int v, bool rok, unsigned req, unsigned want,
                 std::uint32_t data, bool bop, bool eop) const {
    sim::opPutBits(w, c->block + 1 + static_cast<std::uint32_t>(v),
                   vcarena::kBundleMask,
                   packFlit(data, bop, eop) |
                       (std::uint64_t{rok} << vcarena::kRok) |
                       (std::uint64_t{req} << vcarena::kReq) |
                       (std::uint64_t{want} << vcarena::kWant));
  }
};

VcInputChannel::VcInputChannel(std::string name, const RouterParams& params,
                               Port ownPort, VcGeometry geometry,
                               ChannelWires& in,
                               std::array<CrossbarWires, kMaxVCs>& xbar)
    : Module(std::move(name)),
      params_(params),
      ownPort_(ownPort),
      flowControl_(params.flowControl),
      geometry_(geometry),
      numVCs_(params.numVCs),
      escapeVCs_(std::min(geometry.escapeVCs(), params.numVCs)),
      dataMask_(dataMask(params.n)),
      in_(&in),
      xbar_(&xbar),
      fifo_(params.numVCs, params.p) {
  // evaluate() reacts to the grant/read nets the output channels drive
  // from their (registered) connection tables.
  for (int v = 0; v < numVCs_; ++v) {
    CrossbarWires& xb = (*xbar_)[static_cast<std::size_t>(v)];
    for (int o = 0; o < kNumPorts; ++o) {
      sensitive(xb.gnt[static_cast<std::size_t>(o)]);
      sensitive(xb.rd[static_cast<std::size_t>(o)]);
    }
  }
}

void VcInputChannel::attachMetrics(const VcInputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
  // The compiled edge op is chosen by whether metrics accounting runs.
  noteDescribeChanged();
}

bool VcInputChannel::dequeueFired(int v) const {
  const WireIo io{*this};
  return fifo_.size(v) > 0 && (io.grants(v) & io.reads(v)) != 0;
}

void VcInputChannel::onReset() {
  fifo_.clear();
  patience_.fill(0);
  occupancySum_.fill(0);
  flitsAccepted_ = 0;
  misroute_ = false;
  overflow_ = false;
}

void VcInputChannel::evaluate() {
  const WireIo io{*this};
  publish(io);
  if (creditMode()) returnCredits(io);
}

void VcInputChannel::clockEdge() {
  if (metricsAttached_)
    edge<true>(WireIo{*this});
  else
    edge<false>(WireIo{*this});
}

template <class Io>
void VcInputChannel::returnCredits(const Io& io) {
  // Credit mode pulses the per-VC credit return as the flit leaves the
  // buffer.
  unsigned acks = 0;
  for (int v = 0; v < numVCs_; ++v) {
    if (fifo_.size(v) > 0 && (io.grants(v) & io.reads(v)) != 0)
      acks |= 1u << v;
  }
  io.putAcks(acks);
}

template <class Io>
void VcInputChannel::publish(const Io& io) {
  unsigned free = 0;
  for (int v = 0; v < numVCs_; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const int size = fifo_.size(v);
    // Upstream flow control: on/off advertises registered buffer space;
    // credit mode advertises link-up (the sender counts credits).
    if (creditMode() || size < params_.p) free |= 1u << v;

    const std::uint64_t head = size > 0 ? fifo_.head(v) : 0;
    const auto data = static_cast<std::uint32_t>(head);
    const bool bop = flitBop(head);
    const bool eop = ((head >> sim::kFlitEopShift) & 1u) != 0;
    const bool headerVisible = size > 0 && bop;
    unsigned req = 0;
    unsigned want = 0;
    std::uint32_t forwarded = data;
    if (headerVisible) {
      // A granted header forwards the RIB consumed for the hop actually
      // connected — the patience rotation may have moved the bid between
      // allocation and readout.  Grants are one-hot in practice; the
      // highest granted port wins.
      const unsigned granted = io.grants(v);
      const Rib rib = decodeRib(data, params_.m);
      Port target;
      if (granted != 0) {
        target = static_cast<Port>(std::bit_width(granted) - 1);
      } else {
        // Adaptive bids request the packet's whole adaptive VC set; under
        // QoS the header's class tag narrows it to the class's channels.
        int window = kVcPatienceWindow;
        unsigned adaptiveMask =
            ((1u << numVCs_) - 1u) & ~((1u << escapeVCs_) - 1u);
        if (params_.qosClasses) {
          const TrafficClass cls = decodeTrafficClass(data, params_.m);
          adaptiveMask = qosVcMask(cls, numVCs_, escapeVCs_);
          window = qosPatienceWindow(cls);
        }
        std::array<VcRouteOption, kNumPorts> options;
        const int count = vcRouteOptions(geometry_, rib, v >= escapeVCs_,
                                         params_.routing, adaptiveMask,
                                         options);
        const int idx = std::min(patience_[vi] / window, count - 1);
        target = options[static_cast<std::size_t>(idx)].port;
        want = options[static_cast<std::size_t>(idx)].want;
      }
      forwarded =
          updateHeader(data, consumeHop(rib, target), params_.m) & dataMask_;
      if (target == ownPort_) misroute_ = true;
      req = 1u << index(target);
    }
    io.putBundle(v, size > 0, req, want, forwarded, bop, eop);
  }
  io.putFree(free);
}

template <bool kMetrics, class Io>
void VcInputChannel::edge(const Io& io) {
  // Accept: the sender only schedules a VC with advertised space (on/off)
  // or an available credit, so a full target FIFO means broken flow
  // control — recorded sticky, never overwritten silently.
  if (io.inVal()) {
    const int v = io.inVc();
    if (v < 0 || v >= numVCs_ || fifo_.full(v)) {
      overflow_ = true;
    } else {
      fifo_.push(v, io.inFlit());
      ++flitsAccepted_;
      if (kMetrics && metrics_.flitsAccepted) metrics_.flitsAccepted->inc();
    }
  }

  bool anyFull = false;
  bool anyStall = false;
  for (int v = 0; v < numVCs_; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    // Granted by some output, and read out this edge.
    const unsigned granted = io.grants(v);
    const bool pop = (granted & io.reads(v)) != 0;
    // A pop strobe can only refer to a flit that was at the head pre-edge,
    // so popping after the accept push is safe: the push appended to the
    // back, and an empty pre-edge FIFO never had rd granted.
    if (fifo_.size(v) > 0 && pop) fifo_.pop(v);

    const int size = fifo_.size(v);
    if (size > 0 && flitBop(fifo_.head(v)) && granted == 0) {
      if (patience_[vi] < kVcPatienceCap) ++patience_[vi];
    } else {
      patience_[vi] = 0;
    }

    occupancySum_[vi] += static_cast<std::uint64_t>(size);
    anyFull = anyFull || size >= params_.p;
    anyStall = anyStall || (size > 0 && !pop);
    if (kMetrics && metrics_.occupancy[vi])
      metrics_.occupancy[vi]->observe(static_cast<double>(size));
  }
  if (kMetrics) {
    if (metrics_.fullCycles && anyFull) metrics_.fullCycles->inc();
    if (metrics_.stallCycles && anyStall) metrics_.stallCycles->inc();
  }
}

bool VcInputChannel::describe(sim::Lowering& lw) {
  ArenaCtx proto;
  proto.self = this;
  proto.link = vcarena::channelWord(lw, *in_, numVCs_);
  proto.block = vcarena::portBlock(lw, *xbar_, numVCs_);
  ArenaCtx* ctx = lw.ctx(proto);

  std::vector<const sim::WireBase*> grants;
  std::vector<const sim::WireBase*> grantsAndReads;
  std::vector<const sim::WireBase*> pubWrites;
  std::vector<const sim::WireBase*> acks;
  for (int v = 0; v < numVCs_; ++v) {
    CrossbarWires& xb = (*xbar_)[static_cast<std::size_t>(v)];
    for (int o = 0; o < kNumPorts; ++o) {
      grants.push_back(&xb.gnt[static_cast<std::size_t>(o)]);
      grantsAndReads.push_back(&xb.gnt[static_cast<std::size_t>(o)]);
      grantsAndReads.push_back(&xb.rd[static_cast<std::size_t>(o)]);
    }
    pubWrites.push_back(&in_->vcFree[static_cast<std::size_t>(v)]);
    pubWrites.push_back(&xb.rok);
    pubWrites.push_back(&xb.want);
    pubWrites.push_back(&xb.flit.data);
    pubWrites.push_back(&xb.flit.bop);
    pubWrites.push_back(&xb.flit.eop);
    for (int o = 0; o < kNumPorts; ++o)
      pubWrites.push_back(&xb.req[static_cast<std::size_t>(o)]);
    acks.push_back(&in_->vcAck[static_cast<std::size_t>(v)]);
  }
  lw.op(
      [](std::uint64_t* w, void* c) {
        auto* x = static_cast<ArenaCtx*>(c);
        x->self->publish(ArenaIo{w, x});
      },
      ctx, std::move(grants), std::move(pubWrites));
  if (creditMode())
    lw.op(
        [](std::uint64_t* w, void* c) {
          auto* x = static_cast<ArenaCtx*>(c);
          x->self->returnCredits(ArenaIo{w, x});
        },
        ctx, std::move(grantsAndReads), std::move(acks));
  if (metricsAttached_)
    lw.edgeOp(
        [](std::uint64_t* w, void* c) {
          auto* x = static_cast<ArenaCtx*>(c);
          x->self->edge<true>(ArenaIo{w, x});
        },
        ctx);
  else
    lw.edgeOp(
        [](std::uint64_t* w, void* c) {
          auto* x = static_cast<ArenaCtx*>(c);
          x->self->edge<false>(ArenaIo{w, x});
        },
        ctx);
  return true;
}

}  // namespace rasoc::router
