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
}

void InputChannel::onReset() { flitsAccepted_ = 0; }

template <bool kMetrics, class Io>
void InputChannel::edge(const Io& io) {
  const bool accepted = io.wr() && !ib_->full();
  if (accepted) ++flitsAccepted_;
  if constexpr (kMetrics) {
    if (metrics_.flitsAccepted && accepted) metrics_.flitsAccepted->inc();
    if (metrics_.fullCycles && ib_->full()) metrics_.fullCycles->inc();
    if (metrics_.stallCycles && io.rok() && !io.rd())
      metrics_.stallCycles->inc();
    if (metrics_.occupancy)
      metrics_.occupancy->observe(static_cast<double>(ib_->occupancy()));
  }
}

// --- compiled-kernel lowering ------------------------------------------
//
// The IFC + IB + IC + IRS (+ credit tap) subtree lowers to three arena ops
// plus one edge op, each calling the blocks' own bodies through ArenaIo:
//
//   publish  - IB publish (wok/rok/dout from registered FIFO state), then
//              IC routing (x_dout/x_rok/x_req).  Reads nothing
//              combinational, so it levelizes to the front.
//   flowCtl  - the IFC: wr (and, under handshake, in_ack) from in_val/wok.
//   readSw   - the IRS OR-reduce of gnt&rd (plus, under credit flow
//              control, the credit-return pulse on in_ack).  Kept separate
//              from flowCtl: fusing them would tie the in_ack driver to the
//              gnt/rd readers and manufacture a false combinational cycle
//              through the neighbouring router's ack chain.
//   edge     - the channel's accounting, then the IB commit: the
//              clockEdgeAll() order, so accounting sees pre-commit state.

struct InputChannel::WireIo {
  const InputChannel& ch;

  bool wr() const { return ch.wr_.get(); }
  bool rok() const { return ch.rok_.get(); }
  bool rd() const { return ch.rd_.get(); }
};

struct InputChannel::ArenaCtx {
  InputChannel* self = nullptr;
  std::uint32_t link = 0;   // channel word of the input link
  std::uint32_t block = 0;  // port block: control word, then the bundle
  std::uint32_t nets = 0;   // the nets between the blocks
};

// Every signal the channel's blocks read or drive, over the packed words.
struct InputChannel::ArenaIo {
  std::uint64_t* w;
  const ArenaCtx* c;

  // The input link.
  bool inVal() const { return vcarena::bitAt(w, c->link, vcarena::kVal); }
  Flit inFlit() const { return vcarena::bitsFlit(w[c->link]); }
  void putInAck(bool v) const {
    vcarena::putBitAt(w, c->link, vcarena::kAck, v);
  }
  // The crossbar: grant and read strobes as port masks, and the bundle.
  unsigned grants() const { return strobes(0); }
  unsigned reads() const { return strobes(vcarena::kRd); }
  void putXbar(bool rok, unsigned req, const Flit& f) const {
    sim::opPutBits(w, c->block + 1, sim::fieldMask(vcarena::kWant),
                   vcarena::flitBits(f) |
                       (std::uint64_t{rok} << vcarena::kRok) |
                       (std::uint64_t{req} << vcarena::kReq));
  }
  // The nets between the blocks.
  bool wok() const { return net(vcarena::kWok); }
  bool rok() const { return net(vcarena::kRokNet); }
  bool wr() const { return net(vcarena::kWr); }
  bool rd() const { return net(vcarena::kRdNet); }
  Flit dout() const { return vcarena::bitsFlit(w[c->nets]); }
  void putWok(bool v) const { putNet(vcarena::kWok, v); }
  void putRok(bool v) const { putNet(vcarena::kRokNet, v); }
  void putWr(bool v) const { putNet(vcarena::kWr, v); }
  void putRd(bool v) const { putNet(vcarena::kRdNet, v); }
  void putDout(const Flit& f) const {
    sim::opPutBits(w, c->nets, vcarena::kFlitMask, vcarena::flitBits(f));
  }

 private:
  unsigned strobes(unsigned shift) const {
    return static_cast<unsigned>(w[c->block] >> shift) & vcarena::kPortMask;
  }
  bool net(unsigned shift) const { return vcarena::bitAt(w, c->nets, shift); }
  void putNet(unsigned shift, bool v) const {
    vcarena::putBitAt(w, c->nets, shift, v);
  }
};

template <class Io>
void InputChannel::runEdge(const Io& io) {
  if (metricsAttached_)
    edge<true>(io);
  else
    edge<false>(io);
}

void InputChannel::clockEdge() { runEdge(WireIo{*this}); }

bool InputChannel::describe(sim::Lowering& lw) {
  ArenaCtx proto;
  proto.self = this;
  proto.link = vcarena::channelWord(lw, *in_, 1);
  proto.block = vcarena::portBlock(lw, {xbar_, 1});
  proto.nets = lw.packedWord({{ibDout_.data, 0},
                              {ibDout_.bop, vcarena::kBop},
                              {ibDout_.eop, vcarena::kEop},
                              {wok_, vcarena::kWok},
                              {rok_, vcarena::kRokNet},
                              {wr_, vcarena::kWr},
                              {rd_, vcarena::kRdNet}});
  ArenaCtx* ctx = lw.ctx(proto);

  std::vector<const sim::WireBase*> pubWrites = {
      &wok_,          &rok_,          &ibDout_.data,      &ibDout_.bop,
      &ibDout_.eop,   &xbar_->rok,    &xbar_->flit.data,  &xbar_->flit.bop,
      &xbar_->flit.eop};
  for (const auto& req : xbar_->req) pubWrites.push_back(&req);
  lw.op(
      [](std::uint64_t* w, void* c) {
        auto* x = static_cast<ArenaCtx*>(c);
        const ArenaIo io{w, x};
        x->self->ib_->publish(io);
        x->self->ic_.route(io);
      },
      ctx, {}, std::move(pubWrites));

  const bool credit = creditTap_ != nullptr;
  std::vector<const sim::WireBase*> flowReads = {&in_->val};
  std::vector<const sim::WireBase*> flowWrites = {&wr_};
  if (!credit) {
    flowReads.push_back(&wok_);
    flowWrites.push_back(&in_->ack);
  }
  lw.op(
      [](std::uint64_t* w, void* c) {
        auto* x = static_cast<ArenaCtx*>(c);
        x->self->ifc_.flow(ArenaIo{w, x});
      },
      ctx, std::move(flowReads), std::move(flowWrites));

  std::vector<const sim::WireBase*> rsReads;
  for (int o = 0; o < kNumPorts; ++o) {
    rsReads.push_back(&xbar_->gnt[static_cast<std::size_t>(o)]);
    rsReads.push_back(&xbar_->rd[static_cast<std::size_t>(o)]);
  }
  std::vector<const sim::WireBase*> rsWrites = {&rd_};
  if (credit) {
    rsReads.push_back(&rok_);
    rsWrites.push_back(&in_->ack);
  }
  lw.op(
      [](std::uint64_t* w, void* c) {
        auto* x = static_cast<ArenaCtx*>(c);
        const ArenaIo io{w, x};
        x->self->irs_.select(io);
        if (x->self->creditTap_) x->self->creditTap_->pulse(io);
      },
      ctx, std::move(rsReads), std::move(rsWrites));

  lw.edgeOp(
      [](std::uint64_t* w, void* c) {
        auto* x = static_cast<ArenaCtx*>(c);
        const ArenaIo io{w, x};
        x->self->runEdge(io);
        x->self->ib_->edge(io);
      },
      ctx);
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

struct VcInputChannel::WireIo {
  const VcInputChannel& ch;

  // Port masks (bit o) of the outputs granting / reading VC v.
  unsigned grants(int v) const { return strobes(v, &CrossbarWires::gnt); }
  unsigned reads(int v) const { return strobes(v, &CrossbarWires::rd); }
  // The link: val, target VC and the offered flit (packed).
  bool inVal() const { return ch.in_->val.get(); }
  int inVc() const { return ch.in_->vc.get(); }
  std::uint64_t inFlit() const {
    return vcarena::flitBits(readFlit(ch.in_->flit));
  }
  // Per-VC levels (bit v) driven back up the link.
  void putFree(unsigned vcs) const { putLevels(ch.in_->vcFree, vcs); }
  void putAcks(unsigned vcs) const { putLevels(ch.in_->vcAck, vcs); }
  // VC v's crossbar bundle; `req` is a port mask.
  void putBundle(int v, bool rok, unsigned req, unsigned want,
                 const Flit& f) const {
    CrossbarWires& x = (*ch.xbar_)[static_cast<std::size_t>(v)];
    x.rok.set(rok);
    for (int o = 0; o < kNumPorts; ++o)
      x.req[static_cast<std::size_t>(o)].set(((req >> o) & 1u) != 0);
    x.want.set(static_cast<int>(want));
    driveFlit(x.flit, f);
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
  std::uint64_t inFlit() const { return w[c->link] & vcarena::kFlitMask; }
  void putFree(unsigned vcs) const {
    sim::opPutBits(w, c->link, vcarena::kFreeMask,
                   std::uint64_t{vcs} << vcarena::kFree);
  }
  void putAcks(unsigned vcs) const {
    sim::opPutBits(w, c->link, vcarena::kVcAckMask,
                   std::uint64_t{vcs} << vcarena::kVcAck);
  }
  void putBundle(int v, bool rok, unsigned req, unsigned want,
                 const Flit& f) const {
    sim::opPutBits(w, c->block + 1 + static_cast<std::uint32_t>(v),
                   vcarena::kBundleMask,
                   vcarena::flitBits(f) |
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
      fifo_(params.numVCs, params.p) {}

void VcInputChannel::attachMetrics(const VcInputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
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

template <class Io>
void VcInputChannel::runEdge(const Io& io) {
  if (metricsAttached_)
    edge<true>(io);
  else
    edge<false>(io);
}

void VcInputChannel::clockEdge() { runEdge(WireIo{*this}); }

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

    Flit head = vcarena::bitsFlit(size > 0 ? fifo_.head(v) : 0);
    const std::uint32_t data = head.data;
    const bool headerVisible = size > 0 && head.bop;
    unsigned req = 0;
    unsigned want = 0;
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
      head.data =
          updateHeader(data, consumeHop(rib, target), params_.m) & dataMask_;
      if (target == ownPort_) misroute_ = true;
      req = 1u << index(target);
    }
    io.putBundle(v, size > 0, req, want, head);
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
    if (size > 0 && vcarena::bitsFlit(fifo_.head(v)).bop && granted == 0) {
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
  proto.block = vcarena::portBlock(
      lw, std::span<const CrossbarWires>(*xbar_).first(
              static_cast<std::size_t>(numVCs_)));
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
  lw.edgeOp(
      [](std::uint64_t* w, void* c) {
        auto* x = static_cast<ArenaCtx*>(c);
        x->self->runEdge(ArenaIo{w, x});
      },
      ctx);
  return true;
}

}  // namespace rasoc::router
