#include "router/output_channel.hpp"

#include <algorithm>
#include <bit>

#include "sim/compile.hpp"

#include "router/vc_arena.hpp"

namespace rasoc::router {

OutputChannel::OutputChannel(std::string name, const RouterParams& params,
                             Port ownPort,
                             std::array<CrossbarWires, kNumPorts>& xbar,
                             ChannelWires& out, ArbiterKind arbiter)
    : Module(std::move(name)),
      ownPort_(ownPort),
      oc_(this->name() + ".oc", ownPort, xbar, out.flit.eop, rokSel_, xRd_,
          connected_, sel_, arbiter),
      ods_(this->name() + ".ods", xbar, connected_, sel_, out.flit),
      ors_(this->name() + ".ors", xbar, connected_, sel_, rokSel_),
      out_(&out),
      flowControl_(params.flowControl),
      xbar_(&xbar) {
  addChild(oc_);
  addChild(ods_);
  addChild(ors_);
  if (params.flowControl == FlowControl::Handshake) {
    handshakeOfc_ = std::make_unique<Ofc>(this->name() + ".ofc", ownPort,
                                          rokSel_, out.ack, out.val, xRd_,
                                          xbar);
    addChild(*handshakeOfc_);
  } else {
    creditOfc_ = std::make_unique<CreditOfc>(this->name() + ".ofc", ownPort,
                                             params.p, rokSel_, out.ack,
                                             out.val, xRd_, xbar);
    addChild(*creditOfc_);
  }
}

void OutputChannel::attachMetrics(const OutputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
  // The compiled edge lowering depends on whether metrics accounting runs.
  noteDescribeChanged();
}

void OutputChannel::onReset() { flitsSent_ = 0; }

template <bool kMetrics, class Io>
void OutputChannel::edge(const Io& io) {
  const bool val = io.outVal();
  const bool transferred =
      flowControl_ == FlowControl::Handshake ? val && io.outAck() : val;
  if (transferred) ++flitsSent_;
  if constexpr (kMetrics) {
    if (transferred) {
      if (metrics_.flitsSent) metrics_.flitsSent->inc();
      if (metrics_.routerFlits) metrics_.routerFlits->inc();
    }
    if (metrics_.busyCycles && val) metrics_.busyCycles->inc();
    // Arbitration accounting, observed pre-edge: the OC grants this edge
    // iff it is idle and some input requests; a conflict cycle leaves at
    // least one requester waiting.
    const unsigned requests = io.requests();
    const int own = index(ownPort_);
    int waiting = 0;
    for (int i = 0; i < kNumPorts; ++i) {
      if (i == own) continue;
      if (((requests >> i) & 1u) != 0 &&
          !(oc_.isConnected() && oc_.selectedInput() == static_cast<Port>(i)))
        ++waiting;
    }
    if (!oc_.isConnected() && waiting > 0) {
      if (metrics_.grants) metrics_.grants->inc();
      --waiting;  // one requester is served by this edge's grant
    }
    if (metrics_.conflictCycles && waiting > 0)
      metrics_.conflictCycles->inc();
  }
}

// --- compiled-kernel lowering ------------------------------------------
//
// The OC + ODS + ORS + OFC subtree lowers to two arena ops plus one edge
// op, each calling the blocks' own bodies through ArenaIo:
//
//   publish  - OC publish (registered connection state onto the
//              connected/sel/gnt nets), the ODS flit mux, the ORS rok mux
//              and, under handshake flow control, the OFC's
//              out_val = rok_sel.
//   flowRsp  - the flow-control response: under handshake, out_ack fanned
//              out to x_rd and every input's rd line; under credit flow
//              control the credit-gated send driving out_val/x_rd/rd.
//   edge     - the channel's accounting, the OC arbitration step and, in
//              credit mode, the credit counter update: the clockEdgeAll()
//              order (channel, then OC, then OFC).

struct OutputChannel::WireIo {
  const OutputChannel& ch;

  bool outVal() const { return ch.out_->val.get(); }
  bool outAck() const { return ch.out_->ack.get(); }
  unsigned requests() const { return requestMask(*ch.xbar_, ch.ownPort_); }
};

struct OutputChannel::ArenaCtx {
  OutputChannel* self = nullptr;
  std::uint32_t link = 0;               // channel word of the output link
  std::uint32_t block[kNumPorts] = {};  // each input port's port block
  std::uint32_t nets = 0;               // the nets between the blocks
  unsigned own = 0;                     // index(ownPort_)
};

// Every signal the channel's blocks read or drive, over the packed words.
// Input i is the crossbar bundle of input port i.
struct OutputChannel::ArenaIo {
  std::uint64_t* w;
  const ArenaCtx* c;

  // The output link.
  bool outVal() const { return vcarena::bitAt(w, c->link, vcarena::kVal); }
  bool outAck() const { return vcarena::bitAt(w, c->link, vcarena::kAck); }
  bool outEop() const {
    return vcarena::bitAt(w, c->link, vcarena::kEop);
  }
  void putOutVal(bool v) const {
    vcarena::putBitAt(w, c->link, vcarena::kVal, v);
  }
  void putOutFlit(const Flit& f) const {
    sim::opPutBits(w, c->link, vcarena::kFlitMask, vcarena::flitBits(f));
  }
  // The crossbar; grants and requests are input-port masks.
  Flit xFlit(int i) const { return vcarena::bitsFlit(w[bundle(i)]); }
  bool xRok(int i) const { return vcarena::bitAt(w, bundle(i), vcarena::kRok); }
  unsigned requests() const {
    unsigned m = 0;
    for (int i = 0; i < kNumPorts; ++i)
      if (vcarena::bitAt(w, bundle(i), vcarena::kReq + c->own)) m |= 1u << i;
    return m;
  }
  void putGrants(unsigned inputs) const {
    for (int i = 0; i < kNumPorts; ++i)
      vcarena::putBitAt(w, c->block[i], c->own, ((inputs >> i) & 1u) != 0);
  }
  void putReads(bool v) const {
    for (int i = 0; i < kNumPorts; ++i)
      vcarena::putBitAt(w, c->block[i], vcarena::kRd + c->own, v);
  }
  // The nets between the blocks.
  bool connected() const { return net(vcarena::kConnected); }
  int sel() const {
    return static_cast<int>((w[c->nets] >> vcarena::kSel) &
                            sim::fieldMask(vcarena::kSelWidth));
  }
  bool rokSel() const { return net(vcarena::kRokSel); }
  bool xRd() const { return net(vcarena::kXRd); }
  void putConnected(bool v) const { putNet(vcarena::kConnected, v); }
  void putSel(int v) const {
    sim::opPutBits(w, c->nets,
                   sim::fieldMask(vcarena::kSelWidth) << vcarena::kSel,
                   static_cast<std::uint64_t>(v) << vcarena::kSel);
  }
  void putRokSel(bool v) const { putNet(vcarena::kRokSel, v); }
  void putXRd(bool v) const { putNet(vcarena::kXRd, v); }

 private:
  std::uint32_t bundle(int i) const { return c->block[i] + 1; }
  bool net(unsigned shift) const { return vcarena::bitAt(w, c->nets, shift); }
  void putNet(unsigned shift, bool v) const {
    vcarena::putBitAt(w, c->nets, shift, v);
  }
};

void OutputChannel::clockEdge() {
  if (metricsAttached_)
    edge<true>(WireIo{*this});
  else
    edge<false>(WireIo{*this});
}

bool OutputChannel::describe(sim::Lowering& lw) {
  const bool handshake = flowControl_ == FlowControl::Handshake;
  const auto own = static_cast<std::size_t>(index(ownPort_));

  ArenaCtx proto;
  proto.self = this;
  proto.link = vcarena::channelWord(lw, *out_, 1);
  for (int i = 0; i < kNumPorts; ++i)
    proto.block[i] =
        vcarena::portBlock(lw, {&(*xbar_)[static_cast<std::size_t>(i)], 1});
  proto.nets = lw.packedWord({{connected_, vcarena::kConnected},
                              {rokSel_, vcarena::kRokSel},
                              {xRd_, vcarena::kXRd},
                              {sel_, vcarena::kSel, vcarena::kSelWidth}});
  proto.own = static_cast<unsigned>(own);
  ArenaCtx* ctx = lw.ctx(proto);

  std::vector<const sim::WireBase*> pubReads;
  std::vector<const sim::WireBase*> pubWrites = {
      &connected_,      &sel_,           &out_->flit.data,
      &out_->flit.bop,  &out_->flit.eop, &rokSel_};
  std::vector<const sim::WireBase*> rspWrites = {&xRd_};
  for (CrossbarWires& x : *xbar_) {
    pubReads.push_back(&x.flit.data);
    pubReads.push_back(&x.flit.bop);
    pubReads.push_back(&x.flit.eop);
    pubReads.push_back(&x.rok);
    pubWrites.push_back(&x.gnt[own]);
    rspWrites.push_back(&x.rd[own]);
  }
  if (handshake) pubWrites.push_back(&out_->val);
  lw.op(
      [](std::uint64_t* w, void* c) {
        auto* x = static_cast<ArenaCtx*>(c);
        const ArenaIo io{w, x};
        OutputChannel& ch = *x->self;
        ch.oc_.publish(io);
        ch.ods_.mux(io);
        ch.ors_.select(io);
        if (ch.handshakeOfc_) ch.handshakeOfc_->offer(io);
      },
      ctx, std::move(pubReads), std::move(pubWrites));

  if (handshake) {
    lw.op(
        [](std::uint64_t* w, void* c) {
          auto* x = static_cast<ArenaCtx*>(c);
          x->self->handshakeOfc_->respond(ArenaIo{w, x});
        },
        ctx, {&out_->ack}, std::move(rspWrites));
  } else {
    rspWrites.push_back(&out_->val);
    lw.op(
        [](std::uint64_t* w, void* c) {
          auto* x = static_cast<ArenaCtx*>(c);
          x->self->creditOfc_->send(ArenaIo{w, x});
        },
        ctx, {&rokSel_}, std::move(rspWrites));
  }

  if (metricsAttached_)
    lw.edgeOp(
        [](std::uint64_t* w, void* c) {
          auto* x = static_cast<ArenaCtx*>(c);
          const ArenaIo io{w, x};
          OutputChannel& ch = *x->self;
          ch.edge<true>(io);
          ch.oc_.edge(io);
          if (ch.creditOfc_) ch.creditOfc_->edge(io);
        },
        ctx);
  else
    lw.edgeOp(
        [](std::uint64_t* w, void* c) {
          auto* x = static_cast<ArenaCtx*>(c);
          const ArenaIo io{w, x};
          OutputChannel& ch = *x->self;
          ch.edge<false>(io);
          ch.oc_.edge(io);
          if (ch.creditOfc_) ch.creditOfc_->edge(io);
        },
        ctx);
  return true;
}

// --- VcOutputChannel -------------------------------------------------------

namespace {

// VC allocation requesters: one slot per (input port, input VC) pair.
constexpr int kVcSlots = kNumPorts * kMaxVCs;
static_assert(kVcSlots <= 32, "requester slots must fit a 32-bit mask");

// First set bit of `candidates` at or after `start`, wrapping around the
// slot space: the order of a round-robin scan starting at `start`.
int roundRobinSlot(std::uint32_t candidates, int start) {
  constexpr std::uint32_t kAll = (std::uint32_t{1} << kVcSlots) - 1;
  const std::uint32_t rotated =
      ((candidates >> start) | (candidates << (kVcSlots - start))) & kAll;
  return (start + std::countr_zero(rotated)) % kVcSlots;
}

}  // namespace

// Signal accessors for the phase bodies (see the VcInputChannel notes in
// input_channel.cpp): WireIo over the Wire objects, ArenaIo over the packed
// words of router/vc_arena.hpp.  Input (i, v) is crossbar bundle v of input
// port i; `vcs` arguments are masks with bit v per VC.
struct VcOutputChannel::WireIo {
  const VcOutputChannel& ch;

  bool rok(int i, int v) const { return bundle(i, v).rok.get(); }
  // Input (i, v) requests this output; `want` is read only when it does.
  bool requests(int i, int v) const {
    return bundle(i, v).req[static_cast<std::size_t>(index(ch.ownPort_))]
        .get();
  }
  unsigned want(int i, int v) const {
    return static_cast<unsigned>(bundle(i, v).want.get());
  }
  unsigned vcFree() const { return levels(ch.out_->vcFree); }
  unsigned vcAcks() const { return levels(ch.out_->vcAck); }
  bool outVal() const { return ch.out_->val.get(); }
  int outVc() const { return ch.out_->vc.get(); }
  bool outEop() const { return ch.out_->flit.eop.get(); }
  void putGrants(int i, unsigned vcs) const {
    putStrobes(i, &CrossbarWires::gnt, vcs);
  }
  void putReads(int i, unsigned vcs) const {
    putStrobes(i, &CrossbarWires::rd, vcs);
  }
  // Drives input (i, v)'s flit onto the link as downstream VC d (the VC
  // data switch), or nothing.
  void putLink(int i, int v, int d) const {
    driveFlit(ch.out_->flit, readFlit(bundle(i, v).flit));
    ch.out_->vc.set(d);
    ch.out_->val.set(true);
  }
  void putIdle() const {
    driveFlit(ch.out_->flit, Flit{});
    ch.out_->vc.set(0);
    ch.out_->val.set(false);
  }

 private:
  CrossbarWires& bundle(int i, int v) const {
    return (*ch.xbar_)[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(v)];
  }
  unsigned levels(const std::array<sim::Wire<bool>, kMaxVCs>& wires) const {
    unsigned mask = 0;
    for (int d = 0; d < ch.numVCs_; ++d)
      if (wires[static_cast<std::size_t>(d)].get()) mask |= 1u << d;
    return mask;
  }
  void putStrobes(int i,
                  std::array<sim::Wire<bool>, kNumPorts> CrossbarWires::*net,
                  unsigned vcs) const {
    const auto own = static_cast<std::size_t>(index(ch.ownPort_));
    for (int v = 0; v < ch.numVCs_; ++v)
      (bundle(i, v).*net)[own].set(((vcs >> v) & 1u) != 0);
  }
};

struct VcOutputChannel::ArenaCtx {
  VcOutputChannel* self = nullptr;
  std::uint32_t link = 0;                // channel word of the output link
  std::uint32_t block[kNumPorts] = {};  // each input port's port block
  unsigned own = 0;                      // index(ownPort_)
};

struct VcOutputChannel::ArenaIo {
  std::uint64_t* w;
  const ArenaCtx* c;

  bool rok(int i, int v) const { return bit(bundle(i, v), vcarena::kRok); }
  bool requests(int i, int v) const {
    return bit(bundle(i, v), vcarena::kReq + c->own);
  }
  unsigned want(int i, int v) const {
    return field(bundle(i, v), vcarena::kWant, kMaxVCs);
  }
  unsigned vcFree() const {
    return field(w[c->link], vcarena::kFree, kMaxVCs);
  }
  unsigned vcAcks() const {
    return field(w[c->link], vcarena::kVcAck, kMaxVCs);
  }
  bool outVal() const { return bit(w[c->link], vcarena::kVal); }
  int outVc() const {
    return static_cast<int>(field(w[c->link], vcarena::kVc,
                                  vcarena::kVcWidth));
  }
  bool outEop() const { return bit(w[c->link], vcarena::kEop); }
  void putGrants(int i, unsigned vcs) const { putLanes(i, c->own, vcs); }
  void putReads(int i, unsigned vcs) const {
    putLanes(i, vcarena::kRd + c->own, vcs);
  }
  void putLink(int i, int v, int d) const {
    sim::opPutBits(w, c->link, vcarena::kForwardMask,
                   (bundle(i, v) & vcarena::kFlitMask) |
                       (std::uint64_t{1} << vcarena::kVal) |
                       (static_cast<std::uint64_t>(d) << vcarena::kVc));
  }
  void putIdle() const {
    sim::opPutBits(w, c->link, vcarena::kForwardMask, 0);
  }

 private:
  static bool bit(std::uint64_t word, unsigned shift) {
    return ((word >> shift) & 1u) != 0;
  }
  static unsigned field(std::uint64_t word, unsigned shift, unsigned width) {
    return static_cast<unsigned>((word >> shift) & sim::fieldMask(width));
  }
  std::uint64_t bundle(int i, int v) const {
    return w[c->block[i] + 1 + static_cast<std::uint32_t>(v)];
  }
  // This output's strobe in every VC lane of input port i's control word.
  void putLanes(int i, unsigned shift, unsigned vcs) const {
    constexpr std::uint64_t kAllLanes =
        vcarena::kLaneSpread[(1u << kMaxVCs) - 1];
    sim::opPutBits(w, c->block[i], kAllLanes << shift,
                   vcarena::kLaneSpread[vcs] << shift);
  }
};

VcOutputChannel::VcOutputChannel(
    std::string name, const RouterParams& params, Port ownPort,
    VcGeometry geometry,
    std::array<std::array<CrossbarWires, kMaxVCs>, kNumPorts>& xbar,
    ChannelWires& out)
    : Module(std::move(name)),
      params_(params),
      ownPort_(ownPort),
      flowControl_(params.flowControl),
      numVCs_(params.numVCs),
      escapeVCs_(std::min(geometry.escapeVCs(), params.numVCs)),
      out_(&out),
      xbar_(&xbar) {
  if (creditMode()) credits_.reset(numVCs_, params.p);
}

void VcOutputChannel::attachMetrics(const VcOutputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
  // The compiled edge op is chosen by whether metrics accounting runs.
  noteDescribeChanged();
}

void VcOutputChannel::onReset() {
  conn_.fill(Conn{});
  rrNext_.fill(0);
  schedRR_ = 0;
  starve_.fill(0);
  if (creditMode()) credits_.reset(numVCs_, params_.p);
  flitsSent_ = 0;
  vcFlitsSent_.fill(0);
}

template <class Io>
bool VcOutputChannel::schedulable(const Io& io, unsigned free, int d) const {
  const Conn& c = conn_[static_cast<std::size_t>(d)];
  if (!c.active) return false;
  if (!io.rok(c.inPort, c.inVc)) return false;
  if (((free >> d) & 1u) == 0) return false;
  if (creditMode() && !credits_.available(d)) return false;
  return true;
}

void VcOutputChannel::evaluate() {
  const WireIo io{*this};
  publishGrants(io);
  scheduleLink(io);
}

void VcOutputChannel::clockEdge() {
  if (metricsAttached_)
    edge<true>(WireIo{*this});
  else
    edge<false>(WireIo{*this});
}

std::uint32_t VcOutputChannel::connectedSlots() const {
  std::uint32_t slots = 0;
  for (int d = 0; d < numVCs_; ++d) {
    const Conn& c = conn_[static_cast<std::size_t>(d)];
    if (c.active) slots |= 1u << (c.inPort * kMaxVCs + c.inVc);
  }
  return slots;
}

template <class Io>
void VcOutputChannel::publishGrants(const Io& io) {
  // Grants come from the registered connection table alone.
  const std::uint32_t granted = connectedSlots();
  for (int i = 0; i < kNumPorts; ++i)
    io.putGrants(i, (granted >> (i * kMaxVCs)) & sim::fieldMask(kMaxVCs));
}

template <class Io>
void VcOutputChannel::scheduleLink(const Io& io) {
  // Schedule one connected, ready, non-blocked downstream VC onto the
  // physical link.  vcFree is the receiver's space advertisement (on/off) or
  // the link-up level (credit mode, masked low by a faulted link), so a
  // scheduled flit always lands: the transfer is unconditional.  Chosen
  // before any wire is driven so every wire below is set exactly once per
  // pass — a drive-low-then-raise sequence would trip the settle loop's
  // change flag on every iteration and never reach a fixpoint.
  //
  // Policy: round-robin by default; under qosClasses, strict priority by
  // downstream VC index (descending — the class→VC map puts higher classes
  // on higher VCs) unless some VC's starvation counter crossed
  // kQosStarvationWindow, in which case the lowest-index starved VC wins so
  // escape VCs are always served within a bounded interval.
  const unsigned free = io.vcFree();
  int sched = -1;
  if (params_.qosClasses) {
    int starved = -1;
    for (int d = numVCs_ - 1; d >= 0; --d) {
      if (!schedulable(io, free, d)) continue;
      if (sched < 0) sched = d;
      if (starve_[static_cast<std::size_t>(d)] >= kQosStarvationWindow)
        starved = d;  // descending loop: the last hit is the lowest index
    }
    if (starved >= 0) sched = starved;
  } else {
    for (int step = 0; step < numVCs_ && sched < 0; ++step) {
      const int d = (schedRR_ + step) % numVCs_;
      if (schedulable(io, free, d)) sched = d;
    }
  }
  const Conn* sc =
      sched >= 0 ? &conn_[static_cast<std::size_t>(sched)] : nullptr;

  // Read strobe of the scheduled source (all other strobes low).
  for (int i = 0; i < kNumPorts; ++i)
    io.putReads(i, sc && sc->inPort == i ? 1u << sc->inVc : 0u);
  if (sc)
    io.putLink(sc->inPort, sc->inVc, sched);
  else
    io.putIdle();
}

template <bool kMetrics, class Io>
void VcOutputChannel::edge(const Io& io) {
  const int own = index(ownPort_);
  const bool val = io.outVal();
  const unsigned free = io.vcFree();

  // 0. QoS starvation accounting, from pre-commit wire state (credits_ not
  //    yet burned): a VC that could have sent but was not scheduled ages by
  //    one edge; a served or ineligible VC resets.  Bounded so a VC parked
  //    behind a full receiver cannot overflow the counter.
  if (params_.qosClasses) {
    const int servedVc = val ? io.outVc() : -1;
    for (int d = 0; d < numVCs_; ++d) {
      auto& age = starve_[static_cast<std::size_t>(d)];
      if (schedulable(io, free, d) && d != servedVc) {
        if (age <= kQosStarvationWindow) ++age;
      } else {
        age = 0;
      }
    }
  }

  // 1. Commit the scheduled transfer: count, burn a credit, tear the
  //    connection down on the tail flit and advance the link RR.
  if (val) {
    const int d = io.outVc();
    ++flitsSent_;
    ++vcFlitsSent_[static_cast<std::size_t>(d)];
    if (creditMode()) credits_.onSent(d);
    if (io.outEop()) conn_[static_cast<std::size_t>(d)].active = false;
    schedRR_ = (d + 1) % numVCs_;
    if (kMetrics) {
      if (metrics_.flitsSent) metrics_.flitsSent->inc();
      if (metrics_.routerFlits) metrics_.routerFlits->inc();
      if (metrics_.vcFlits[static_cast<std::size_t>(d)])
        metrics_.vcFlits[static_cast<std::size_t>(d)]->inc();
    }
  }
  if (kMetrics && metrics_.busyCycles && val) metrics_.busyCycles->inc();

  // 2. Per-VC credit returns (pulses from the receiver; a faulted link
  //    passes these through even while down, so no credit is ever lost).
  if (creditMode()) {
    const unsigned acks = io.vcAcks();
    for (int d = 0; d < numVCs_; ++d)
      if ((acks >> d) & 1u) credits_.onReturn(d);
  }

  // 3. Allocation: hand each idle downstream VC to a matching requester.
  //    Requesters are slots, one bit each (connectedSlots()).  `consumed`
  //    starts from the surviving connections and accumulates within this
  //    edge so one input VC never acquires two downstream VCs.
  //    `requesting` has a bit per slot bidding for this output, wants[d]
  //    the subset whose want mask admits downstream VC d.
  std::uint32_t consumed = connectedSlots();
  std::uint32_t requesting = 0;
  std::array<std::uint32_t, kMaxVCs> wants{};
  for (int i = 0; i < kNumPorts; ++i) {
    if (i == own) continue;
    for (int v = 0; v < numVCs_; ++v) {
      if (!io.requests(i, v)) continue;
      const std::uint32_t bit = 1u << (i * kMaxVCs + v);
      requesting |= bit;
      const unsigned want = io.want(i, v);
      for (int d = 0; d < numVCs_; ++d)
        if ((want >> d) & 1u) wants[static_cast<std::size_t>(d)] |= bit;
    }
  }
  int grantsIssued = 0;
  for (int d = 0; d < numVCs_; ++d) {
    if (conn_[static_cast<std::size_t>(d)].active) continue;
    // Duato guard: never hand out a downstream VC that cannot accept a
    // flit right now.  An allocated header is committed — its patience
    // rotation stops, so it can no longer fall back to the escape option —
    // and committing it to a lane still backlogged with a predecessor's
    // flits closes wait cycles the escape layer can never break (a Bulk
    // flood confined to one lane by the QoS class map wedges a ring this
    // way).  Keeping the header unallocated keeps its escape bid alive.
    if (((free >> d) & 1u) == 0) continue;
    if (creditMode() && !credits_.available(d)) continue;
    const std::uint32_t candidates =
        wants[static_cast<std::size_t>(d)] & ~consumed;
    if (candidates == 0) continue;
    const int slot =
        roundRobinSlot(candidates, rrNext_[static_cast<std::size_t>(d)]);
    conn_[static_cast<std::size_t>(d)] = {true, slot / kMaxVCs,
                                          slot % kMaxVCs};
    consumed |= 1u << slot;
    rrNext_[static_cast<std::size_t>(d)] = (slot + 1) % kVcSlots;
    ++grantsIssued;
  }
  if (kMetrics) {
    if (metrics_.grants)
      for (int g = 0; g < grantsIssued; ++g) metrics_.grants->inc();
    if (metrics_.conflictCycles && (requesting & ~consumed) != 0)
      metrics_.conflictCycles->inc();
  }
}

bool VcOutputChannel::describe(sim::Lowering& lw) {
  const int own = index(ownPort_);
  ArenaCtx proto;
  proto.self = this;
  proto.link = vcarena::channelWord(lw, *out_, numVCs_);
  for (int i = 0; i < kNumPorts; ++i)
    proto.block[i] = vcarena::portBlock(
        lw, std::span<const CrossbarWires>((*xbar_)[static_cast<std::size_t>(i)])
                .first(static_cast<std::size_t>(numVCs_)));
  proto.own = static_cast<unsigned>(own);
  ArenaCtx* ctx = lw.ctx(proto);

  std::vector<const sim::WireBase*> grants;
  std::vector<const sim::WireBase*> schedReads;
  std::vector<const sim::WireBase*> schedWrites;
  for (int i = 0; i < kNumPorts; ++i) {
    for (int v = 0; v < numVCs_; ++v) {
      CrossbarWires& x =
          (*xbar_)[static_cast<std::size_t>(i)][static_cast<std::size_t>(v)];
      grants.push_back(&x.gnt[static_cast<std::size_t>(own)]);
      schedReads.push_back(&x.rok);
      schedReads.push_back(&x.flit.data);
      schedReads.push_back(&x.flit.bop);
      schedReads.push_back(&x.flit.eop);
      schedWrites.push_back(&x.rd[static_cast<std::size_t>(own)]);
    }
  }
  for (int d = 0; d < numVCs_; ++d)
    schedReads.push_back(&out_->vcFree[static_cast<std::size_t>(d)]);
  schedWrites.push_back(&out_->flit.data);
  schedWrites.push_back(&out_->flit.bop);
  schedWrites.push_back(&out_->flit.eop);
  schedWrites.push_back(&out_->vc);
  schedWrites.push_back(&out_->val);
  lw.op(
      [](std::uint64_t* w, void* c) {
        auto* x = static_cast<ArenaCtx*>(c);
        x->self->publishGrants(ArenaIo{w, x});
      },
      ctx, {}, std::move(grants));
  lw.op(
      [](std::uint64_t* w, void* c) {
        auto* x = static_cast<ArenaCtx*>(c);
        x->self->scheduleLink(ArenaIo{w, x});
      },
      ctx, std::move(schedReads), std::move(schedWrites));
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
