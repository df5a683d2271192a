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
      oc_(this->name() + ".oc", ownPort, xbar, out.flit.eop, nets_.rokSel,
          nets_.xRd, nets_.connected, nets_.sel, arbiter),
      ods_(this->name() + ".ods", xbar, nets_.connected, nets_.sel, out.flit),
      ors_(this->name() + ".ors", xbar, nets_.connected, nets_.sel,
           nets_.rokSel),
      out_(&out),
      flowControl_(params.flowControl),
      xbar_(&xbar) {
  addChild(oc_);
  addChild(ods_);
  addChild(ors_);
  if (params.flowControl == FlowControl::Handshake) {
    addChild(handshakeOfc_.emplace(this->name() + ".ofc", ownPort,
                                   nets_.rokSel, out.ack, out.val, nets_.xRd,
                                   xbar));
  } else {
    addChild(creditOfc_.emplace(this->name() + ".ofc", ownPort, params.p,
                                nets_.rokSel, out.ack, out.val, nets_.xRd,
                                xbar));
  }
}

void OutputChannel::attachMetrics(const OutputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
}

void OutputChannel::onReset() { flitsSent_ = 0; }

// --- signal accessor and lowering ----------------------------------------
//
// The OC + ODS + ORS + OFC subtree lowers to two arena ops plus one edge
// op, each calling the blocks' own bodies through SignalIo:
//
//   publish  - OC publish (registered connection state onto the
//              connected/sel/gnt nets), the ODS flit mux, the ORS rok mux
//              and, under handshake flow control, the OFC's
//              out_val = rok_sel.
//   flowRsp  - the flow-control response: under handshake, out_ack fanned
//              out to x_rd and every input's rd line; under credit flow
//              control the credit-gated send driving out_val/x_rd/rd.
//   edge     - the channel's accounting, the OC arbitration step and, in
//              credit mode, the credit counter update: the preorder of the
//              naive kernel's edge tape (channel, then OC, then OFC).
//
// Under the naive kernel the blocks run themselves instead
// (vcarena::Phases::lowerFusingBlocks), and only the channel's accounting
// edge is an op.

OutputChannel::Words OutputChannel::layout(
    const vcarena::ArenaPlacer& place) {
  Words words;
  words.link = place(vcarena::WireTwin::channel(*out_, 1));
  for (int i = 0; i < kNumPorts; ++i)
    words.block[i] =
        vcarena::portBlock(place, &(*xbar_)[static_cast<std::size_t>(i)], 1);
  words.nets = place(vcarena::WireTwin::nets(nets_));
  words.own = static_cast<unsigned>(index(ownPort_));
  return words;
}

// Every signal the channel's blocks read or drive.  Input i is the crossbar
// bundle of input port i.
struct OutputChannel::SignalIo {
  vcarena::ArenaWords src;
  const Words& r;

  // The output link.
  bool outVal() const { return vcarena::bitOf(src, r.link, vcarena::kVal); }
  bool outAck() const { return vcarena::bitOf(src, r.link, vcarena::kAck); }
  bool outEop() const { return vcarena::bitOf(src, r.link, vcarena::kEop); }
  void putOutVal(bool v) const {
    vcarena::putBit(src, r.link, vcarena::kVal, v);
  }
  void putOutFlit(const Flit& f) const {
    src.put(r.link, vcarena::kFlitMask, flitBits(f));
  }
  // The crossbar; grants and requests are input-port masks.
  Flit xFlit(int i) const {
    return bitsFlit(src.get(bundle(i), vcarena::kFlitMask));
  }
  bool xRok(int i) const {
    return vcarena::bitOf(src, bundle(i), vcarena::kRok);
  }
  unsigned requests() const {
    unsigned m = 0;
    for (int i = 0; i < kNumPorts; ++i)
      if (vcarena::bitOf(src, bundle(i), vcarena::kReq + r.own)) m |= 1u << i;
    return m;
  }
  void putGrants(unsigned inputs) const {
    for (int i = 0; i < kNumPorts; ++i)
      vcarena::putBit(src, r.block[i], r.own, ((inputs >> i) & 1u) != 0);
  }
  void putReads(bool v) const {
    for (int i = 0; i < kNumPorts; ++i)
      vcarena::putBit(src, r.block[i], vcarena::kRd + r.own, v);
  }
  // The nets between the blocks.
  bool connected() const { return net(vcarena::kConnected); }
  int sel() const {
    return static_cast<int>(
        vcarena::fieldOf(src, r.nets, vcarena::kSel, vcarena::kSelWidth));
  }
  bool rokSel() const { return net(vcarena::kRokSel); }
  bool xRd() const { return net(vcarena::kXRd); }
  void putConnected(bool v) const { putNet(vcarena::kConnected, v); }
  void putSel(int v) const {
    src.put(r.nets, sim::fieldMask(vcarena::kSelWidth) << vcarena::kSel,
            static_cast<std::uint64_t>(v) << vcarena::kSel);
  }
  void putRokSel(bool v) const { putNet(vcarena::kRokSel, v); }
  void putXRd(bool v) const { putNet(vcarena::kXRd, v); }

 private:
  std::uint32_t bundle(int i) const { return r.block[i] + 1; }
  bool net(unsigned shift) const { return vcarena::bitOf(src, r.nets, shift); }
  void putNet(unsigned shift, bool v) const {
    vcarena::putBit(src, r.nets, shift, v);
  }
};

template <bool kMetrics>
void OutputChannel::edge(const SignalIo& io) {
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

// The list, fused under the compiled kernel only: under the naive kernel
// the blocks are child modules that evaluate and clock themselves.
template <class Emit>
void OutputChannel::phases(const Emit& emit, const Words& t) const {
  // The ops' reads and writes, as bits of the channel's words: per input
  // port, its bundle's flit and rok, and this output's grant and read
  // strobes.
  using vcarena::bit;
  const bool handshake = flowControl_ == FlowControl::Handshake;
  const std::uint64_t val = bit(vcarena::kVal);
  std::array<sim::WordBits, kNumPorts> pubReads;
  std::array<sim::WordBits, 2 + kNumPorts> pubWrites, rspWrites;
  pubWrites[0] = {t.nets, bit(vcarena::kConnected) | bit(vcarena::kRokSel) |
                              sim::fieldMask(vcarena::kSelWidth)
                                  << vcarena::kSel};
  pubWrites[1] = {t.link, vcarena::kFlitMask | (handshake ? val : 0)};
  rspWrites[0] = {t.nets, bit(vcarena::kXRd)};
  rspWrites[1] = {t.link, handshake ? 0 : val};
  for (std::size_t i = 0; i < kNumPorts; ++i) {
    pubReads[i] = {t.block[i] + 1, vcarena::kFlitMask | bit(vcarena::kRok)};
    pubWrites[2 + i] = {t.block[i], bit(t.own)};
    rspWrites[2 + i] = {t.block[i], bit(vcarena::kRd + t.own)};
  }
  emit.op(
      [](OutputChannel& m, const auto& io) {
        m.oc_.publish(io);
        m.ods_.mux(io);
        m.ors_.select(io);
        if (m.handshakeOfc_) m.handshakeOfc_->offer(io);
      },
      pubReads, pubWrites);
  if (handshake)
    emit.op([](OutputChannel& m,
               const auto& io) { m.handshakeOfc_->respond(io); },
            {{t.link, bit(vcarena::kAck)}}, rspWrites);
  else
    emit.op([](OutputChannel& m, const auto& io) { m.creditOfc_->send(io); },
            {{t.nets, bit(vcarena::kRokSel)}}, rspWrites);
  emit.edge([](OutputChannel& m, const auto& io) {
    vcarena::Phases::meteredEdge(m, io);
    m.oc_.edge(io);
    if (m.creditOfc_) m.creditOfc_->edge(io);
  });
}

bool OutputChannel::describe(sim::Lowering& lw) {
  return vcarena::Phases::lowerFusingBlocks(*this, lw);
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

VcOutputChannel::Words VcOutputChannel::layout(
    const vcarena::ArenaPlacer& place) const {
  Words words;
  words.link = place(vcarena::WireTwin::channel(*out_, numVCs_));
  for (int i = 0; i < kNumPorts; ++i)
    words.block[i] = vcarena::portBlock(
        place, (*xbar_)[static_cast<std::size_t>(i)].data(), numVCs_);
  words.own = static_cast<unsigned>(index(ownPort_));
  return words;
}

// The signal accessor of the phase bodies (see the VcInputChannel notes in
// input_channel.cpp).  Input (i, v) is crossbar bundle v of input port i;
// `vcs` arguments are masks with bit v per VC.
struct VcOutputChannel::SignalIo {
  vcarena::ArenaWords src;
  const Words& r;

  bool rok(int i, int v) const {
    return vcarena::bitOf(src, ref(i, v), vcarena::kRok);
  }
  // Input (i, v)'s bundle word: flit, rok, req lanes and want.
  std::uint64_t bundle(int i, int v) const {
    return src.get(ref(i, v), ~std::uint64_t{0});
  }
  unsigned want(int i, int v) const {
    return vcarena::fieldOf(src, ref(i, v), vcarena::kWant, kMaxVCs);
  }
  // The output link's word: val, vc and eop of the scheduled flit, the
  // receiver's vcFree levels and vcAck pulses.
  std::uint64_t link() const { return src.get(r.link, ~std::uint64_t{0}); }
  unsigned vcFree() const {
    return vcarena::fieldOf(src, r.link, vcarena::kFree, kMaxVCs);
  }
  // This output's strobes in port i's control word: `lanes` is a lane
  // pattern (vcarena::kLaneSpread) already shifted by this output.
  void putGrantLanes(int i, std::uint64_t lanes) const {
    src.put(r.block[i], vcarena::kAllLanes << r.own, lanes);
  }
  // This output's read strobe in port i's control word: VC v's lane, or
  // none when `on` is false.
  void putRead(int i, int v, bool on) const {
    const unsigned shift = vcarena::kRd + r.own;
    src.put(r.block[i], vcarena::kAllLanes << shift,
            std::uint64_t{on} << (vcarena::kLane * static_cast<unsigned>(v) +
                                  shift));
  }
  // The link's forward bits carrying input (i, v)'s flit as downstream VC
  // d (the VC data switch), and driving them (0: the idle link).
  std::uint64_t forward(int i, int v, int d) const {
    return src.get(ref(i, v), vcarena::kFlitMask) |
           vcarena::bit(vcarena::kVal) |
           (static_cast<std::uint64_t>(d) << vcarena::kVc);
  }
  void putForward(std::uint64_t bits) const {
    src.put(r.link, vcarena::kForwardMask, bits);
  }

 private:
  std::uint32_t ref(int i, int v) const {
    return r.block[i] + 1 + static_cast<std::uint32_t>(v);
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
  for (int i = 0; i < kNumPorts; ++i)
    if (i != index(ownPort_))
      requesters_ |= static_cast<std::uint32_t>(sim::fieldMask(numVCs_))
                     << (i * kMaxVCs);
  if (creditMode()) credits_.reset(numVCs_, params.p);
}

void VcOutputChannel::attachMetrics(const VcOutputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
}

void VcOutputChannel::onReset() {
  conn_.fill(Conn{});
  active_ = 0;
  connSlots_ = 0;
  grantLanes_.fill(0);
  rrNext_.fill(0);
  schedRR_ = 0;
  starve_.fill(0);
  starving_ = 0;
  starved_ = 0;
  if (creditMode()) credits_.reset(numVCs_, params_.p);
  flitsSent_ = 0;
  vcFlitsSent_.fill(0);
}

unsigned VcOutputChannel::schedulable(const SignalIo& io,
                                      unsigned free) const {
  // Every VC's source rok, connected or not (an idle entry names a real
  // bundle), so the loop runs a fixed count and the masks decide.
  unsigned rok = 0;
  for (int d = 0; d < numVCs_; ++d) {
    const Conn& c = conn_[static_cast<std::size_t>(d)];
    rok |= static_cast<unsigned>(io.rok(c.inPort, c.inVc)) << d;
  }
  const unsigned ready = rok & active_ & free;
  return creditMode() ? ready & credits_.availableMask() : ready;
}

void VcOutputChannel::connectionsChanged() {
  const unsigned own = static_cast<unsigned>(index(ownPort_));
  for (std::size_t i = 0; i < kNumPorts; ++i)
    grantLanes_[i] = vcarena::kLaneSpread[(connSlots_ >> (i * kMaxVCs)) &
                                          sim::fieldMask(kMaxVCs)]
                     << own;
}

void VcOutputChannel::publishGrants(const SignalIo& io) {
  // Grants come from the registered connection table alone.
  for (int i = 0; i < kNumPorts; ++i)
    io.putGrantLanes(i, grantLanes_[static_cast<std::size_t>(i)]);
}

void VcOutputChannel::scheduleLink(const SignalIo& io) {
  // Schedule one connected, ready, non-blocked downstream VC onto the
  // physical link.  vcFree is the receiver's space advertisement (on/off) or
  // the link-up level (credit mode, masked low by a faulted link), so a
  // scheduled flit always lands: the transfer is unconditional.
  //
  // Policy: round-robin by default; under qosClasses, strict priority by
  // downstream VC index (descending — the class→VC map puts higher classes
  // on higher VCs) unless some VC's starvation counter crossed
  // kQosStarvationWindow, in which case the lowest-index starved VC wins so
  // escape VCs are always served within a bounded interval.
  const unsigned ready = schedulable(io, io.vcFree());
  int sched;
  if (params_.qosClasses) {
    const unsigned starved = ready & starved_;
    sched = starved != 0 ? std::countr_zero(starved)
                         : std::bit_width(ready) - 1;
  } else {
    const unsigned fromRR = ready & ~((1u << schedRR_) - 1u);
    sched = std::countr_zero(fromRR != 0 ? fromRR : ready);
  }
  // The scheduled source's read strobe (all other strobes low) and its flit
  // on the link; with nothing ready, every strobe low and the link idle.
  const bool send = ready != 0;
  const Conn& sc = conn_[static_cast<std::size_t>(send ? sched : 0)];
  for (int i = 0; i < kNumPorts; ++i)
    io.putRead(i, sc.inVc, send && sc.inPort == i);
  io.putForward(send ? io.forward(sc.inPort, sc.inVc, sched) : 0);
}

template <bool kMetrics>
void VcOutputChannel::edge(const SignalIo& io) {
  // Requesters are slots, one bit each (connSlots_): `requesting` has a bit
  // per slot of another port bidding for this output.  The sweep runs over
  // every port and kMaxVCs lanes, so it unrolls to constant shifts; lanes
  // past numVCs_ re-read the last VC's bundle and are masked off with the
  // own port's slots (requesters_).
  const std::uint64_t req =
      vcarena::bit(vcarena::kReq + static_cast<unsigned>(index(ownPort_)));
  std::uint32_t requesting = 0;
  for (int i = 0; i < kNumPorts; ++i)
    for (int v = 0; v < kMaxVCs; ++v)
      requesting |=
          static_cast<std::uint32_t>(
              (io.bundle(i, std::min(v, numVCs_ - 1)) & req) != 0)
          << (i * kMaxVCs + v);
  requesting &= requesters_;
  const std::uint64_t link = io.link();
  const bool val = ((link >> vcarena::kVal) & 1u) != 0;
  const unsigned vcs = static_cast<unsigned>(sim::fieldMask(numVCs_));
  const unsigned acks =
      creditMode()
          ? static_cast<unsigned>(link >> vcarena::kVcAck) & vcs
          : 0u;
  // Quiet: nothing was sent, nothing is connected (so nothing was
  // schedulable and no age can grow), nobody requests, no credit returns
  // and every age is already 0 — this edge changes no state, sends no
  // flit, issues no grant and leaves no requester waiting.
  if ((static_cast<unsigned>(val) | active_ | requesting | acks |
       starving_) == 0)
    return;
  const unsigned free = static_cast<unsigned>(link >> vcarena::kFree) & vcs;
  const int sentVc = static_cast<int>((link >> vcarena::kVc) &
                                      sim::fieldMask(vcarena::kVcWidth));
  const unsigned sent = val ? 1u << sentVc : 0u;

  // 0. QoS starvation accounting, from pre-commit state (credits_ not yet
  //    burned): a VC that could have sent but was not scheduled ages by one
  //    edge; a served or ineligible VC resets.  Bounded so a VC parked
  //    behind a full receiver cannot overflow the counter.
  if (params_.qosClasses) {
    const unsigned aging = schedulable(io, free) & ~sent;
    unsigned starved = 0;
    for (int d = 0; d < numVCs_; ++d) {
      int& age = starve_[static_cast<std::size_t>(d)];
      age = ((aging >> d) & 1u) != 0
                ? std::min(age + 1, kQosStarvationWindow + 1)
                : 0;
      starved |= static_cast<unsigned>(age >= kQosStarvationWindow) << d;
    }
    starving_ = aging;
    starved_ = starved;
  }

  // 1. Commit the scheduled transfer: count, burn a credit, tear the
  //    connection down on the tail flit and advance the link RR.
  if (val) {
    const auto d = static_cast<std::size_t>(sentVc);
    ++flitsSent_;
    ++vcFlitsSent_[d];
    if (creditMode()) credits_.onSent(sentVc);
    if (((link >> vcarena::kEop) & 1u) != 0) {
      active_ &= ~sent;
      connSlots_ &= ~(1u << (conn_[d].inPort * kMaxVCs + conn_[d].inVc));
      connectionsChanged();
    }
    schedRR_ = sentVc + 1 == numVCs_ ? 0 : sentVc + 1;
    if (kMetrics) {
      if (metrics_.flitsSent) metrics_.flitsSent->inc();
      if (metrics_.routerFlits) metrics_.routerFlits->inc();
      if (metrics_.vcFlits[d]) metrics_.vcFlits[d]->inc();
    }
  }
  if (kMetrics && metrics_.busyCycles && val) metrics_.busyCycles->inc();

  // 2. Per-VC credit returns (pulses from the receiver; a faulted link
  //    passes these through even while down, so no credit is ever lost).
  for (unsigned m = acks; m != 0; m &= m - 1)
    credits_.onReturn(std::countr_zero(m));

  // 3. Allocation: hand each open downstream VC to a matching requester.
  //    `consumed` starts from the surviving connections and accumulates
  //    within this edge so one input VC never acquires two downstream VCs.
  //
  //    Duato guard: only an idle downstream VC that can accept a flit right
  //    now is open.  An allocated header is committed — its patience
  //    rotation stops, so it can no longer fall back to the escape option —
  //    and committing it to a lane still backlogged with a predecessor's
  //    flits closes wait cycles the escape layer can never break (a Bulk
  //    flood confined to one lane by the QoS class map wedges a ring this
  //    way).  Keeping the header unallocated keeps its escape bid alive.
  //    The space must hold after this edge's own transfer lands.  Step 1
  //    burned a credit for it, but the on/off level `free` was sampled
  //    before it, so a lane whose tail flit leaves on this edge may be full
  //    once that flit lands: skip it until the receiver's level catches up.
  std::uint32_t consumed = connSlots_;
  const std::uint32_t pending = requesting & ~consumed;
  int grantsIssued = 0;
  const unsigned open =
      pending == 0 ? 0u
                   : ~active_ & free &
                         (creditMode() ? credits_.availableMask() : ~sent);
  if (open != 0) {
    // wants[d]: the pending slots whose want mask admits downstream VC d.
    std::array<std::uint32_t, kMaxVCs> wants{};
    for (std::uint32_t m = pending; m != 0; m &= m - 1) {
      const int slot = std::countr_zero(m);
      const unsigned want = io.want(slot / kMaxVCs, slot % kMaxVCs) & open;
      for (unsigned w = want; w != 0; w &= w - 1)
        wants[static_cast<std::size_t>(std::countr_zero(w))] |= 1u << slot;
    }
    for (unsigned m = open; m != 0; m &= m - 1) {
      const auto d = static_cast<std::size_t>(std::countr_zero(m));
      const std::uint32_t candidates = wants[d] & ~consumed;
      if (candidates == 0) continue;
      const int slot = roundRobinSlot(candidates, rrNext_[d]);
      conn_[d] = {slot / kMaxVCs, slot % kMaxVCs};
      active_ |= 1u << d;
      consumed |= 1u << slot;
      rrNext_[d] = (slot + 1) % kVcSlots;
      ++grantsIssued;
    }
    if (grantsIssued != 0) {
      connSlots_ = consumed;
      connectionsChanged();
    }
  }
  if (kMetrics) {
    if (metrics_.grants)
      metrics_.grants->inc(static_cast<std::uint64_t>(grantsIssued));
    if (metrics_.conflictCycles && (requesting & ~consumed) != 0)
      metrics_.conflictCycles->inc();
  }
}

template <class Emit>
void VcOutputChannel::phases(const Emit& emit, const Words& t) const {
  // The ops' reads and writes, as bits of the channel's words: per input
  // port, this output's grant and read lanes and each VC bundle's flit and
  // rok (entries past the last VC's bundle keep an empty mask).
  std::array<sim::WordBits, kNumPorts> grants;
  std::array<sim::WordBits, 1 + kNumPorts * kMaxVCs> schedReads{};
  std::array<sim::WordBits, 1 + kNumPorts> schedWrites;
  schedReads[0] = {t.link, vcarena::kFreeMask};
  schedWrites[0] = {t.link, vcarena::kForwardMask};
  for (std::size_t i = 0; i < kNumPorts; ++i) {
    grants[i] = {t.block[i], vcarena::kAllLanes << t.own};
    schedWrites[1 + i] = {t.block[i],
                          vcarena::kAllLanes << (vcarena::kRd + t.own)};
    for (std::size_t v = 0; v < static_cast<std::size_t>(numVCs_); ++v)
      schedReads[1 + i * kMaxVCs + v] = {
          t.block[i] + 1 + static_cast<std::uint32_t>(v),
          vcarena::kFlitMask | vcarena::bit(vcarena::kRok)};
  }
  emit.op([](VcOutputChannel& m, const auto& io) { m.publishGrants(io); },
          {}, grants);
  emit.op([](VcOutputChannel& m, const auto& io) { m.scheduleLink(io); },
          schedReads, schedWrites);
  emit.edge([](VcOutputChannel& m, const auto& io) {
    vcarena::Phases::meteredEdge(m, io);
  });
}

bool VcOutputChannel::describe(sim::Lowering& lw) {
  return vcarena::Phases::lower(*this, lw);
}

}  // namespace rasoc::router
