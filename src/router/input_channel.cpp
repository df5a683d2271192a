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
      ifc_(this->name() + ".ifc", flowControl, in.val, nets_.wok,
           flowControl == FlowControl::Handshake ? &in.ack : nullptr,
           nets_.wr),
      ib_(this->name() + ".ib", params, in.flit, nets_.wr, nets_.rd,
          nets_.dout, nets_.wok, nets_.rok),
      ic_(this->name() + ".ic", params, ownPort, nets_.dout, nets_.rok, xbar),
      irs_(this->name() + ".irs", xbar, nets_.rd),
      in_(&in),
      xbar_(&xbar) {
  addChild(ifc_);
  addChild(ib_);
  addChild(ic_);
  addChild(irs_);
  if (flowControl == FlowControl::CreditBased) {
    // The channel ack wire becomes the credit-return line, pulsed when a
    // flit leaves the buffer.
    addChild(creditTap_.emplace(this->name() + ".credit", nets_.rd,
                                nets_.rok, in.ack));
  }
}

void InputChannel::attachMetrics(const InputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
}

void InputChannel::onReset() { flitsAccepted_ = 0; }

// --- signal accessor and lowering ----------------------------------------
//
// The IFC + IB + IC + IRS (+ credit tap) subtree lowers to three arena ops
// plus one edge op, each calling the blocks' own bodies through SignalIo:
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
//              preorder of the naive kernel's edge tape, so accounting sees
//              pre-commit state.
//
// Under the naive kernel the blocks run themselves instead
// (vcarena::Phases::lowerFusingBlocks), and only the channel's accounting
// edge is an op.

InputChannel::Words InputChannel::layout(const vcarena::ArenaPlacer& place) {
  Words words;
  words.link = place(vcarena::WireTwin::channel(*in_, 1));
  words.block = vcarena::portBlock(place, xbar_, 1);
  words.nets = place(vcarena::WireTwin::nets(nets_));
  return words;
}

// Every signal the channel's blocks read or drive.
struct InputChannel::SignalIo {
  vcarena::ArenaWords src;
  const Words& r;

  // The input link.
  bool inVal() const { return vcarena::bitOf(src, r.link, vcarena::kVal); }
  Flit inFlit() const {
    return bitsFlit(src.get(r.link, vcarena::kFlitMask));
  }
  void putInAck(bool v) const {
    vcarena::putBit(src, r.link, vcarena::kAck, v);
  }
  // The crossbar: grant and read strobes as port masks, and the bundle.
  unsigned grants() const {
    return vcarena::fieldOf(src, r.block, 0, kNumPorts);
  }
  unsigned reads() const {
    return vcarena::fieldOf(src, r.block, vcarena::kRd, kNumPorts);
  }
  void putXbar(bool rok, unsigned req, const Flit& f) const {
    src.put(r.block + 1, sim::fieldMask(vcarena::kWant),
            flitBits(f) | (std::uint64_t{rok} << vcarena::kRok) |
                (std::uint64_t{req} << vcarena::kReq));
  }
  // The nets between the blocks.
  bool wok() const { return net(vcarena::kWok); }
  bool rok() const { return net(vcarena::kRokNet); }
  bool wr() const { return net(vcarena::kWr); }
  bool rd() const { return net(vcarena::kRdNet); }
  Flit dout() const {
    return bitsFlit(src.get(r.nets, vcarena::kFlitMask));
  }
  void putWok(bool v) const { putNet(vcarena::kWok, v); }
  void putRok(bool v) const { putNet(vcarena::kRokNet, v); }
  void putWr(bool v) const { putNet(vcarena::kWr, v); }
  void putRd(bool v) const { putNet(vcarena::kRdNet, v); }
  void putDout(const Flit& f) const {
    src.put(r.nets, vcarena::kFlitMask, flitBits(f));
  }

 private:
  bool net(unsigned shift) const { return vcarena::bitOf(src, r.nets, shift); }
  void putNet(unsigned shift, bool v) const {
    vcarena::putBit(src, r.nets, shift, v);
  }
};

template <bool kMetrics>
void InputChannel::edge(const SignalIo& io) {
  const bool accepted = io.wr() && !ib_.full();
  if (accepted) ++flitsAccepted_;
  if constexpr (kMetrics) {
    if (metrics_.flitsAccepted && accepted) metrics_.flitsAccepted->inc();
    if (metrics_.fullCycles && ib_.full()) metrics_.fullCycles->inc();
    if (metrics_.stallCycles && io.rok() && !io.rd())
      metrics_.stallCycles->inc();
    if (metrics_.occupancy)
      metrics_.occupancy->observe(static_cast<double>(ib_.occupancy()));
  }
}

// The list, fused under the compiled kernel only: under the naive kernel
// the blocks are child modules that evaluate and clock themselves.
template <class Emit>
void InputChannel::phases(const Emit& emit, const Words& t) const {
  // The ops' reads and writes, as bits of the channel's words.  The link's
  // ack is the IFC's under handshake and the credit tap's under credit
  // flow control.
  using vcarena::bit;
  const bool credit = creditTap_.has_value();
  const std::uint64_t handshakeAck = credit ? 0 : bit(vcarena::kAck);
  emit.op(
      [](InputChannel& m, const auto& io) {
        m.ib_.publish(io);
        m.ic_.route(io);
      },
      {},
      {{t.nets,
        vcarena::kFlitMask | bit(vcarena::kWok) | bit(vcarena::kRokNet)},
       {t.block + 1, sim::fieldMask(vcarena::kWant)}});
  emit.op([](InputChannel& m, const auto& io) { m.ifc_.flow(io); },
          {{t.link, bit(vcarena::kVal)},
           {t.nets, credit ? 0 : bit(vcarena::kWok)}},
          {{t.nets, bit(vcarena::kWr)}, {t.link, handshakeAck}});
  emit.op(
      [](InputChannel& m, const auto& io) {
        m.irs_.select(io);
        if (m.creditTap_) m.creditTap_->pulse(io);
      },
      {{t.block, ~std::uint64_t{0}},
       {t.nets, credit ? bit(vcarena::kRokNet) : 0}},
      {{t.nets, bit(vcarena::kRdNet)},
       {t.link, bit(vcarena::kAck) & ~handshakeAck}});
  emit.edge([](InputChannel& m, const auto& io) {
    vcarena::Phases::meteredEdge(m, io);
    m.ib_.edge(io);
  });
}

bool InputChannel::describe(sim::Lowering& lw) {
  return vcarena::Phases::lowerFusingBlocks(*this, lw);
}

// --- VcInputChannel --------------------------------------------------------
//
// Each phase (publish, credit return, edge) is one member written over
// SignalIo, the channel's signal accessor on its packed words, and is
// listed once in phases(), which both kernels run as arena ops.

VcInputChannel::Words VcInputChannel::layout(
    const vcarena::ArenaPlacer& place) const {
  Words words;
  words.link = place(vcarena::WireTwin::channel(*in_, numVCs_));
  words.block = vcarena::portBlock(place, xbar_->data(), numVCs_);
  return words;
}

struct VcInputChannel::SignalIo {
  vcarena::ArenaWords src;
  const Words& r;

  // The control word: VC v's grant lane (bit o per output port) at
  // kLane * v, its read lane kRd above.
  std::uint64_t control() const { return src.get(r.block, ~std::uint64_t{0}); }
  // The link: val, target VC and the offered flit (packed).
  std::uint64_t link() const { return src.get(r.link, ~std::uint64_t{0}); }
  // Per-VC levels (bit v) driven back up the link.
  void putFree(unsigned vcs) const {
    src.put(r.link, vcarena::kFreeMask, std::uint64_t{vcs} << vcarena::kFree);
  }
  void putAcks(unsigned vcs) const {
    src.put(r.link, vcarena::kVcAckMask,
            std::uint64_t{vcs} << vcarena::kVcAck);
  }
  // VC v's crossbar bundle: flit, rok, req and want bits.
  void putBundle(int v, std::uint64_t bits) const {
    src.put(r.block + 1 + static_cast<std::uint32_t>(v), vcarena::kBundleMask,
            bits);
  }
};

namespace {

// VC v's lane (a port mask) of control-word bits `lanes`.
unsigned laneOf(std::uint64_t lanes, int v) {
  return static_cast<unsigned>(
      (lanes >> (vcarena::kLane * static_cast<unsigned>(v))) &
      sim::fieldMask(kNumPorts));
}

// Bit v set: some output both grants and reads VC v in control word `ctrl`
// (the head pops at the edge if the VC holds a flit).
unsigned readOut(std::uint64_t ctrl, int numVCs) {
  const std::uint64_t both = ctrl & (ctrl >> vcarena::kRd);
  unsigned vcs = 0;
  for (int v = 0; v < numVCs; ++v)
    vcs |= static_cast<unsigned>(laneOf(both, v) != 0) << v;
  return vcs;
}

}  // namespace

VcInputChannel::VcInputChannel(std::string name, const RouterParams& params,
                               Port ownPort, VcGeometry geometry,
                               ChannelWires& in,
                               std::array<CrossbarWires, kMaxVCs>& xbar)
    : Module(std::move(name)),
      params_(params),
      ownPort_(ownPort),
      flowControl_(params.flowControl),
      numVCs_(params.numVCs),
      escapeVCs_(std::min(geometry.escapeVCs(), params.numVCs)),
      dataMask_(dataMask(params.n)),
      fifo_(params.numVCs, params.p),
      geometry_(geometry),
      in_(&in),
      xbar_(&xbar) {}

void VcInputChannel::attachMetrics(const VcInputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
}

bool VcInputChannel::dequeueFired(int v) const {
  if (fifo_.size(v) == 0) return false;
  const CrossbarWires& x = (*xbar_)[static_cast<std::size_t>(v)];
  for (std::size_t o = 0; o < kNumPorts; ++o)
    if (x.gnt[o].get() && x.rd[o].get()) return true;
  return false;
}

void VcInputChannel::onReset() {
  fifo_.clear();
  patience_.fill(0);
  headers_ = 0;
  occupancySum_.fill(0);
  flitsAccepted_ = 0;
  misroute_ = false;
  overflow_ = false;
}

void VcInputChannel::returnCredits(const SignalIo& io) {
  // Credit mode pulses the per-VC credit return as the flit leaves the
  // buffer.
  io.putAcks(fifo_.occupied() & readOut(io.control(), numVCs_));
}

void VcInputChannel::headChanged(int v) {
  headers_ &= ~(1u << v);
  if (fifo_.size(v) != 0 && ((fifo_.head(v) >> vcarena::kBop) & 1u) != 0)
    headers_ |= 1u << v;
}

void VcInputChannel::publish(const SignalIo& io) {
  // Upstream flow control: on/off advertises registered buffer space;
  // credit mode advertises link-up (the sender counts credits).
  const unsigned vcs = static_cast<unsigned>(sim::fieldMask(numVCs_));
  io.putFree(creditMode() ? vcs : vcs & ~fifo_.fullVcs());

  // Every VC's head slot is read, occupied or not (an empty ring's head is
  // a stale slot), and the occupied mask zeroes the empty VCs' bundles.
  const unsigned occupied = fifo_.occupied();
  for (int v = 0; v < numVCs_; ++v) {
    std::uint64_t bits = (fifo_.head(v) | vcarena::bit(vcarena::kRok)) &
                         (std::uint64_t{0} - ((occupied >> v) & 1u));
    if (((headers_ >> v) & 1u) != 0) bits = headerBid(io, v, bits);
    io.putBundle(v, bits);
  }
}

std::uint64_t VcInputChannel::headerBid(const SignalIo& io, int v,
                                        std::uint64_t head) {
  // A granted header forwards the RIB consumed for the hop actually
  // connected — the patience rotation may have moved the bid between
  // allocation and readout.  Grants are one-hot in practice; the highest
  // granted port wins.
  const auto data = static_cast<std::uint32_t>(head);
  const Rib rib = decodeRib(data, params_.m);
  const unsigned granted = laneOf(io.control(), v);
  Port target;
  unsigned want = 0;
  if (granted != 0) {
    target = static_cast<Port>(std::bit_width(granted) - 1);
  } else {
    // Adaptive bids request the packet's whole adaptive VC set; under QoS
    // the header's class tag narrows it to the class's channels.
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
                                     params_.routing, adaptiveMask, options);
    const VcRouteOption& option = options[static_cast<std::size_t>(
        std::min(patience_[static_cast<std::size_t>(v)] / window,
                 count - 1))];
    target = option.port;
    want = option.want;
  }
  if (target == ownPort_) misroute_ = true;
  const std::uint32_t forwarded =
      updateHeader(data, consumeHop(rib, target), params_.m) & dataMask_;
  return (head & ~sim::fieldMask(32)) | forwarded |
         (std::uint64_t{1} << (vcarena::kReq + index(target))) |
         (std::uint64_t{want} << vcarena::kWant);
}

template <bool kMetrics>
void VcInputChannel::edge(const SignalIo& io) {
  const std::uint64_t link = io.link();
  const bool val = ((link >> vcarena::kVal) & 1u) != 0;
  // Quiet: no flit arrives and every FIFO is empty, so nothing pops, every
  // patience is already 0 and every occupancy sample is 0.
  if (!val && fifo_.occupied() == 0) {
    if constexpr (kMetrics) {
      for (int v = 0; v < numVCs_; ++v)
        if (metrics_.occupancy[static_cast<std::size_t>(v)])
          metrics_.occupancy[static_cast<std::size_t>(v)]->observe(0.0);
    }
    return;
  }

  // Accept: the sender only schedules a VC with advertised space (on/off)
  // or an available credit, so a full target FIFO means broken flow
  // control — recorded sticky, never overwritten silently.
  unsigned moved = 0;  // VCs whose head flit changes at this edge
  if (val) {
    const int v = static_cast<int>((link >> vcarena::kVc) &
                                   sim::fieldMask(vcarena::kVcWidth));
    if (v >= numVCs_ || fifo_.full(v)) {
      overflow_ = true;
    } else {
      if (fifo_.size(v) == 0) moved |= 1u << v;
      fifo_.push(v, link & vcarena::kFlitMask);
      ++flitsAccepted_;
      if (kMetrics && metrics_.flitsAccepted) metrics_.flitsAccepted->inc();
    }
  }

  // Pops: granted by some output, and read out this edge.  A pop strobe can
  // only refer to a flit that was at the head pre-edge, so popping after
  // the accept push is safe: the push appended to the back, and an empty
  // pre-edge FIFO never had rd granted.
  const std::uint64_t ctrl = io.control();
  const unsigned pops = fifo_.occupied() & readOut(ctrl, numVCs_);
  for (unsigned m = pops; m != 0; m &= m - 1) fifo_.pop(std::countr_zero(m));
  for (unsigned m = moved | pops; m != 0; m &= m - 1)
    headChanged(std::countr_zero(m));

  for (int v = 0; v < numVCs_; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const int size = fifo_.size(v);
    int& patience = patience_[vi];
    patience = ((headers_ >> v) & 1u) != 0 && laneOf(ctrl, v) == 0
                   ? std::min(patience + 1, kVcPatienceCap)
                   : 0;
    occupancySum_[vi] += static_cast<std::uint64_t>(size);
    if (kMetrics && metrics_.occupancy[vi])
      metrics_.occupancy[vi]->observe(static_cast<double>(size));
  }
  if (kMetrics) {
    if (metrics_.fullCycles && fifo_.fullVcs() != 0)
      metrics_.fullCycles->inc();
    if (metrics_.stallCycles && (fifo_.occupied() & ~pops) != 0)
      metrics_.stallCycles->inc();
  }
}

template <class Emit>
void VcInputChannel::phases(const Emit& emit, const Words& t) const {
  // The ops' reads and writes, as bits of the channel's words (entries
  // past the last VC's bundle keep an empty mask).
  std::array<sim::WordBits, 1 + kMaxVCs> pubWrites{};
  pubWrites[0] = {t.link, vcarena::kFreeMask};
  for (int v = 0; v < numVCs_; ++v)
    pubWrites[1 + static_cast<std::size_t>(v)] = {
        t.block + 1 + static_cast<std::uint32_t>(v), vcarena::kBundleMask};
  emit.op([](VcInputChannel& m, const auto& io) { m.publish(io); },
          {{t.block, sim::fieldMask(vcarena::kRd)}}, pubWrites);
  if (creditMode())
    emit.op([](VcInputChannel& m, const auto& io) { m.returnCredits(io); },
            {{t.block, ~std::uint64_t{0}}}, {{t.link, vcarena::kVcAckMask}});
  emit.edge([](VcInputChannel& m, const auto& io) {
    vcarena::Phases::meteredEdge(m, io);
  });
}

bool VcInputChannel::describe(sim::Lowering& lw) {
  return vcarena::Phases::lower(*this, lw);
}

}  // namespace rasoc::router
