/// \file
/// The packed words of the router's nets, for every VC count.  Each word's
/// layout is declared once, as a field visitor in vc_arena.cpp, that places
/// the word's wires (named by a WireTwin) in the arena of the program both
/// kernels run (sim/compile.hpp).  Every channel, link and NI writes its
/// signal accessor once over ArenaWords, the arena its ops run on.
/// Whichever module places a word first allocates it; the others find it
/// (Lowering::packedWord is idempotent per layout).
///
/// Each such module lists its phases once, in a phases() member template:
/// every combinational phase with the masks it reads and writes over the
/// placed words (sim::WordBits), then its clock edge.  Phases, at the end
/// of this file, lowers that one list in describe() to arena ops.
///
/// Every word that carries a flit holds it in its low bits ([0,32) data,
/// 32 bop, 33 eop), so a flit moves between words as one masked copy.
///
/// Channel word, one per ChannelWires.  The VC id rides next to the flit
/// the way SoCIN's ring router carries a narrow VC selector beside the
/// data, so a link forwards flit, val and vc as one masked copy:
///
///   [0,32) data  32 bop  33 eop  34 val  [35,39) vc  39 ack
///   [40,40+V) vcFree[v]            [48,48+V) vcAck[v]
///
/// (ack is the single-VC handshake/credit line; vc, vcFree and vcAck are
/// used at numVCs > 1 only.)
///
/// Port block, numVCs + 1 consecutive words per input port (the crossbar
/// bundles one input channel shares with every output channel of its
/// router, one per VC):
///
///   word 0, control:  gnt[o] of VC v at bit 8v + o, rd[o] at 32 + 8v + o
///   word 1 + v, crossbar bundle of VC v:
///     [0,32) data  32 bop  33 eop  34 rok  [35,40) req[o]  [40,44) want
///
/// So an input channel reads all its grant and read strobes from one word
/// (VC v's are the 5-bit lanes at 8v and 32 + 8v), and an output channel
/// reads a candidate source's rok, request, want mask and flit from one.
///
/// Block nets, one word per single-VC channel (InputBlockNets,
/// OutputBlockNets): the nets between the paper's blocks inside one
/// InputChannel (IFC/IB/IC/IRS) or OutputChannel (OC/ODS/ORS/OFC), so one
/// op can run several blocks' bodies in sequence:
///
///   input:   [0,32) dout data  32 bop  33 eop  34 wok  35 rok  36 wr  37 rd
///   output:  0 connected  1 rokSel  2 xRd  [8,11) sel
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "sim/compile.hpp"

#include "router/channel.hpp"
#include "router/flit.hpp"
#include "router/params.hpp"

namespace rasoc::router::vcarena {

// Flit fields.
inline constexpr unsigned kBop = 32;
inline constexpr unsigned kEop = 33;
inline constexpr std::uint64_t kFlitMask = sim::fieldMask(kEop + 1);

// Channel word.
inline constexpr unsigned kVal = 34;
inline constexpr unsigned kVc = 35;
inline constexpr unsigned kVcWidth = 4;
inline constexpr unsigned kAck = 39;
inline constexpr unsigned kFree = 40;
inline constexpr unsigned kVcAck = 48;
// Flit, val and vc: what a link forwards downstream.
inline constexpr std::uint64_t kForwardMask = sim::fieldMask(kVc + kVcWidth);
inline constexpr std::uint64_t kFreeMask = sim::fieldMask(kMaxVCs) << kFree;
inline constexpr std::uint64_t kVcAckMask = sim::fieldMask(kMaxVCs) << kVcAck;

// Crossbar bundle word.
inline constexpr unsigned kRok = 34;
inline constexpr unsigned kReq = 35;
inline constexpr unsigned kWant = 40;
inline constexpr std::uint64_t kBundleMask = sim::fieldMask(kWant + kMaxVCs);

// Control word: one 8-bit lane per VC, grants low, reads high.
inline constexpr unsigned kLane = 8;
inline constexpr unsigned kRd = 32;

// Control-word lane pattern of a VC mask: bit v moves to bit kLane * v.
inline constexpr auto kLaneSpread = [] {
  std::array<std::uint64_t, 1u << kMaxVCs> spread{};
  for (unsigned vcs = 0; vcs < spread.size(); ++vcs)
    for (unsigned v = 0; v < kMaxVCs; ++v)
      if ((vcs >> v) & 1u) spread[vcs] |= std::uint64_t{1} << (kLane * v);
  return spread;
}();
// Bit 0 of every VC's lane; shifted by a port (and kRd), that port's
// strobe in every lane.
inline constexpr std::uint64_t kAllLanes = kLaneSpread[(1u << kMaxVCs) - 1];

// Block nets of a single-VC input / output channel.
inline constexpr unsigned kWok = 34;
inline constexpr unsigned kRokNet = 35;
inline constexpr unsigned kWr = 36;
inline constexpr unsigned kRdNet = 37;
inline constexpr unsigned kConnected = 0;
inline constexpr unsigned kRokSel = 1;
inline constexpr unsigned kXRd = 2;
inline constexpr unsigned kSel = 8;
inline constexpr unsigned kSelWidth = 3;

static_assert(kNumPorts <= kLane && kMaxVCs * kLane <= kRd,
              "control lanes must fit one word");
static_assert((1u << kVcWidth) >= kMaxVCs && kVc + kVcWidth <= kAck &&
                  kAck < kFree && kFree + kMaxVCs <= kVcAck &&
                  kVcAck + kMaxVCs <= 64,
              "channel word fields must not overlap");
static_assert(kReq + kNumPorts <= kWant, "bundle fields must not overlap");
static_assert((1u << kSelWidth) >= kNumPorts, "sel must hold every port");

// The single bit at `shift`, e.g. a one-bit field's mask.
inline constexpr std::uint64_t bit(unsigned shift) {
  return std::uint64_t{1} << shift;
}

// A flit as the low bits of a word, and back.
inline std::uint64_t flitBits(const Flit& f) {
  return f.data | (std::uint64_t{f.bop} << kBop) |
         (std::uint64_t{f.eop} << kEop);
}
inline Flit bitsFlit(std::uint64_t bits) {
  Flit f;
  f.data = static_cast<std::uint32_t>(bits);
  f.bop = ((bits >> kBop) & 1u) != 0;
  f.eop = ((bits >> kEop) & 1u) != 0;
  return f;
}

/// The wires of one packed word, as the field visitor that places the
/// word names them: what ArenaPlacer places.
class WireTwin {
 public:
  static WireTwin channel(ChannelWires& c, int numVCs) {
    return {&c, Kind::Channel, numVCs};
  }
  /// The control word of the port block over `numVCs` consecutive bundles.
  static WireTwin control(CrossbarWires* xbar, int numVCs) {
    return {xbar, Kind::Control, numVCs};
  }
  static WireTwin bundle(CrossbarWires& x) { return {&x, Kind::Bundle, 1}; }
  static WireTwin nets(InputBlockNets& n) { return {&n, Kind::InNets, 1}; }
  static WireTwin nets(OutputBlockNets& n) { return {&n, Kind::OutNets, 1}; }

 private:
  friend struct ArenaPlacer;

  enum class Kind : std::uint8_t { Channel, Control, Bundle, InNets, OutNets };
  WireTwin(void* nets, Kind kind, int vcs)
      : nets_(nets), kind_(kind), vcs_(static_cast<std::uint8_t>(vcs)) {}
  // Calls f(wire, shift, width) for every field of the word.
  template <class F>
  void visit(F&& f) const;

  void* nets_;
  Kind kind_;
  std::uint8_t vcs_;
};

/// The arena an op runs on: get() reads, and put() replaces, the fields
/// under `mask` of the word at an index from ArenaPlacer.
struct ArenaWords {
  std::uint64_t* w;

  std::uint64_t get(std::uint32_t word, std::uint64_t mask) const {
    return w[word] & mask;
  }
  void put(std::uint32_t word, std::uint64_t mask, std::uint64_t bits) const {
    sim::opPutBits(w, word, mask, bits);
  }
};

/// Placement of a module's words in the program's arena: places (or
/// finds) a twin's word and returns its index.
struct ArenaPlacer {
  sim::Lowering& lw;
  std::uint32_t operator()(const WireTwin& twin) const;
};

// One bit, and one field, of a word: read, and replace.
inline bool bitOf(ArenaWords src, std::uint32_t word, unsigned shift) {
  return src.get(word, bit(shift)) != 0;
}
inline void putBit(ArenaWords src, std::uint32_t word, unsigned shift,
                   bool v) {
  src.put(word, bit(shift), std::uint64_t{v} << shift);
}
inline unsigned fieldOf(ArenaWords src, std::uint32_t word, unsigned shift,
                        unsigned width) {
  return static_cast<unsigned>(
      src.get(word, sim::fieldMask(width) << shift) >> shift);
}

/// Places the port block of one input port's crossbar bundles, one per VC,
/// through `place` and returns the control word's ref; bundle v is
/// ref + 1 + v.  Throws std::logic_error when the words are not
/// consecutive.
inline std::uint32_t portBlock(const ArenaPlacer& place, CrossbarWires* xbar,
                               int numVCs) {
  const std::uint32_t base = place(WireTwin::control(xbar, numVCs));
  for (int v = 0; v < numVCs; ++v)
    if (place(WireTwin::bundle(xbar[v])) !=
        base + 1 + static_cast<std::uint32_t>(v))
      throw std::logic_error("vcarena::portBlock: block is not contiguous");
  return base;
}

/// The refs of a module's two channel words (a Link's source and
/// destination, an NI's toRouter and fromRouter), in placement order.
using ChannelRefs = std::array<std::uint32_t, 2>;

/// The accessor of a module that owns two channel words: word() reads, and
/// put() replaces, the fields under `mask` of channel i's word.
struct ChannelIo {
  ArenaWords src;
  const ChannelRefs& r;

  std::uint64_t word(std::size_t i, std::uint64_t mask) const {
    return src.get(r[i], mask);
  }
  void put(std::size_t i, std::uint64_t mask, std::uint64_t bits) const {
    src.put(r[i], mask, bits);
  }
};

/// Lowers a module's phase list.  A lowered module M declares, private to
/// it and this helper (a friend):
///
///   Words layout(const ArenaPlacer& place);
///   struct SignalIo { ArenaWords src; const Words& r; ... };
///   template <class Emit> void phases(const Emit& emit, const Words& r);
///
/// layout() places its packed words and returns their refs, SignalIo is
/// its signal accessor over the arena, and phases() is its one phase list:
/// an emit.op(phase, reads, writes) call per combinational phase, in
/// settle order, and one emit.edge(phase) call.  A phase is a captureless
/// generic lambda (M&, const SignalIo&) calling the module's member;
/// reads and writes are the masks its body uses over the refs `r`.
/// lower(m, lw), called from describe(), emits one arena op per phase with
/// its masks, and the edge phase as an arena edge op.
struct Phases {
  template <class M>
  static bool lower(M& m, sim::Lowering& lw) {
    Ctx<M>* ctx = context(m, lw);
    m.phases(ArenaEmit<Ctx<M>>{lw, ctx}, ctx->words);
    return true;
  }

  /// The single-VC channels, whose phases run their paper blocks' bodies.
  /// A levelized program fuses those bodies into the channel's own ops
  /// (lower()).  Under the fixpoint schedule the blocks stay child modules
  /// that run themselves, through their per-block WireIo, as the
  /// independent reference; the channel keeps only its accounting edge,
  /// which its blocks' edges follow in preorder.
  template <class M>
  static bool lowerFusingBlocks(M& m, sim::Lowering& lw) {
    if (lw.levelized()) return lower(m, lw);
    lw.edgeOp(&run<Ctx<M>, MeteredEdge>, context(m, lw));
    lw.descendChildren();
    return true;
  }

  /// A channel's edge body with its telemetry when attached (edge<true>)
  /// or without (edge<false>), picked at run time so attaching metrics
  /// leaves the program as it was.
  template <class M, class Io>
  static void meteredEdge(M& m, const Io& io) {
    if (m.metricsAttached_)
      m.template edge<true>(io);
    else
      m.template edge<false>(io);
  }

 private:
  // An op's context: the module and its word refs.
  template <class M>
  struct Ctx {
    M* self;
    decltype(std::declval<M&>().layout(std::declval<const ArenaPlacer&>()))
        words;
  };
  template <class M>
  static Ctx<M>* context(M& m, sim::Lowering& lw) {
    return lw.ctx(Ctx<M>{&m, m.layout(ArenaPlacer{lw})});
  }

  struct MeteredEdge {
    template <class M, class Io>
    void operator()(M& m, const Io& io) const {
      meteredEdge(m, io);
    }
  };

  // The op running phase P over a Ctx.
  template <class C, class P>
  static void run(std::uint64_t* w, void* ctx) {
    auto* x = static_cast<C*>(ctx);
    using M = std::remove_pointer_t<decltype(x->self)>;
    P{}(*x->self, typename M::SignalIo{{w}, x->words});
  }

  template <class C>
  struct ArenaEmit {
    sim::Lowering& lw;
    C* ctx;

    template <class P>
    void op(P, sim::WordBitsList reads, sim::WordBitsList writes) const {
      lw.op(&run<C, P>, ctx, reads, writes);
    }
    template <class P>
    void edge(P) const {
      lw.edgeOp(&run<C, P>, ctx);
    }
  };
};

}  // namespace rasoc::router::vcarena
