/// \file
/// Arena layout of the router's nets under the compiled kernel
/// (sim/compile.hpp), for every VC count.  The input and output channels,
/// the Link and the NI lower to word-level ops over these packed words.
/// Every module that lowers against a bundle places it through the helpers
/// below, so whichever describes first allocates the words and the others
/// find the same ones (Lowering::packedWord is idempotent per layout).
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
/// Block nets, one word per single-VC channel: the nets between the paper's
/// blocks inside one InputChannel (IFC/IB/IC/IRS) or OutputChannel
/// (OC/ODS/ORS/OFC), so one op can run several blocks' bodies in sequence:
///
///   input:   [0,32) dout data  32 bop  33 eop  34 wok  35 rok  36 wr  37 rd
///   output:  0 connected  1 rokSel  2 xRd  [8,11) sel
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

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
inline constexpr std::uint32_t kPortMask = (1u << kNumPorts) - 1;

// Control-word lane pattern of a VC mask: bit v moves to bit kLane * v.
inline constexpr auto kLaneSpread = [] {
  std::array<std::uint64_t, 1u << kMaxVCs> spread{};
  for (unsigned vcs = 0; vcs < spread.size(); ++vcs)
    for (unsigned v = 0; v < kMaxVCs; ++v)
      if ((vcs >> v) & 1u) spread[vcs] |= std::uint64_t{1} << (kLane * v);
  return spread;
}();

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

// One bit of arena word `word`: read, and replace.
inline bool bitAt(const std::uint64_t* w, std::uint32_t word, unsigned shift) {
  return ((w[word] >> shift) & 1u) != 0;
}
inline void putBitAt(std::uint64_t* w, std::uint32_t word, unsigned shift,
                     bool v) {
  sim::opPutBits(w, word, std::uint64_t{1} << shift,
                 std::uint64_t{v} << shift);
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

/// Places (or finds) the channel word of `c`.
std::uint32_t channelWord(sim::Lowering& lw, const ChannelWires& c,
                          int numVCs);

/// The fields under `mask` (whole fields) of the channel word of `c`, read
/// from its wires, and its wires driven from a channel word: each field
/// under `mask` takes its value from `bits`.  The Wire-level twin of an
/// arena channel word; only the wires under `mask` are touched.
std::uint64_t channelBits(const ChannelWires& c, int numVCs,
                          std::uint64_t mask);
void driveChannelBits(ChannelWires& c, int numVCs, std::uint64_t mask,
                      std::uint64_t bits);

/// Signal accessors over a module's two channel bundles as channel words,
/// so a Link or NI phase body is written once: ChannelWireIo reads and
/// drives the bundles' wires (evaluate(), hence the naive kernel),
/// ChannelArenaIo their arena words (the compiled ops).  word() reads, and
/// put() replaces, the fields under `mask` of bundle `i`'s word.
struct ChannelWireIo {
  std::array<ChannelWires*, 2> bundles;
  int numVCs;

  std::uint64_t word(std::size_t i, std::uint64_t mask) const {
    return channelBits(*bundles[i], numVCs, mask);
  }
  void put(std::size_t i, std::uint64_t mask, std::uint64_t bits) const {
    driveChannelBits(*bundles[i], numVCs, mask, bits);
  }
};

struct ChannelArenaIo {
  std::uint64_t* w;
  const std::uint32_t* words;

  std::uint64_t word(std::size_t i, std::uint64_t mask) const {
    return w[words[i]] & mask;
  }
  void put(std::size_t i, std::uint64_t mask, std::uint64_t bits) const {
    sim::opPutBits(w, words[i], mask, bits);
  }
};

/// Op context of a module's phases over ChannelArenaIo, and the op running
/// one of them.
template <class M>
struct ChannelCtx {
  M* self;
  std::array<std::uint32_t, 2> words;
};
template <class M, void (M::*Phase)(const ChannelArenaIo&) const>
void channelOp(std::uint64_t* w, void* ctx) {
  auto* x = static_cast<ChannelCtx<M>*>(ctx);
  (x->self->*Phase)(ChannelArenaIo{w, x->words.data()});
}

/// Places (or finds) the port block of one input port's crossbar bundles,
/// one per VC, and returns its first (control) word; bundle v is
/// word + 1 + v.
std::uint32_t portBlock(sim::Lowering& lw, std::span<const CrossbarWires> xbar);

}  // namespace rasoc::router::vcarena
