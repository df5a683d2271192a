/// \file
/// Arena layout of the virtual-channel router's nets under the compiled
/// kernel (sim/compile.hpp).  VcInputChannel, VcOutputChannel and the VC
/// Link lower to word-level ops over these packed words.  Every module that
/// lowers against a bundle places it through the helpers below, so
/// whichever describes first allocates the words and the others find the
/// same ones (Lowering::packedWord is idempotent per layout).
///
/// Channel word, one per ChannelWires (numVCs > 1).  The flit fields use
/// the arena's flit-word layout, and the VC id rides next to them the way
/// SoCIN's ring router carries a narrow VC selector beside the data, so a
/// link forwards flit, val and vc as one masked copy:
///
///   [0,32) data  32 bop  33 eop  34 val  [35,39) vc
///   [40,40+V) vcFree[v]            [48,48+V) vcAck[v]
///
/// Port block, numVCs + 1 consecutive words per input port (the
/// std::array<CrossbarWires, kMaxVCs> one VcInputChannel shares with every
/// VcOutputChannel of its router):
///
///   word 0, control:  gnt[o] of VC v at bit 8v + o, rd[o] at 32 + 8v + o
///   word 1 + v, crossbar bundle of VC v:
///     [0,32) data  32 bop  33 eop  34 rok  [35,40) req[o]  [40,44) want
///
/// So an input channel reads all its grant and read strobes from one word
/// (VC v's are the 5-bit lanes at 8v and 32 + 8v), and an output channel
/// reads a candidate source's rok, request, want mask and flit from one.
#pragma once

#include <array>
#include <cstdint>

#include "sim/compile.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"

namespace rasoc::router::vcarena {

// Channel word.
inline constexpr unsigned kVal = 34;
inline constexpr unsigned kVc = 35;
inline constexpr unsigned kVcWidth = 4;
inline constexpr unsigned kFree = 40;
inline constexpr unsigned kAck = 48;
// Flit, val and vc: what a link forwards downstream.
inline constexpr std::uint64_t kForwardMask = sim::fieldMask(kVc + kVcWidth);
inline constexpr std::uint64_t kFreeMask = sim::fieldMask(kMaxVCs) << kFree;
inline constexpr std::uint64_t kAckMask = sim::fieldMask(kMaxVCs) << kAck;

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

static_assert(kNumPorts <= kLane && kMaxVCs * kLane <= kRd,
              "control lanes must fit one word");
static_assert((1u << kVcWidth) >= kMaxVCs && kVc + kVcWidth <= kFree &&
                  kFree + kMaxVCs <= kAck && kAck + kMaxVCs <= 64,
              "channel word fields must not overlap");
static_assert(kReq + kNumPorts <= kWant, "bundle fields must not overlap");

/// Places (or finds) the channel word of `c`.
std::uint32_t channelWord(sim::Lowering& lw, const ChannelWires& c,
                          int numVCs);

/// Places (or finds) the port block of one input port's crossbar bundles
/// and returns its first (control) word; bundle v is word + 1 + v.
std::uint32_t portBlock(sim::Lowering& lw,
                        const std::array<CrossbarWires, kMaxVCs>& xbar,
                        int numVCs);

}  // namespace rasoc::router::vcarena
