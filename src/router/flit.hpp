// Flits, packets, and the Routing Information Bits (RIB) encoding.
//
// In RASoC "a flit equals the physical channel width": n data bits plus two
// framing bits, bop (begin-of-packet, set only in the header) and eop
// (end-of-packet, set only in the trailer).  The header's low m data bits
// carry the RIB used by the XY routing algorithm; the input controller
// decrements the RIB at every hop ("updates the routing information in the
// header to take into account the performed routing").
//
// RIB layout (m bits, m/2 per axis, signed-magnitude):
//   bits [0,       m/2): X field - sign bit at position m/2-1 (1 = West,
//                        i.e. negative X), magnitude below it
//   bits [m/2,     m  ): Y field - sign bit at position m-1 (1 = South,
//                        i.e. negative Y), magnitude below it
#pragma once

#include <cstdint>
#include <vector>

#include "router/params.hpp"

namespace rasoc::router {

struct Flit {
  std::uint32_t data = 0;
  bool bop = false;
  bool eop = false;

  bool operator==(const Flit&) const = default;
};

// A flit packed into the low bits of a word: [0,32) data, bit kBop bop,
// bit kEop eop.  The FIFO rings (fifo.hpp) and every arena word that
// carries a flit (vc_arena.hpp) hold it so, and a flit moves between them
// as one word.
inline constexpr unsigned kBop = 32;
inline constexpr unsigned kEop = 33;
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

// Relative offset to the destination: dx > 0 means East, dy > 0 means North.
struct Rib {
  int dx = 0;
  int dy = 0;

  bool operator==(const Rib&) const = default;
};

// Largest representable per-axis magnitude for an m-bit RIB.
int ribMaxOffset(int m);

// Packs a relative offset into the low m bits (throws if out of range).
std::uint32_t encodeRib(Rib rib, int m);

// Extracts the RIB from the low m bits of a header word.
Rib decodeRib(std::uint32_t header, int m);

// XY routing decision for a RIB: route X first (East/West), then Y
// (North/South), and deliver locally when both offsets are zero.
Port routeXY(Rib rib);

// YX routing: Y first, then X.
Port routeYX(Rib rib);

// Dispatches on the algorithm.
Port route(RoutingAlgorithm algorithm, Rib rib);

// The RIB after taking one hop through output `out` (decrements the axis
// the hop progresses along; Local leaves the RIB untouched).
Rib consumeHop(Rib rib, Port out);

// Replaces the low m bits of `header` with the encoding of `rib`,
// preserving any higher payload bits.
std::uint32_t updateHeader(std::uint32_t header, Rib rib, int m);

// QoS class tag (RouterParams::qosClasses): carried in header data bits
// [m, m+2), directly above the RIB.  updateHeader() preserves bits above m,
// so the tag written at the source NI survives every hop's RIB rewrite.
// Headers are HLP-unprotected (their RIB is legitimately rewritten), so the
// tag does not interact with parity.  On non-QoS networks these bits are
// always zero, keeping the wire format unchanged.
std::uint32_t encodeTrafficClass(std::uint32_t header, TrafficClass cls,
                                 int m);
TrafficClass decodeTrafficClass(std::uint32_t header, int m);

// Data-bit mask for an n-bit channel.
constexpr std::uint32_t dataMask(int n) {
  return n >= 32 ? 0xffffffffu
                 : static_cast<std::uint32_t>((1ull << n) - 1);
}

// A packet as injected by a network interface: a header flit carrying the
// RIB followed by payload flits, the last one marked eop.
std::vector<Flit> makePacket(Rib rib, const std::vector<std::uint32_t>& payload,
                             const RouterParams& params);

}  // namespace rasoc::router
