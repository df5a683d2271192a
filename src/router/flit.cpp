#include "router/flit.hpp"

#include <cstdlib>
#include <stdexcept>

namespace rasoc::router {

int ribMaxOffset(int m) {
  const int magnitudeBits = m / 2 - 1;
  return (1 << magnitudeBits) - 1;
}

namespace {

std::uint32_t encodeAxis(int offset, int fieldBits) {
  const int magnitudeBits = fieldBits - 1;
  const std::uint32_t magnitude =
      static_cast<std::uint32_t>(offset < 0 ? -offset : offset);
  const std::uint32_t sign = offset < 0 ? 1u : 0u;
  return (sign << magnitudeBits) | magnitude;
}

int decodeAxis(std::uint32_t field, int fieldBits) {
  const int magnitudeBits = fieldBits - 1;
  const std::uint32_t magnitudeMask = (1u << magnitudeBits) - 1;
  const int magnitude = static_cast<int>(field & magnitudeMask);
  const bool negative = (field >> magnitudeBits) & 1u;
  return negative ? -magnitude : magnitude;
}

}  // namespace

std::uint32_t encodeRib(Rib rib, int m) {
  const int maxOffset = ribMaxOffset(m);
  if (std::abs(rib.dx) > maxOffset || std::abs(rib.dy) > maxOffset)
    throw std::out_of_range("RIB offset does not fit in " +
                            std::to_string(m) + " bits");
  const int fieldBits = m / 2;
  return encodeAxis(rib.dx, fieldBits) |
         (encodeAxis(rib.dy, fieldBits) << fieldBits);
}

Rib decodeRib(std::uint32_t header, int m) {
  const int fieldBits = m / 2;
  const std::uint32_t fieldMask = (1u << fieldBits) - 1;
  return Rib{decodeAxis(header & fieldMask, fieldBits),
             decodeAxis((header >> fieldBits) & fieldMask, fieldBits)};
}

Port routeXY(Rib rib) {
  if (rib.dx > 0) return Port::East;
  if (rib.dx < 0) return Port::West;
  if (rib.dy > 0) return Port::North;
  if (rib.dy < 0) return Port::South;
  return Port::Local;
}

Port routeYX(Rib rib) {
  if (rib.dy > 0) return Port::North;
  if (rib.dy < 0) return Port::South;
  if (rib.dx > 0) return Port::East;
  if (rib.dx < 0) return Port::West;
  return Port::Local;
}

Port route(RoutingAlgorithm algorithm, Rib rib) {
  return algorithm == RoutingAlgorithm::XY ? routeXY(rib) : routeYX(rib);
}

Rib consumeHop(Rib rib, Port out) {
  switch (out) {
    case Port::East: --rib.dx; break;
    case Port::West: ++rib.dx; break;
    case Port::North: --rib.dy; break;
    case Port::South: ++rib.dy; break;
    case Port::Local: break;
  }
  return rib;
}

std::uint32_t updateHeader(std::uint32_t header, Rib rib, int m) {
  const std::uint32_t ribMask = m >= 32 ? 0xffffffffu : ((1u << m) - 1);
  return (header & ~ribMask) | encodeRib(rib, m);
}

std::uint32_t encodeTrafficClass(std::uint32_t header, TrafficClass cls,
                                 int m) {
  const std::uint32_t tagMask = 3u << m;
  return (header & ~tagMask) |
         (static_cast<std::uint32_t>(static_cast<int>(cls)) << m);
}

TrafficClass decodeTrafficClass(std::uint32_t header, int m) {
  return static_cast<TrafficClass>((header >> m) & 3u);
}

std::vector<Flit> makePacket(Rib rib, const std::vector<std::uint32_t>& payload,
                             const RouterParams& params) {
  if (payload.empty())
    throw std::invalid_argument(
        "a packet needs at least one payload flit (the trailer)");
  std::vector<Flit> flits;
  flits.reserve(payload.size() + 1);
  Flit header;
  header.data = encodeRib(rib, params.m) & dataMask(params.n);
  header.bop = true;
  flits.push_back(header);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    Flit f;
    f.data = payload[i] & dataMask(params.n);
    f.eop = (i + 1 == payload.size());
    flits.push_back(f);
  }
  return flits;
}

}  // namespace rasoc::router
