#include "noc/topology.hpp"

#include <algorithm>

namespace rasoc::noc {

using router::Port;

std::string Topology::describe() const {
  const Extent e = extent();
  if (kind() == "ring") return "ring" + std::to_string(nodes());
  return std::string(kind()) + std::to_string(e.width) + "x" +
         std::to_string(e.height);
}

std::vector<LinkId> Topology::routePath(NodeId src, NodeId dst,
                                        router::RoutingAlgorithm algorithm,
                                        int numVCs) const {
  indexOf(src);  // bounds-check both endpoints
  indexOf(dst);
  std::vector<LinkId> path;
  NodeId at = src;
  router::Rib remaining = ribFor(src, dst, numVCs);
  // Any sane route visits each node at most twice (once per dimension).
  int guard = 2 * nodes() + 4;
  while (remaining != router::Rib{0, 0}) {
    const Port out = router::route(algorithm, remaining);
    const std::optional<NodeId> next = neighbor(at, out);
    if (!next)
      throw std::logic_error(describe() + ": route " +
                             std::string(router::name(out)) +
                             " out of a node with no such link");
    path.push_back(LinkId{at, out});
    remaining = router::consumeHop(remaining, out);
    at = *next;
    if (--guard < 0)
      throw std::logic_error(describe() + ": route does not converge");
  }
  if (!(at == dst))
    throw std::logic_error(describe() + ": route missed its destination");
  return path;
}

router::VcGeometry vcGeometry(const Topology& topology, NodeId n) {
  const Extent ext = topology.extent();
  const NodeId origin = topology.nodeAt(0);
  const bool wrapX =
      ext.width > 1 && topology.neighbor(origin, Port::West).has_value();
  const bool wrapY =
      ext.height > 1 && topology.neighbor(origin, Port::South).has_value();
  return {n.x, n.y, ext.width, ext.height, wrapX, wrapY};
}

int Topology::hops(NodeId src, NodeId dst) const {
  if (src == dst) return 1;
  return static_cast<int>(routePath(src, dst).size()) + 1;
}

int Topology::maxRibOffset() const {
  int worst = 0;
  for (int s = 0; s < nodes(); ++s) {
    for (int d = 0; d < nodes(); ++d) {
      const router::Rib r = rib(nodeAt(s), nodeAt(d));
      worst = std::max({worst, r.dx, -r.dx, r.dy, -r.dy});
    }
  }
  return worst;
}

void Topology::checkAdjacency() const {
  for (int i = 0; i < nodes(); ++i) {
    const NodeId n = nodeAt(i);
    const unsigned mask = portMask(n);
    if ((mask & (1u << router::index(Port::Local))) == 0)
      throw std::logic_error(describe() + ": node without a Local port");
    for (Port p : router::kAllPorts) {
      if (p == Port::Local) continue;
      const bool instantiated = (mask >> router::index(p)) & 1u;
      const std::optional<NodeId> nb = neighbor(n, p);
      if (instantiated != nb.has_value())
        throw std::logic_error(describe() +
                               ": port mask disagrees with adjacency");
      if (!nb) continue;
      if (!contains(*nb))
        throw std::logic_error(describe() + ": neighbor outside topology");
      const std::optional<NodeId> back = neighbor(*nb, router::opposite(p));
      if (!back || !(*back == n))
        throw std::logic_error(describe() + ": asymmetric adjacency");
    }
  }
}

// --- MeshTopology ----------------------------------------------------------

unsigned MeshTopology::portMask(NodeId n) const {
  indexOf(n);
  return portMaskFor(shape_, n);
}

std::optional<NodeId> MeshTopology::neighbor(NodeId n, Port port) const {
  indexOf(n);
  NodeId next = n;
  switch (port) {
    case Port::North: next.y += 1; break;
    case Port::South: next.y -= 1; break;
    case Port::East: next.x += 1; break;
    case Port::West: next.x -= 1; break;
    case Port::Local: return std::nullopt;
  }
  if (!shape_.contains(next)) return std::nullopt;
  return next;
}

router::Rib MeshTopology::rib(NodeId src, NodeId dst) const {
  indexOf(src);
  indexOf(dst);
  return ribBetween(src, dst);
}

int MeshTopology::hops(NodeId src, NodeId dst) const {
  return xyHops(src, dst);
}

int MeshTopology::maxRibOffset() const {
  return std::max(shape_.width, shape_.height) - 1;
}

std::string_view MeshTopology::deadlockFreedom() const {
  return "dimension-ordered (XY/YX) routing on a mesh permits no cyclic "
         "channel dependency";
}

// --- wrapping rings --------------------------------------------------------

int minimalRingOffset(int src, int dst, int size) {
  if (src == dst) return 0;
  const int up = (dst - src + size) % size;  // increasing-direction hops
  const int down = size - up;                // decreasing-direction hops
  if (up != down) return up < down ? up : -down;
  return src < dst ? up : -down;  // tie: prefer the non-wrapping path
}

// --- TorusTopology ---------------------------------------------------------

unsigned TorusTopology::portMask(NodeId n) const {
  indexOf(n);
  unsigned mask = 1u << router::index(Port::Local);
  if (shape_.width > 1) {
    mask |= 1u << router::index(Port::East);
    mask |= 1u << router::index(Port::West);
  }
  if (shape_.height > 1) {
    mask |= 1u << router::index(Port::North);
    mask |= 1u << router::index(Port::South);
  }
  return mask;
}

std::optional<NodeId> TorusTopology::neighbor(NodeId n, Port port) const {
  indexOf(n);
  const int w = shape_.width, h = shape_.height;
  switch (port) {
    case Port::North:
      if (h < 2) return std::nullopt;
      return NodeId{n.x, (n.y + 1) % h};
    case Port::South:
      if (h < 2) return std::nullopt;
      return NodeId{n.x, (n.y + h - 1) % h};
    case Port::East:
      if (w < 2) return std::nullopt;
      return NodeId{(n.x + 1) % w, n.y};
    case Port::West:
      if (w < 2) return std::nullopt;
      return NodeId{(n.x + w - 1) % w, n.y};
    case Port::Local: return std::nullopt;
  }
  return std::nullopt;
}

router::Rib TorusTopology::rib(NodeId src, NodeId dst) const {
  indexOf(src);
  indexOf(dst);
  // Without virtual channels routes stay inside the mesh sub-network: no
  // wrap link is ever used, so no ring cycle can close.
  return ribBetween(src, dst);
}

router::Rib TorusTopology::ribFor(NodeId src, NodeId dst, int numVCs) const {
  if (numVCs < 2) return rib(src, dst);
  indexOf(src);
  indexOf(dst);
  return router::Rib{minimalRingOffset(src.x, dst.x, shape_.width),
                     minimalRingOffset(src.y, dst.y, shape_.height)};
}

std::string_view TorusTopology::deadlockFreedom() const {
  return "dimension order breaks cross-axis cycles; numVCs == 1 routes "
         "never wrap (mesh sub-network), and numVCs >= 2 wrap routes ride "
         "the escape VC's dateline classes, which order every ring's "
         "channels acyclically";
}

// --- RingTopology ----------------------------------------------------------

NodeId RingTopology::nodeAt(int index) const {
  if (index < 0 || index >= count_)
    throw std::out_of_range("node index " + std::to_string(index) +
                            " outside " + std::to_string(count_) +
                            "-node ring");
  return NodeId{index, 0};
}

int RingTopology::indexOf(NodeId n) const {
  if (!contains(n))
    throw std::out_of_range("node (" + std::to_string(n.x) + "," +
                            std::to_string(n.y) + ") outside " +
                            std::to_string(count_) + "-node ring");
  return n.x;
}

unsigned RingTopology::portMask(NodeId n) const {
  indexOf(n);
  unsigned mask = 1u << router::index(Port::Local);
  if (count_ > 1) {
    mask |= 1u << router::index(Port::East);
    mask |= 1u << router::index(Port::West);
  }
  return mask;
}

std::optional<NodeId> RingTopology::neighbor(NodeId n, Port port) const {
  indexOf(n);
  if (count_ < 2) return std::nullopt;
  switch (port) {
    case Port::East: return NodeId{(n.x + 1) % count_, 0};
    case Port::West: return NodeId{(n.x + count_ - 1) % count_, 0};
    default: return std::nullopt;
  }
}

router::Rib RingTopology::rib(NodeId src, NodeId dst) const {
  indexOf(src);
  indexOf(dst);
  // Without virtual channels routes never wrap (see TorusTopology::rib).
  return router::Rib{dst.x - src.x, 0};
}

router::Rib RingTopology::ribFor(NodeId src, NodeId dst, int numVCs) const {
  if (numVCs < 2) return rib(src, dst);
  indexOf(src);
  indexOf(dst);
  return router::Rib{minimalRingOffset(src.x, dst.x, count_), 0};
}

std::string_view RingTopology::deadlockFreedom() const {
  return "numVCs == 1 routes never wrap (line sub-network); numVCs >= 2 "
         "wrap routes ride the escape VC's dateline classes, which order "
         "the East and West ring channels acyclically";
}

std::shared_ptr<const Topology> makeTopology(std::string_view kind, int width,
                                             int height) {
  if (kind == "mesh")
    return std::make_shared<MeshTopology>(MeshShape{width, height});
  if (kind == "torus")
    return std::make_shared<TorusTopology>(MeshShape{width, height});
  if (kind == "ring") return std::make_shared<RingTopology>(width * height);
  throw std::invalid_argument("unknown topology: " + std::string(kind));
}

}  // namespace rasoc::noc
