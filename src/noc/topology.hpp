/// \file
/// Network topology layer: node geometry, per-node port pruning, adjacency,
/// and source-route (RIB) computation.
///
/// RASoC itself is topology-agnostic - the router just follows the
/// signed-magnitude RIB in each header and prunes unused ports - so
/// everything grid-specific lives behind the Topology interface.  Instances
/// shipped here:
///
///   MeshTopology   - the paper's 2D mesh with pruned edge ports and XY
///                    source routing (deadlock-free by dimension order).
///   TorusTopology  - wraparound XY.  rib() (the numVCs == 1 route) stays
///                    inside the mesh sub-network, so no wrap link is ever
///                    a channel dependency; ribFor() with numVCs >= 2
///                    issues minimal possibly-wrapping routes, which the
///                    router's escape virtual channel makes deadlock-free
///                    (router/ic.hpp, escapeClass).
///   RingTopology   - bidirectional ring using only the L/E/W ports, the
///                    1D instance of the same scheme.
///
/// Coordinates: x grows East (column), y grows North (row).  Node (0,0) is
/// the south-west corner.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "router/flit.hpp"
#include "router/params.hpp"

namespace rasoc::noc {

struct NodeId {
  int x = 0;
  int y = 0;

  bool operator==(const NodeId&) const = default;
};

/// Bounding box of a topology's coordinates, used by heatmaps and pattern
/// generators that need the grid dimensions.
struct Extent {
  int width = 0;
  int height = 0;
};

/// A directed link: the channel leaving `from` through `port`.
struct LinkId {
  NodeId from;
  router::Port port = router::Port::East;

  bool operator<(const LinkId& o) const {
    if (from.y != o.from.y) return from.y < o.from.y;
    if (from.x != o.from.x) return from.x < o.from.x;
    return router::index(port) < router::index(o.port);
  }
  bool operator==(const LinkId&) const = default;
};

struct MeshShape {
  int width = 4;   // columns (East-West extent)
  int height = 4;  // rows (North-South extent)

  int nodes() const { return width * height; }

  bool contains(NodeId n) const {
    return n.x >= 0 && n.x < width && n.y >= 0 && n.y < height;
  }

  /// Throws std::out_of_range for nodes outside the shape: a silently
  /// wrapped index would alias a different node and corrupt whatever table
  /// it keys.
  int indexOf(NodeId n) const {
    if (!contains(n))
      throw std::out_of_range("node (" + std::to_string(n.x) + "," +
                              std::to_string(n.y) + ") outside " +
                              std::to_string(width) + "x" +
                              std::to_string(height) + " mesh");
    return n.y * width + n.x;
  }

  NodeId nodeAt(int index) const {
    if (index < 0 || index >= nodes())
      throw std::out_of_range("node index " + std::to_string(index) +
                              " outside " + std::to_string(nodes()) +
                              "-node mesh");
    return NodeId{index % width, index / width};
  }

  void validate() const {
    if (width < 1 || height < 1)
      throw std::invalid_argument("mesh must be at least 1x1");
  }
};

/// Ports a router needs at a given mesh position ("one or two of them need
/// not be implemented, reducing the network area").
inline unsigned portMaskFor(MeshShape shape, NodeId n) {
  using router::Port;
  unsigned mask = 1u << router::index(Port::Local);
  if (n.y + 1 < shape.height) mask |= 1u << router::index(Port::North);
  if (n.y > 0) mask |= 1u << router::index(Port::South);
  if (n.x + 1 < shape.width) mask |= 1u << router::index(Port::East);
  if (n.x > 0) mask |= 1u << router::index(Port::West);
  return mask;
}

/// Source-based XY routing information for a src -> dst packet on a mesh.
inline router::Rib ribBetween(NodeId src, NodeId dst) {
  return router::Rib{dst.x - src.x, dst.y - src.y};
}

/// Hop count of the mesh XY path (router traversals, excluding the NIs).
inline int xyHops(NodeId src, NodeId dst) {
  const int dx = dst.x >= src.x ? dst.x - src.x : src.x - dst.x;
  const int dy = dst.y >= src.y ? dst.y - src.y : src.y - dst.y;
  return dx + dy + 1;  // +1: the destination router itself switches to L
}

/// Abstract network topology.  An instance defines the node set, which
/// router ports each node instantiates, the links between them, and the RIB
/// a source NI writes into a header so the unmodified RASoC routing logic
/// delivers the packet.
///
/// Contracts:
///  * nodeAt/indexOf are inverse bijections over [0, nodes()) and throw
///    std::out_of_range outside it (never wrap silently).
///  * Adjacency is symmetric: neighbor(a, P) == b implies
///    neighbor(b, opposite(P)) == a (checkAdjacency() verifies).
///  * rib(src, dst) routes src -> dst along existing links for both XY and
///    YX dimension orders, and fully consumes the offset at dst (the NI's
///    residual-RIB-zero delivery invariant).
///  * deadlockFreedom() states why saturated wormhole traffic cannot
///    deadlock on this instance (or the routing restriction ensuring it).
class Topology {
 public:
  virtual ~Topology() = default;

  virtual std::string_view kind() const = 0;  // "mesh" | "torus" | "ring"
  virtual int nodes() const = 0;
  virtual bool contains(NodeId n) const = 0;
  virtual NodeId nodeAt(int index) const = 0;
  virtual int indexOf(NodeId n) const = 0;
  virtual Extent extent() const = 0;
  virtual unsigned portMask(NodeId n) const = 0;
  virtual std::optional<NodeId> neighbor(NodeId n, router::Port port)
      const = 0;
  virtual router::Rib rib(NodeId src, NodeId dst) const = 0;
  virtual std::string_view deadlockFreedom() const = 0;
  virtual void validate() const = 0;

  /// The RIB a source NI should write when the network runs `numVCs`
  /// virtual channels.  The default forwards to rib(); wrapping topologies
  /// override it to issue minimal possibly-wrapping routes once an escape
  /// VC exists to make them safe (numVCs >= 2).  Ties between directions
  /// of equal length prefer the non-wrapping one.
  virtual router::Rib ribFor(NodeId src, NodeId dst, int numVCs) const {
    (void)numVCs;
    return rib(src, dst);
  }

  /// "mesh4x4", "torus8x8", "ring16" - stable id for reports and benches.
  std::string describe() const;

  /// Links traversed by a src -> dst packet under the given dimension
  /// order, derived by walking the adjacency with the router's own routing
  /// function (so predictions can never diverge from the hardware).  With
  /// numVCs > 1 this is the deterministic escape (dimension-order) path of
  /// the ribFor() route; adaptive VCs may deviate from it hop by hop.
  std::vector<LinkId> routePath(
      NodeId src, NodeId dst,
      router::RoutingAlgorithm algorithm = router::RoutingAlgorithm::XY,
      int numVCs = 1) const;

  /// Router traversals of the XY route including the delivering router.
  virtual int hops(NodeId src, NodeId dst) const;

  /// Largest per-axis RIB magnitude any route needs (checked against
  /// router::ribMaxOffset when a network is built).
  virtual int maxRibOffset() const;

  /// Throws std::logic_error if any link lacks its reverse or a port mask
  /// disagrees with the adjacency.
  void checkAdjacency() const;
};

/// The paper's 2D mesh: pruned edge ports, minimal XY source routing.
/// Deadlock-free: dimension-ordered routing on a mesh admits no cyclic
/// channel dependency (turns from Y back to X never occur).
class MeshTopology final : public Topology {
 public:
  explicit MeshTopology(MeshShape shape) : shape_(shape) {}
  MeshTopology(int width, int height) : shape_{width, height} {}

  MeshShape shape() const { return shape_; }

  std::string_view kind() const override { return "mesh"; }
  int nodes() const override { return shape_.nodes(); }
  bool contains(NodeId n) const override { return shape_.contains(n); }
  NodeId nodeAt(int index) const override { return shape_.nodeAt(index); }
  int indexOf(NodeId n) const override { return shape_.indexOf(n); }
  Extent extent() const override { return {shape_.width, shape_.height}; }
  unsigned portMask(NodeId n) const override;
  std::optional<NodeId> neighbor(NodeId n, router::Port port) const override;
  router::Rib rib(NodeId src, NodeId dst) const override;
  int hops(NodeId src, NodeId dst) const override;
  int maxRibOffset() const override;
  std::string_view deadlockFreedom() const override;
  void validate() const override { shape_.validate(); }

 private:
  MeshShape shape_;
};

/// 2D torus: every row and column closes into a ring, every router keeps
/// all five ports, and the source picks the wrap direction per axis.
///
/// Deadlock freedom: routing is dimension-ordered (X ring fully, then Y
/// ring), so cross-dimension cycles cannot form.  At numVCs == 1 (rib())
/// routes never wrap - the network is used as a mesh and no ring cycle can
/// close.  At numVCs >= 2 (ribFor()) routes are minimal and may wrap; the
/// escape virtual channel's dateline classes (router/ic.hpp, escapeClass)
/// then break each ring's channel-dependency cycle: a route holds escape
/// class 1 until it has taken its wrap hop and class 0 afterwards, and
/// class-1 channels are totally ordered before class-0 ones.
class TorusTopology final : public Topology {
 public:
  TorusTopology(int width, int height) : shape_{width, height} {}
  explicit TorusTopology(MeshShape shape) : shape_(shape) {}

  std::string_view kind() const override { return "torus"; }
  int nodes() const override { return shape_.nodes(); }
  bool contains(NodeId n) const override { return shape_.contains(n); }
  NodeId nodeAt(int index) const override { return shape_.nodeAt(index); }
  int indexOf(NodeId n) const override { return shape_.indexOf(n); }
  Extent extent() const override { return {shape_.width, shape_.height}; }
  unsigned portMask(NodeId n) const override;
  std::optional<NodeId> neighbor(NodeId n, router::Port port) const override;
  router::Rib rib(NodeId src, NodeId dst) const override;
  router::Rib ribFor(NodeId src, NodeId dst, int numVCs) const override;
  std::string_view deadlockFreedom() const override;
  void validate() const override { shape_.validate(); }

 private:
  MeshShape shape_;
};

/// Bidirectional ring of `count` nodes at (i, 0), the 1D torus: only the
/// L/E/W ports are instantiated (the port pruning the paper describes for
/// mesh edges, applied to a whole axis), East wraps i -> (i+1) mod N.
///
/// Deadlock freedom: the same scheme as TorusTopology on the single X
/// ring - non-wrapping routes at numVCs == 1, minimal routes protected by
/// the escape VC's dateline classes at numVCs >= 2.
class RingTopology final : public Topology {
 public:
  explicit RingTopology(int count) : count_(count) {}

  int count() const { return count_; }

  std::string_view kind() const override { return "ring"; }
  int nodes() const override { return count_; }
  bool contains(NodeId n) const override {
    return n.y == 0 && n.x >= 0 && n.x < count_;
  }
  NodeId nodeAt(int index) const override;
  int indexOf(NodeId n) const override;
  Extent extent() const override { return {count_, 1}; }
  unsigned portMask(NodeId n) const override;
  std::optional<NodeId> neighbor(NodeId n, router::Port port) const override;
  router::Rib rib(NodeId src, NodeId dst) const override;
  router::Rib ribFor(NodeId src, NodeId dst, int numVCs) const override;
  std::string_view deadlockFreedom() const override;
  void validate() const override {
    if (count_ < 1) throw std::invalid_argument("ring needs >= 1 node");
  }

 private:
  int count_;
};

/// Signed hop offset src -> dst along a ring of `size` nodes taking the
/// shorter way around: positive = increasing direction (East/North),
/// negative = decreasing.  Equal-length ties prefer the direct
/// (non-wrapping) direction.  Only safe with an escape VC (numVCs >= 2).
int minimalRingOffset(int src, int dst, int size);

/// Where node `n` sits for the escape-VC routing of a VC'd router: its
/// coordinates, the extent and which axes wrap.  An axis wraps when the
/// origin has a West (resp. South) link, which only a wrapping axis gives
/// it.
router::VcGeometry vcGeometry(const Topology& topology, NodeId n);

/// Builds the topology named by `kind` ("mesh" | "torus" | "ring") over a
/// WxH extent (a ring uses width*height nodes).  Throws on unknown names.
std::shared_ptr<const Topology> makeTopology(std::string_view kind, int width,
                                             int height);

}  // namespace rasoc::noc
