// Router ports and generic parameters.
//
// RASoC exposes three VHDL generics (paper Section 3):
//   n - data channel width in bits (typical: 8, 16, 32),
//   m - width of the Routing Information Bits (RIB) field in the header,
//   p - FIFO depth in flits.
// plus the set of ports actually instantiated ("Depending on the position
// of a RASoC instance on the NoC ... one or two of them need not be
// implemented, reducing the network area", Section 2).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string_view>

namespace rasoc::router {

// The five bidirectional ports (paper Figure 2).
enum class Port : int { Local = 0, North = 1, East = 2, South = 3, West = 4 };

inline constexpr int kNumPorts = 5;

inline constexpr std::array<Port, kNumPorts> kAllPorts = {
    Port::Local, Port::North, Port::East, Port::South, Port::West};

constexpr int index(Port p) { return static_cast<int>(p); }

constexpr std::string_view name(Port p) {
  switch (p) {
    case Port::Local: return "L";
    case Port::North: return "N";
    case Port::East: return "E";
    case Port::South: return "S";
    case Port::West: return "W";
  }
  return "?";
}

// The port a link to a neighbouring router arrives on: a flit leaving East
// enters the neighbour's West port, and so on.  Local has no opposite.
constexpr Port opposite(Port p) {
  switch (p) {
    case Port::North: return Port::South;
    case Port::East: return Port::West;
    case Port::South: return Port::North;
    case Port::West: return Port::East;
    case Port::Local: break;
  }
  throw std::invalid_argument("Local port has no opposite");
}

// Which FIFO microarchitecture the input buffers use (paper Section 3):
// flip-flop shift registers with an output multiplexer, or Altera EAB
// embedded memory.  The two differ in cost, not behaviour: the cost model
// (softcore, tech), the VHDL writer and the FemtoJava table read it, and
// the simulator does not (every buffer runs on router/fifo.hpp's one ring).
enum class FifoImpl { FlipFlop, Eab };

constexpr std::string_view name(FifoImpl impl) {
  return impl == FifoImpl::FlipFlop ? "FF-based" : "EAB-based";
}

// Link-level flow control at the output channel (paper Section 2.2: the
// handshake OFC "can be easily replaced to implement the required logic
// (eg. an up/down counter in a credit-based strategy)").
enum class FlowControl { Handshake, CreditBased };

// Deterministic dimension-ordered routing: XY (the paper's choice) routes
// the X offset first; YX routes Y first.  Both are deadlock-free on a
// mesh.
enum class RoutingAlgorithm { XY, YX };

// Upper bound on virtual channels per physical channel.  Wire bundles
// (router/channel.hpp) size their per-VC arrays to this so a router's
// external interface is independent of the configured count; wires beyond
// RouterParams::numVCs are never driven.
inline constexpr int kMaxVCs = 4;

// --- QoS traffic classes (RouterParams::qosClasses) ------------------------
//
// Four service classes, ordered by priority (higher enum value = higher
// priority).  The class is tagged at the source NI, carried in the header
// flit's data bits [m, m+2) — above the RIB, which updateHeader() preserves
// at every hop — and mapped onto disjoint sets of adaptive virtual channels
// (qosVcMask).  Output channels then arbitrate between downstream VCs with
// strict priority plus a starvation guard (output_channel.hpp), which is
// what turns the VC separation into per-class latency isolation.
enum class TrafficClass : int {
  BestEffort = 0,  // unreserved background traffic
  Bulk = 1,        // high-volume transfers; may saturate its channel
  Latency = 2,     // latency-sensitive application traffic
  Control = 3,     // control-plane / protocol traffic; never starves
};

inline constexpr int kNumTrafficClasses = 4;

constexpr std::string_view name(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::BestEffort: return "best_effort";
    case TrafficClass::Bulk: return "bulk";
    case TrafficClass::Latency: return "latency";
    case TrafficClass::Control: return "control";
  }
  return "?";
}

// Class -> adaptive-VC-set policy, shared by the NI (injection VC), the
// VC'd input channel (which downstream VCs a header may bid for) and tests.
// Escape VCs [0, escapeVCs) stay class-agnostic: they are the deadlock-
// freedom substrate every starved header can fall back onto (DESIGN.md
// §13).  With a = numVCs - escapeVCs adaptive VCs:
//   a >= 3: Control gets the top VC exclusively, Latency the next one,
//           Bulk and BestEffort share the remaining adaptive VCs.
//   a == 2: Control gets the top VC exclusively, the other three classes
//           share the remaining adaptive VC.
// QoS requires a >= 2 (an exclusive Control channel is the isolation
// claim); the network builder validates this.
constexpr unsigned qosVcMask(TrafficClass cls, int numVCs, int escapeVCs) {
  const unsigned adaptive = ((1u << numVCs) - 1u) & ~((1u << escapeVCs) - 1u);
  const unsigned top = 1u << (numVCs - 1);
  if (numVCs - escapeVCs >= 3) {
    const unsigned second = 1u << (numVCs - 2);
    switch (cls) {
      case TrafficClass::Control: return top;
      case TrafficClass::Latency: return second;
      default: return adaptive & ~(top | second);
    }
  }
  return cls == TrafficClass::Control ? top : adaptive & ~top;
}

// The adaptive VC the NI injects packets of class `cls` on: the lowest VC
// of the class's mask (deterministic, so per-VC send queues stay FIFO per
// class set).
constexpr int qosInjectVc(TrafficClass cls, int numVCs, int escapeVCs) {
  const unsigned mask = qosVcMask(cls, numVCs, escapeVCs);
  for (int v = 0; v < numVCs; ++v)
    if ((mask >> v) & 1u) return v;
  return escapeVCs;  // unreachable for valid configurations
}

// Where a router sits in its network, for the escape-channel routing used
// when numVCs > 1 (see input_channel.hpp, VcInputChannel).  A VC'd router
// needs to know its own coordinates and which axes wrap to classify each
// hop into a dateline class; a default-constructed geometry describes a
// standalone (non-wrapping) router at the origin.
struct VcGeometry {
  int x = 0;
  int y = 0;
  int width = 1;
  int height = 1;
  bool wrapX = false;
  bool wrapY = false;

  // Escape (deterministic) VCs required for deadlock freedom: one on a
  // mesh, two on wrapping topologies (dateline classes 0 and 1).
  int escapeVCs() const { return (wrapX || wrapY) ? 2 : 1; }
};

constexpr std::string_view name(RoutingAlgorithm algorithm) {
  return algorithm == RoutingAlgorithm::XY ? "XY" : "YX";
}

struct RouterParams {
  int n = 8;   // data bits per flit (excluding bop/eop framing)
  int m = 8;   // RIB width; m/2 bits per axis, signed-magnitude
  int p = 4;   // FIFO depth in flits

  FifoImpl fifoImpl = FifoImpl::Eab;  // cost model only (see FifoImpl)
  FlowControl flowControl = FlowControl::Handshake;

  // Dimension order of the deterministic routing function.  RASoC uses XY
  // (paper Section 2); YX is the symmetric alternative the routing
  // ablation compares against.
  RoutingAlgorithm routing = RoutingAlgorithm::XY;

  // Virtual channels per physical channel.  1 (the paper's router) keeps
  // the original single-FIFO channels and wire protocol bit-identical;
  // >1 replicates the input FIFO state per VC and switches the channels to
  // the VC-aware implementations (input_channel.hpp / output_channel.hpp),
  // with VC 0..escapeVCs-1 reserved for deterministic escape routing.
  int numVCs = 1;

  // QoS traffic classes over the VC substrate (numVCs > 1 only).  When set,
  // headers carry a TrafficClass in data bits [m, m+2), adaptive headers
  // may only bid for the downstream VCs of their class (qosVcMask), and
  // output channels schedule downstream VCs with strict priority plus a
  // starvation guard instead of round-robin.  Off (the default) keeps VC
  // behavior exactly as before: the class bits stay zero and every adaptive
  // header may take any adaptive VC.
  bool qosClasses = false;

  // Bitmask of instantiated ports; bit index(Port).  Full routers use all
  // five; mesh corner/edge routers prune the dangling ones.
  unsigned portMask = 0x1f;

  bool hasPort(Port p) const { return (portMask >> index(p)) & 1u; }

  int portCount() const {
    int c = 0;
    for (Port p : kAllPorts) c += hasPort(p) ? 1 : 0;
    return c;
  }

  // Flit width on the wire: n data bits + bop + eop framing.
  int flitBits() const { return n + 2; }

  void validate() const {
    if (n < 2 || n > 32) throw std::invalid_argument("n must be in [2,32]");
    if (m < 2 || m > 16 || m % 2 != 0)
      throw std::invalid_argument("m must be even and in [2,16]");
    if (m > n)
      throw std::invalid_argument("RIB must fit in the header data bits");
    if (p < 1 || p > 64) throw std::invalid_argument("p must be in [1,64]");
    if (numVCs < 1 || numVCs > kMaxVCs)
      throw std::invalid_argument("numVCs must be in [1,kMaxVCs]");
    if (qosClasses) {
      if (numVCs < 2)
        throw std::invalid_argument("qosClasses requires numVCs > 1");
      if (m + 2 > n)
        throw std::invalid_argument(
            "qosClasses needs 2 header bits above the RIB (n >= m + 2)");
    }
    if ((portMask & 0x1fu) == 0 || portMask > 0x1fu)
      throw std::invalid_argument("portMask must select 1..5 of 5 ports");
  }
};

}  // namespace rasoc::router
