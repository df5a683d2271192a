// Wire bundles for RASoC's external channels and internal crossbar nets.
#pragma once

#include <array>
#include <cstdint>

#include "sim/wire.hpp"

#include "router/flit.hpp"
#include "router/params.hpp"

namespace rasoc::router {

namespace vcarena {
// Lowers a module's phase list (router/vc_arena.hpp); the channels, links
// and NI befriend it.
struct Phases;
// Places a module's packed words (router/vc_arena.hpp).
struct ArenaPlacer;
}  // namespace vcarena

// The data + framing portion of a channel.
struct FlitWires {
  sim::Wire<std::uint32_t> data;
  sim::Wire<bool> bop;
  sim::Wire<bool> eop;
};

// The flit on a FlitWires bundle (vc stays 0), and driving one onto it.
inline Flit readFlit(const FlitWires& w) {
  Flit f;
  f.data = w.data.get();
  f.bop = w.bop.get();
  f.eop = w.eop.get();
  return f;
}
inline void driveFlit(FlitWires& w, const Flit& f) {
  w.data.set(f.data);
  w.bop.set(f.bop);
  w.eop.set(f.eop);
}

// One unidirectional channel (paper Figure 3): n data bits, bop/eop framing
// and the val/ack handshake pair.  `ack` travels against the data flow.
//
// Virtual channels (numVCs > 1) extend the bundle out-of-band — the
// original wires keep their exact single-VC semantics so a numVCs == 1
// network is bit-identical to the paper's router:
//
//   vc         : which VC the flit on `flit`/`val` belongs to (downstream)
//   vcFree[v]  : receiver has buffer space on VC v (upstream, level).  The
//                sender only schedules a VC whose vcFree is asserted, which
//                replaces the per-flit val/ack round trip with on/off flow
//                control; a fault-injecting link masks the whole array to
//                model an outage.
//   vcAck[v]   : credit-return pulse for VC v (upstream, credit-based flow
//                control only).  Per-VC because two VCs of one input port
//                can each pop a flit in the same cycle through different
//                output ports.
//
// Wires above RouterParams::numVCs are never driven or read.
struct ChannelWires {
  FlitWires flit;
  sim::Wire<bool> val;
  sim::Wire<bool> ack;
  sim::Wire<int> vc;
  std::array<sim::Wire<bool>, kMaxVCs> vcFree;
  std::array<sim::Wire<bool>, kMaxVCs> vcAck;
};

// The nets one input channel publishes to / receives from the distributed
// crossbar (prefix x_ in the paper's terminology).
//
//   data/bop/eop : x_dout - buffered flit, header already RIB-updated
//   rok          : x_rok  - a flit is available at the buffer head
//   req[o]       : x_req  - request to output channel o
//   gnt[o]       : x_gnt  - grant from output channel o
//   rd[o]        : x_rd   - read command from output channel o
//
// req/gnt/rd are indexed by output port; the entry for the input's own port
// is never asserted ("it is not allowed to an input channel to request the
// output channel of its own port").
// With virtual channels the crossbar is replicated per (input port, VC);
// `want` then carries the VC-allocation request alongside req, as a bitmask
// of the downstream VCs the bidding header may take: a one-bit mask naming
// an escape-routed header's dateline class, or the adaptive VC set (the
// packet class's qosVcMask() subset under RouterParams::qosClasses) for
// adaptive headers (see VcOutputChannel).  Unused at numVCs == 1.
struct CrossbarWires {
  FlitWires flit;
  sim::Wire<bool> rok;
  sim::Wire<int> want;
  std::array<sim::Wire<bool>, kNumPorts> req;
  std::array<sim::Wire<bool>, kNumPorts> gnt;
  std::array<sim::Wire<bool>, kNumPorts> rd;
};

// The nets between the paper's blocks inside one single-VC input channel
// (IFC/IB/IC/IRS: the buffer head, its wok/rok status and the wr/rd
// strobes) and one single-VC output channel (OC/ODS/ORS/OFC: the
// connection state, the selected input, its rok and the read strobe).
struct InputBlockNets {
  FlitWires dout;
  sim::Wire<bool> wok;
  sim::Wire<bool> rok;
  sim::Wire<bool> wr;
  sim::Wire<bool> rd;
};
struct OutputBlockNets {
  sim::Wire<bool> connected;
  sim::Wire<int> sel;
  sim::Wire<bool> rokSel;
  sim::Wire<bool> xRd;
};

// Single-VC crossbar, one bundle per input port: the mask of inputs (bit
// i) whose req line to output `own` is raised, and driving output `own`'s
// rd line of every input.
inline unsigned requestMask(const std::array<CrossbarWires, kNumPorts>& xbar,
                            Port own) {
  unsigned m = 0;
  for (int i = 0; i < kNumPorts; ++i)
    if (xbar[static_cast<std::size_t>(i)].req[index(own)].get()) m |= 1u << i;
  return m;
}
inline void driveReads(std::array<CrossbarWires, kNumPorts>& xbar, Port own,
                       bool v) {
  for (CrossbarWires& in : xbar) in.rd[index(own)].set(v);
}

}  // namespace rasoc::router
