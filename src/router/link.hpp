/// \file
/// Point-to-point link between two routers (or a router and a network
/// interface): forwards the data/framing/val wires downstream and the
/// ack/credit wire upstream, and counts transferred flits for utilization
/// statistics.
#pragma once

#include <cstdint>

#include "sim/module.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"
#include "router/vc_arena.hpp"

namespace rasoc::router {

/// Combinational point-to-point channel segment.
///
/// A Link is pass-through wiring plus bookkeeping: it copies the sender's
/// flit/val wires downstream and the receiver's ack wire upstream every
/// settle, and counts transferred flits at the clock edge (a transfer is
/// `val && ack` under handshake flow control, `val` under credit-based
/// flow control where `ack` carries returning credits instead).  The
/// copies pass through a registered fault mask (Faults), which only a
/// fault-injecting link (FaultyLink) ever changes.
class Link : public sim::Module {
 public:
  /// `src` is an output channel bundle (val driven by the sender, ack read
  /// by it); `dst` is an input channel bundle (val read by the receiver, ack
  /// driven by it).  With `numVCs` > 1 the link additionally forwards the
  /// flit's vc tag downstream and the per-VC vcFree levels and vcAck credit
  /// pulses upstream; the ack wire is unused (transfers are unconditional
  /// once scheduled — see router/channel.hpp).
  Link(std::string name, ChannelWires& src, ChannelWires& dst,
       FlowControl flowControl = FlowControl::Handshake, int numVCs = 1);

  ~Link() override = default;

  /// Total flits that crossed the link since the last reset.
  std::uint64_t flitsTransferred() const { return flitsTransferred_; }

  /// Cycles in which the link carried a flit / total cycles observed.
  double utilization(std::uint64_t cycles) const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(flitsTransferred_) /
                             static_cast<double>(cycles);
  }

  /// True when the sender is offering a flit that the receiver is not
  /// accepting this cycle.  Only meaningful under handshake flow control
  /// (credit-based links signal backpressure at the sender, not on the
  /// wire), so it reports false there.  Read after settle — e.g. from a
  /// watchdog diagnostics callback — to name wedged links.
  bool blocked() const {
    return flowControl_ == FlowControl::Handshake && numVCs_ == 1 &&
           src_->val.get() && !src_->ack.get();
  }

  /// Lowering, one layout for every VC count: the phase list, as arena
  /// ops over the channel words of router/vc_arena.hpp.
  bool describe(sim::Lowering& lw) override;

 protected:
  /// How the single-VC ack wire travels upstream: copied from the
  /// receiver, held low (a stall), or raised for an offered body flit,
  /// which is then consumed without being presented downstream (link
  /// down).
  enum class AckPath : std::uint8_t { Copy, Stall, Consume };

  /// Registered fault state the combinational phases read.  A plain link
  /// keeps the defaults; a fault-injecting link recomputes it at reset and
  /// at its clock edge, so it is stable within each settle.
  struct Faults {
    /// ANDed into the forward copy and the vcFree levels: all ones, or 0
    /// while the link presents nothing downstream and advertises no space.
    std::uint64_t keep = ~std::uint64_t{0};
    /// XORed into the data of non-header flits (headers pass clean).
    std::uint32_t flip = 0;
    AckPath ack = AckPath::Copy;
  };

  void onReset() override;

  // The link's phases, its transfer test and its edge are written once
  // over a vcarena::ChannelIo of the source (kSrc) and destination (kDst)
  // channel words, and listed once in phases() (vcarena::Phases).
  friend struct vcarena::Phases;
  static constexpr std::size_t kSrc = 0;
  static constexpr std::size_t kDst = 1;
  using SignalIo = vcarena::ChannelIo;
  vcarena::ChannelRefs layout(const vcarena::ArenaPlacer& place) const {
    return {place(vcarena::WireTwin::channel(*src_, numVCs_)),
            place(vcarena::WireTwin::channel(*dst_, numVCs_))};
  }

  /// The phase list: one settle op per direction, then the edge.
  template <class Emit>
  void phases(const Emit& emit, const vcarena::ChannelRefs& r) const {
    phases(emit, r, 0, [](Link& m, const auto& io) { m.edge(io); });
  }
  /// The same settle ops, then `edge`: a derived link's list.  `offer`:
  /// the source bits its single-VC ack op reads besides the receiver's ack
  /// (a link that can consume flits reads the offered flit's framing).
  template <class Emit, class Edge>
  void phases(const Emit& emit, const vcarena::ChannelRefs& r,
              std::uint64_t offer, Edge edge) const;

  /// True when the offered flit crosses at this edge: `val && ack` under
  /// single-VC handshake flow control, `val` otherwise (a credit or VC
  /// sender only raises val against space).
  bool transferring(const SignalIo& io) const {
    const std::uint64_t need =
        flowControl_ == FlowControl::Handshake && numVCs_ == 1
            ? vcarena::bit(vcarena::kVal) | vcarena::bit(vcarena::kAck)
            : vcarena::bit(vcarena::kVal);
    return io.word(kSrc, need) == need;
  }
  /// The edge: counts a transferred flit.
  void edge(const SignalIo& io) {
    if (transferring(io)) ++flitsTransferred_;
  }

  int numVCs() const { return numVCs_; }
  FlowControl flowControl() const { return flowControl_; }

  Faults faults_;

 private:
  void forward(const SignalIo& io) const;
  void reverseAck(const SignalIo& io) const;
  void reverseVcFree(const SignalIo& io) const;
  void reverseVcAck(const SignalIo& io) const;

  ChannelWires* src_;
  ChannelWires* dst_;
  FlowControl flowControl_;
  int numVCs_ = 1;
  std::uint64_t flitsTransferred_ = 0;
};

// --- phases, over the source and destination channel words --------------
//
// In the header: a derived link's lowering inlines them too.

inline void Link::forward(const SignalIo& io) const {
  std::uint64_t f = io.word(kSrc, vcarena::kForwardMask);
  if ((f & vcarena::bit(vcarena::kBop)) == 0) f ^= faults_.flip;
  io.put(kDst, vcarena::kForwardMask, f & faults_.keep);
}

inline void Link::reverseAck(const SignalIo& io) const {
  std::uint64_t ack = 0;
  switch (faults_.ack) {
    case AckPath::Copy:
      ack = io.word(kDst, vcarena::bit(vcarena::kAck));
      break;
    case AckPath::Stall:
      break;
    case AckPath::Consume: {
      // An offered body flit: val set, neither bop nor eop.
      constexpr std::uint64_t kFraming = vcarena::bit(vcarena::kBop) |
                                         vcarena::bit(vcarena::kEop) |
                                         vcarena::bit(vcarena::kVal);
      if (io.word(kSrc, kFraming) == vcarena::bit(vcarena::kVal))
        ack = vcarena::bit(vcarena::kAck);
      break;
    }
  }
  io.put(kSrc, vcarena::bit(vcarena::kAck), ack);
}

inline void Link::reverseVcFree(const SignalIo& io) const {
  io.put(kSrc, vcarena::kFreeMask,
         io.word(kDst, vcarena::kFreeMask) & faults_.keep);
}

inline void Link::reverseVcAck(const SignalIo& io) const {
  io.put(kSrc, vcarena::kVcAckMask, io.word(kDst, vcarena::kVcAckMask));
}

// --- the phase list ------------------------------------------------------
//
// One op per direction over the two channel words: flit + val + vc
// downstream, ack (single VC) or the vcFree levels and vcAck pulses (VCs)
// upstream.  Fusing the directions would tie the downstream val driver to
// the downstream ack reader and manufacture a false combinational cycle
// through the receiving router's flow controller.

template <class Emit, class Edge>
void Link::phases(const Emit& emit, const vcarena::ChannelRefs& r,
                  std::uint64_t offer, Edge edge) const {
  const std::uint32_t src = r[kSrc];
  const std::uint32_t dst = r[kDst];
  emit.op([](Link& m, const auto& io) { m.forward(io); },
          {{src, vcarena::kForwardMask}}, {{dst, vcarena::kForwardMask}});
  if (numVCs_ == 1) {
    emit.op([](Link& m, const auto& io) { m.reverseAck(io); },
            {{dst, vcarena::bit(vcarena::kAck)}, {src, offer}},
            {{src, vcarena::bit(vcarena::kAck)}});
  } else {
    // The two VC reverse fields need separate ops: under credit flow
    // control vcAck is driven from the receiver's rd, which the receiver
    // computes from the vcFree of the next hop, so one op carrying both
    // would close a cycle through neighbouring routers.
    emit.op([](Link& m, const auto& io) { m.reverseVcFree(io); },
            {{dst, vcarena::kFreeMask}}, {{src, vcarena::kFreeMask}});
    // vcAck pulses exist only under credit flow control; on/off links
    // never see one.
    if (flowControl_ == FlowControl::CreditBased)
      emit.op([](Link& m, const auto& io) { m.reverseVcAck(io); },
              {{dst, vcarena::kVcAckMask}}, {{src, vcarena::kVcAckMask}});
  }
  emit.edge(edge);
}

}  // namespace rasoc::router
