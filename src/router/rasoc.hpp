// rasoc - the router top level (paper Figures 2 and 4).
//
// Externally a routing switch with up to five bidirectional ports (L, N, E,
// S, W), each made of two opposite unidirectional channels carrying n data
// bits, bop/eop framing and val/ack flow control (Figure 3).  Internally a
// distributed organization: one input channel and one output channel module
// per instantiated port, connected through the x_* crossbar nets.
//
// The class mirrors the VHDL soft-core's generics: RouterParams carries
// (n, m, p) plus the instantiated-port mask, the FIFO microarchitecture and
// the link flow-control strategy.  Ports absent from the mask are simply
// not constructed, "reducing the network area" exactly as the paper's
// Section 2 describes for edge and corner routers.
#pragma once

#include <array>
#include <memory>

#include "sim/module.hpp"
#include "telemetry/metrics.hpp"

#include "router/channel.hpp"
#include "router/input_channel.hpp"
#include "router/output_channel.hpp"
#include "router/params.hpp"

namespace rasoc::router {

// With params.numVCs == 1 the router instantiates the original fused
// channel pair, byte-identical to the pre-VC core.  With numVCs > 1 each
// port gets the virtual-channel pair (VcInputChannel / VcOutputChannel) and
// the crossbar nets are replicated per VC; `geometry` then places the
// router in its topology so escape-VC dateline classes can be computed
// locally (params.hpp, VcGeometry).
class Rasoc : public sim::Module {
 public:
  explicit Rasoc(std::string name, RouterParams params,
                 ArbiterKind arbiter = ArbiterKind::RoundRobin,
                 VcGeometry geometry = {});

  const RouterParams& params() const { return params_; }
  const VcGeometry& geometry() const { return geometry_; }
  bool vcMode() const { return params_.numVCs > 1; }

  // External channel wire bundles.  Throws std::out_of_range for a port not
  // present in params().portMask.
  ChannelWires& in(Port p);
  ChannelWires& out(Port p);
  const ChannelWires& in(Port p) const;
  const ChannelWires& out(Port p) const;

  // numVCs == 1 channel accessors; throw std::logic_error in VC mode.
  const InputChannel& inputChannel(Port p) const;
  const OutputChannel& outputChannel(Port p) const;
  // numVCs > 1 channel accessors; throw std::logic_error otherwise.
  const VcInputChannel& vcInputChannel(Port p) const;
  const VcOutputChannel& vcOutputChannel(Port p) const;

  // Diagnostics aggregated over all channels (sticky since reset).
  bool misrouteDetected() const;
  bool overflowDetected() const;

  // Registers the standard per-channel series under `prefix` (see the
  // naming convention in telemetry/metrics.hpp) and attaches them to every
  // instantiated channel.  The registry must outlive this router.
  void attachMetrics(telemetry::MetricsRegistry& registry,
                     const std::string& prefix);

  // Lowering: the router top is a structural shell (no
  // evaluate/clockEdge of its own), so lowering just recurses into the
  // channel modules and emits nothing for the shell.
  bool describe(sim::Lowering& lw) override;

 private:
  void requirePort(Port p) const;

  RouterParams params_;
  VcGeometry geometry_;
  std::array<ChannelWires, kNumPorts> inWires_;
  std::array<ChannelWires, kNumPorts> outWires_;
  std::array<CrossbarWires, kNumPorts> xbar_;
  std::array<std::unique_ptr<InputChannel>, kNumPorts> inputs_;
  std::array<std::unique_ptr<OutputChannel>, kNumPorts> outputs_;
  // numVCs > 1: per-VC crossbar nets (heap: kNumPorts * kMaxVCs wire
  // bundles are only paid for when VCs are enabled) and the VC channels.
  std::unique_ptr<std::array<std::array<CrossbarWires, kMaxVCs>, kNumPorts>>
      vcXbar_;
  std::array<std::unique_ptr<VcInputChannel>, kNumPorts> vcInputs_;
  std::array<std::unique_ptr<VcOutputChannel>, kNumPorts> vcOutputs_;
};

}  // namespace rasoc::router
