// The poke window under quiet single-VC channels.  The compiled kernel's
// fused channel ops skip a settle while their inputs and registered state
// are at rest (DESIGN.md §11.6); the naive kernel's paper blocks never
// skip.  A testbench that forces a driven wire of a quiet channel between
// cycles must still see it re-derived on the next settle, under both
// kernels alike, or the forced value would leak into the next edge.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "router/rasoc.hpp"

namespace rasoc::router {
namespace {

using Kernel = sim::Simulator::Kernel;
using Crossbar = std::array<CrossbarWires, kNumPorts>;

std::unique_ptr<noc::Network> buildNet(Kernel kernel, FlowControl flow) {
  noc::NetworkConfig cfg;
  cfg.params.flowControl = flow;
  cfg.kernel = kernel;
  auto net =
      std::make_unique<noc::Network>(noc::makeTopology("mesh", 3, 3), cfg);
  noc::TrafficConfig traffic;
  traffic.offeredLoad = 0.05;
  traffic.payloadFlits = 3;
  traffic.seed = 0x9e1e7u;
  net->attachTraffic(traffic);
  return net;
}

// The router's crossbar nets, which the testbench pokes between cycles.
// Every output channel sees the one crossbar; Local is always present.
Crossbar& crossbar(Rasoc& r) {
  return const_cast<Crossbar&>(r.outputChannel(Port::Local).xbarWires());
}

// Every net of every router, named: link bundles, crossbar and the
// output channels' connection nets.
struct WireValue {
  std::string name;
  std::int64_t value;
};

void addFlit(std::vector<WireValue>& out, const std::string& name,
             const FlitWires& f) {
  out.push_back({name + ".data", f.data.get()});
  out.push_back({name + ".bop", f.bop.get()});
  out.push_back({name + ".eop", f.eop.get()});
}

std::vector<WireValue> wireState(noc::Network& net) {
  std::vector<WireValue> out;
  for (int n = 0; n < net.topology().nodes(); ++n) {
    Rasoc& r = net.router(net.topology().nodeAt(n));
    const Crossbar& xbar = crossbar(r);
    for (Port p : kAllPorts) {
      if (!r.params().hasPort(p)) continue;
      const std::string at = r.name() + "." + std::string(name(p));
      for (const auto& [dir, ch] :
           {std::pair<const char*, const ChannelWires*>{".in", &r.in(p)},
            {".out", &r.out(p)}}) {
        addFlit(out, at + dir, ch->flit);
        out.push_back({at + dir + ".val", ch->val.get()});
        out.push_back({at + dir + ".ack", ch->ack.get()});
      }
      const CrossbarWires& x = xbar[static_cast<std::size_t>(index(p))];
      addFlit(out, at + ".x", x.flit);
      out.push_back({at + ".x.rok", x.rok.get()});
      for (Port o : kAllPorts) {
        const auto oi = static_cast<std::size_t>(index(o));
        const std::string to = at + ".x." + std::string(name(o));
        out.push_back({to + ".req", x.req[oi].get()});
        out.push_back({to + ".gnt", x.gnt[oi].get()});
        out.push_back({to + ".rd", x.rd[oi].get()});
      }
      const OutputChannel& oc = r.outputChannel(p);
      out.push_back({at + ".connected", oc.connectedWire()});
      out.push_back({at + ".sel", oc.selWire()});
    }
  }
  return out;
}

void expectSameWires(noc::Network& ref, noc::Network& com,
                     const std::string& where) {
  const std::vector<WireValue> a = wireState(ref);
  const std::vector<WireValue> b = wireState(com);
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i].value, b[i].value) << where << ": " << a[i].name;
}

// A router with an idle output no one requests (so the coming edge grants
// nothing) and an empty input, present on a third port too (the grant's
// and the request's other end).
struct QuietPorts {
  noc::NodeId node;
  Port idleOut;
  Port emptyIn;
  Port other;
};

bool findQuietPorts(noc::Network& net, QuietPorts& found) {
  for (int n = 0; n < net.topology().nodes(); ++n) {
    const noc::NodeId node = net.topology().nodeAt(n);
    Rasoc& r = net.router(node);
    const Crossbar& xbar = crossbar(r);
    for (Port o : kAllPorts) {
      if (!r.params().hasPort(o)) continue;
      const auto oi = static_cast<std::size_t>(index(o));
      bool requested = false;
      for (const CrossbarWires& x : xbar) requested |= x.req[oi].get();
      if (r.outputChannel(o).controller().isConnected() || requested)
        continue;
      for (Port i : kAllPorts) {
        if (i == o || !r.params().hasPort(i) ||
            !r.inputChannel(i).buffer().empty())
          continue;
        for (Port other : kAllPorts)
          if (other != o && other != i && r.params().hasPort(other)) {
            found = {node, o, i, other};
            return true;
          }
      }
    }
  }
  return false;
}

class QuietChannelPokeTest : public ::testing::TestWithParam<FlowControl> {};

TEST_P(QuietChannelPokeTest, ForcedDrivenWiresAreRederivedOnBothKernels) {
  auto ref = buildNet(Kernel::Naive, GetParam());
  auto com = buildNet(Kernel::Compiled, GetParam());
  for (int round = 0; round < 12; ++round) {
    const std::string where = "round " + std::to_string(round);
    ref->run(37);
    com->run(37);
    ASSERT_NO_FATAL_FAILURE(expectSameWires(*ref, *com, where));

    QuietPorts q{};
    ASSERT_TRUE(findQuietPorts(*com, q)) << where;
    const auto out = static_cast<std::size_t>(index(q.idleOut));
    const auto other = static_cast<std::size_t>(index(q.other));
    // On each network: the idle output's out.val and its grant line to
    // another input, and the empty input's request to another output.
    // Each is driven, and its driver's op sits in its early-out.
    for (noc::Network* net : {ref.get(), com.get()}) {
      Rasoc& r = net->router(q.node);
      Crossbar& xbar = crossbar(r);
      r.out(q.idleOut).val.force(true);
      xbar[other].gnt[out].force(true);
      xbar[static_cast<std::size_t>(index(q.emptyIn))].req[other].force(true);
    }
    ref->run(1);
    com->run(1);
    for (noc::Network* net : {ref.get(), com.get()}) {
      Rasoc& r = net->router(q.node);
      Crossbar& xbar = crossbar(r);
      EXPECT_FALSE(r.out(q.idleOut).val.get()) << where;
      EXPECT_FALSE(xbar[other].gnt[out].get()) << where;
      EXPECT_FALSE(
          xbar[static_cast<std::size_t>(index(q.emptyIn))].req[other].get())
          << where;
    }
    ASSERT_NO_FATAL_FAILURE(expectSameWires(*ref, *com, where + " poked"));
  }
  EXPECT_EQ(ref->ledger().delivered(), com->ledger().delivered());
  EXPECT_GT(com->ledger().delivered(), 0u);
  EXPECT_TRUE(com->healthy());
}

INSTANTIATE_TEST_SUITE_P(
    BothFlowControls, QuietChannelPokeTest,
    ::testing::Values(FlowControl::Handshake, FlowControl::CreditBased),
    [](const auto& info) {
      return std::string(info.param == FlowControl::Handshake ? "Handshake"
                                                              : "Credit");
    });

}  // namespace
}  // namespace rasoc::router
