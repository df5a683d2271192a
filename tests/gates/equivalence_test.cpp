// Gate-level vs behavioural equivalence: the LUT/FF constructions must be
// cycle-for-cycle indistinguishable from the behavioural blocks the NoC
// simulations use - the reproduction's substitute for RTL-vs-netlist
// verification in the original synthesis flow.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "gates/blocks.hpp"
#include "router/fifo.hpp"
#include "router/ic.hpp"
#include "router/oc.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace rasoc::gates {
namespace {

using router::Port;

TEST(EquivalenceTest, RoundRobinArbiterMatchesOutputController) {
  // Behavioural side (own port = East; candidates L, N, S, W).
  std::array<router::CrossbarWires, router::kNumPorts> xbar;
  sim::Wire<bool> outEop, rokSel, xRd, connected;
  sim::Wire<int> sel;
  router::OutputController oc("oc", Port::East, xbar, outEop, rokSel, xRd,
                              connected, sel);
  sim::Simulator sim;
  sim.add(oc);
  sim.reset();

  // Gate side.
  GateNetlist nl;
  std::array<NodeId, 4> req{};
  for (int i = 0; i < 4; ++i)
    req[static_cast<std::size_t>(i)] =
        nl.addInput(std::string("r").append(std::to_string(i)));
  const auto eopIn = nl.addInput("eop");
  const auto rokIn = nl.addInput("rok");
  const auto rdIn = nl.addInput("rd");
  const RoundRobinArbiter arbiter =
      buildRoundRobinArbiter(nl, req, eopIn, rokIn, rdIn);
  nl.reset();

  // Candidate order must mirror the behavioural cyclic port order with
  // East excluded.
  const std::array<Port, 4> candidates = {Port::Local, Port::North,
                                          Port::South, Port::West};

  sim::Xoshiro256 rng(606);
  for (int step = 0; step < 8000; ++step) {
    const bool eop = rng.chance(0.25);
    const bool rok = rng.chance(0.7);
    const bool rd = rng.chance(0.7);
    bool reqs[4];
    for (int i = 0; i < 4; ++i) reqs[i] = rng.chance(0.35);

    for (int i = 0; i < 4; ++i) {
      xbar[static_cast<std::size_t>(router::index(candidates[
              static_cast<std::size_t>(i)]))]
          .req[router::index(Port::East)]
          .force(reqs[i]);
      nl.setInput(req[static_cast<std::size_t>(i)], reqs[i]);
    }
    outEop.force(eop);
    rokSel.force(rok);
    xRd.force(rd);
    nl.setInput(eopIn, eop);
    nl.setInput(rokIn, rok);
    nl.setInput(rdIn, rd);

    sim.settle();
    nl.evaluate();

    ASSERT_EQ(nl.value(arbiter.connected), connected.get())
        << "step " << step;
    for (int i = 0; i < 4; ++i) {
      const bool behavioural =
          xbar[static_cast<std::size_t>(router::index(candidates[
                  static_cast<std::size_t>(i)]))]
              .gnt[router::index(Port::East)]
              .get();
      ASSERT_EQ(nl.value(arbiter.gnt[static_cast<std::size_t>(i)]),
                behavioural)
          << "step " << step << " candidate " << i;
    }

    sim.tick();
    nl.clockEdge();
  }
}

TEST(EquivalenceTest, BinaryArbiterMatchesOneHotArbiter) {
  // The "optimized controller" must be externally indistinguishable from
  // the one-hot arbiter while holding two fewer flip-flops.
  GateNetlist oneHotNl, binaryNl;
  std::array<NodeId, 4> reqA{}, reqB{};
  for (int i = 0; i < 4; ++i) {
    reqA[static_cast<std::size_t>(i)] = oneHotNl.addInput("r");
    reqB[static_cast<std::size_t>(i)] = binaryNl.addInput("r");
  }
  const auto eopA = oneHotNl.addInput("eop");
  const auto rokA = oneHotNl.addInput("rok");
  const auto rdA = oneHotNl.addInput("rd");
  const auto eopB = binaryNl.addInput("eop");
  const auto rokB = binaryNl.addInput("rok");
  const auto rdB = binaryNl.addInput("rd");
  const RoundRobinArbiter oneHot =
      buildRoundRobinArbiter(oneHotNl, reqA, eopA, rokA, rdA);
  const RoundRobinArbiter binary =
      buildBinaryArbiter(binaryNl, reqB, eopB, rokB, rdB);
  EXPECT_EQ(oneHotNl.dffCount() - binaryNl.dffCount(), 2);
  oneHotNl.reset();
  binaryNl.reset();

  sim::Xoshiro256 rng(808);
  for (int step = 0; step < 8000; ++step) {
    const bool eop = rng.chance(0.25);
    const bool rok = rng.chance(0.7);
    const bool rd = rng.chance(0.7);
    for (int i = 0; i < 4; ++i) {
      const bool r = rng.chance(0.35);
      oneHotNl.setInput(reqA[static_cast<std::size_t>(i)], r);
      binaryNl.setInput(reqB[static_cast<std::size_t>(i)], r);
    }
    oneHotNl.setInput(eopA, eop);
    oneHotNl.setInput(rokA, rok);
    oneHotNl.setInput(rdA, rd);
    binaryNl.setInput(eopB, eop);
    binaryNl.setInput(rokB, rok);
    binaryNl.setInput(rdB, rd);
    oneHotNl.evaluate();
    binaryNl.evaluate();
    ASSERT_EQ(binaryNl.value(binary.connected),
              oneHotNl.value(oneHot.connected))
        << "step " << step;
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(binaryNl.value(binary.gnt[static_cast<std::size_t>(i)]),
                oneHotNl.value(oneHot.gnt[static_cast<std::size_t>(i)]))
          << "step " << step << " line " << i;
    }
    oneHotNl.clockEdge();
    binaryNl.clockEdge();
  }
}

TEST(EquivalenceTest, RouteLogicMatchesInputController) {
  router::RouterParams params;
  params.n = 16;
  params.m = 8;

  // Behavioural IC.
  router::FlitWires ibDout;
  sim::Wire<bool> rok;
  router::CrossbarWires xbar;
  router::InputController ic("ic", params, Port::West, ibDout, rok, xbar);
  sim::Simulator sim;
  sim.add(ic);
  sim.reset();

  // Gate-level routing cone.
  GateNetlist nl;
  std::vector<NodeId> rib;
  for (int i = 0; i < params.m; ++i)
    rib.push_back(nl.addInput("rib" + std::to_string(i)));
  const auto bopIn = nl.addInput("bop");
  const auto rokIn = nl.addInput("rok");
  const RouteLogic logic = buildXYRouteLogic(nl, rib, bopIn, rokIn);

  for (int value = 0; value < 256; ++value) {
    for (const bool bop : {true, false}) {
      for (const bool rokNow : {true, false}) {
        ibDout.data.force(static_cast<std::uint32_t>(value));
        ibDout.bop.force(bop);
        rok.force(rokNow);
        sim.settle();
        for (int i = 0; i < params.m; ++i)
          nl.setInput(rib[static_cast<std::size_t>(i)],
                      (value >> i) & 1);
        nl.setInput(bopIn, bop);
        nl.setInput(rokIn, rokNow);
        nl.evaluate();

        for (Port p : router::kAllPorts) {
          ASSERT_EQ(nl.value(logic.req[static_cast<std::size_t>(
                        router::index(p))]),
                    xbar.req[router::index(p)].get())
              << "value " << value << " bop " << bop << " port "
              << router::name(p);
        }
        // Updated RIB must match the behavioural header rewrite for every
        // canonical encoding.  Non-canonical "negative zero" axis fields
        // (sign set, magnitude zero) are unreachable - encodeRib never
        // produces them - and the behavioural rewrite normalizes them
        // while the gate datapath passes them through, so they are
        // excluded as don't-cares.
        const router::Rib decoded =
            router::decodeRib(static_cast<std::uint32_t>(value), params.m);
        const bool canonical =
            router::encodeRib(decoded, params.m) ==
            static_cast<std::uint32_t>(value);
        if (bop && rokNow && canonical) {
          unsigned gateRib = 0;
          for (int i = 0; i < params.m; ++i)
            gateRib |=
                (nl.value(logic.updatedRib[static_cast<std::size_t>(i)])
                     ? 1u
                     : 0u)
                << i;
          ASSERT_EQ(gateRib, xbar.flit.data.get() & 0xffu)
              << "value " << value;
        }
      }
    }
  }
}

TEST(EquivalenceTest, FifoControlMatchesInputBufferStatus) {
  router::RouterParams params;
  params.n = 8;
  params.p = 4;
  params.fifoImpl = router::FifoImpl::Eab;

  router::FlitWires din, dout;
  sim::Wire<bool> wr, rd, wok, rok;
  auto fifo = router::InputBuffer::create("fifo", params, din, wr, rd, dout,
                                          wok, rok);
  sim::Simulator sim;
  sim.add(*fifo);
  sim.reset();

  GateNetlist nl;
  const auto wrIn = nl.addInput("wr");
  const auto rdIn = nl.addInput("rd");
  const FifoControl control = buildFifoControl(nl, params.p, wrIn, rdIn);
  nl.reset();

  sim::Xoshiro256 rng(707);
  for (int step = 0; step < 5000; ++step) {
    const bool w = rng.chance(0.5);
    const bool r = rng.chance(0.5);
    wr.force(w);
    rd.force(r);
    nl.setInput(wrIn, w);
    nl.setInput(rdIn, r);
    sim.settle();
    nl.evaluate();

    ASSERT_EQ(nl.value(control.wok), wok.get()) << "step " << step;
    ASSERT_EQ(nl.value(control.rok), rok.get()) << "step " << step;
    unsigned occupancy = 0;
    for (std::size_t b = 0; b < control.occupancy.size(); ++b)
      occupancy |= (nl.value(control.occupancy[b]) ? 1u : 0u) << b;
    ASSERT_EQ(static_cast<int>(occupancy), fifo->occupancy())
        << "step " << step;

    sim.tick();
    nl.clockEdge();
  }
}

}  // namespace
}  // namespace rasoc::gates
