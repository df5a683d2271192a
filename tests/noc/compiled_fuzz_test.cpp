// Randomized differential fuzzing of the compiled settle kernel.  Every
// scenario is seeded and fully reproducible: a random small topology
// (mesh / torus / ring), a random traffic pattern valid for that topology,
// run flit-for-flit against a naive reference network built from the
// identical configuration; further draws run light loads and pause, drain
// and resume the traffic, under both flow controls, so every single-VC
// channel goes quiet and comes back.  On top of the lockstep sweep, two
// compile-pass edge cases get dedicated coverage: Wire::force poke-window
// writes landing in the word-packed arena (via describing modules whose
// wires are arena-bound), and mid-run reset() recompiling the op tape
// cleanly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "sim/compile.hpp"
#include "sim/module.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/wire.hpp"

namespace rasoc::noc {
namespace {

using sim::Simulator;
using sim::Wire;
using sim::Xoshiro256;

// --- network-level fuzz ----------------------------------------------------

struct Scenario {
  std::shared_ptr<const Topology> topo;
  TrafficConfig traffic;
  std::uint64_t cycles = 400;
  router::FlowControl flowControl = router::FlowControl::Handshake;
  // Cycle at which traffic pauses until the network drains, then resumes
  // (0: never).
  std::uint64_t pauseAt = 0;

  std::string describe() const {
    return topo->describe() + " " + std::string(name(traffic.pattern)) +
           " load " + std::to_string(traffic.offeredLoad) + " seed " +
           std::to_string(traffic.seed) +
           (flowControl == router::FlowControl::CreditBased ? " credit"
                                                             : "") +
           (pauseAt != 0 ? " pause at " + std::to_string(pauseAt) : "");
  }
};

Scenario randomScenario(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Scenario s;
  switch (rng.below(3)) {
    case 0:
      s.topo = makeTopology("mesh", 2 + static_cast<int>(rng.below(3)),
                            2 + static_cast<int>(rng.below(3)));
      break;
    case 1:
      s.topo = makeTopology("torus", 2 + static_cast<int>(rng.below(3)),
                            2 + static_cast<int>(rng.below(3)));
      break;
    default:
      s.topo = makeTopology("ring", 2 + static_cast<int>(rng.below(15)), 1);
      break;
  }
  const Extent extent = s.topo->extent();
  std::vector<TrafficPattern> patterns = {TrafficPattern::UniformRandom,
                                          TrafficPattern::BitComplement,
                                          TrafficPattern::NearestNeighbor,
                                          TrafficPattern::HotSpot};
  if (extent.width == extent.height)
    patterns.push_back(TrafficPattern::Transpose);
  s.traffic.pattern = patterns[rng.below(patterns.size())];
  s.traffic.hotspot =
      s.topo->nodeAt(static_cast<int>(rng.below(s.topo->nodes())));
  s.traffic.offeredLoad = 0.05 + 0.75 * rng.uniform();
  s.traffic.payloadFlits = 1 + static_cast<int>(rng.below(6));
  s.traffic.seed = rng.next();
  s.cycles = 300 + rng.below(400);
  return s;
}

// A random scenario whose channels fall quiet and come back, so the
// compiled single-VC channels leave and re-enter their early-outs
// (DESIGN.md §11.6): even `i` draws a load of at most 0.02, odd `i` pauses
// the traffic until the network drains, then resumes it; `i` / 2 alternates
// handshake and credit flow control.
Scenario quietScenario(std::uint64_t seed, int i) {
  Scenario s = randomScenario(seed);
  Xoshiro256 rng(seed ^ 0x51e7u);
  if (i % 2 == 0)
    s.traffic.offeredLoad = 0.005 + 0.015 * rng.uniform();
  else
    s.pauseAt = s.cycles / 4 + rng.below(s.cycles / 2);
  if ((i / 2) % 2 != 0) s.flowControl = router::FlowControl::CreditBased;
  return s;
}

std::unique_ptr<Network> buildNet(const Scenario& s,
                                  Simulator::Kernel kernel) {
  NetworkConfig cfg;
  cfg.params.n = 16;  // room for the wider RIB in the header flit
  cfg.params.m = 12;  // 6 bits per RIB axis: covers a 16-node ring's offsets
  cfg.params.flowControl = s.flowControl;
  cfg.kernel = kernel;
  auto net = std::make_unique<Network>(s.topo, cfg);
  net->attachTraffic(s.traffic);
  return net;
}

void compareNets(const Scenario& s, Network& ref, Network& cmp,
                 const std::string& where) {
  ASSERT_EQ(ref.ledger().queued(), cmp.ledger().queued()) << where;
  ASSERT_EQ(ref.ledger().delivered(), cmp.ledger().delivered()) << where;
  ASSERT_EQ(ref.ledger().inFlight(), cmp.ledger().inFlight()) << where;
  for (int n = 0; n < s.topo->nodes(); ++n) {
    const NodeId node = s.topo->nodeAt(n);
    ASSERT_EQ(ref.ni(node).received(), cmp.ni(node).received())
        << where << " node " << n;
  }
}

void compareLedgers(const Network& ref, const Network& com,
                    const std::string& where) {
  ASSERT_EQ(ref.ledger().queued(), com.ledger().queued()) << where;
  ASSERT_EQ(ref.ledger().delivered(), com.ledger().delivered()) << where;
  ASSERT_EQ(ref.ledger().inFlight(), com.ledger().inFlight()) << where;
}

// Steps a naive and a compiled network of `s` in lockstep, comparing
// their ledgers every cycle.  A pause drains both one cycle at a time
// (Network::drain(1) takes at most one step) before traffic resumes.
void runLockstep(const Scenario& s) {
  auto ref = buildNet(s, Simulator::Kernel::Naive);
  auto com = buildNet(s, Simulator::Kernel::Compiled);
  for (std::uint64_t c = 0; c < s.cycles; ++c) {
    const std::string where = "cycle " + std::to_string(c);
    if (c == s.pauseAt && c != 0) {
      ref->pauseTraffic(true);
      com->pauseTraffic(true);
      for (int d = 0; d < 4000; ++d) {
        const bool refDrained = ref->drain(1);
        ASSERT_EQ(refDrained, com->drain(1)) << where << " drain " << d;
        ASSERT_NO_FATAL_FAILURE(compareLedgers(
            *ref, *com, where + " drain " + std::to_string(d)));
        if (refDrained) break;
      }
      ASSERT_EQ(ref->ledger().inFlight(), 0u) << where;
      ref->pauseTraffic(false);
      com->pauseTraffic(false);
    }
    ref->run(1);
    com->run(1);
    ASSERT_NO_FATAL_FAILURE(compareLedgers(*ref, *com, where));
  }
  EXPECT_EQ(ref->healthy(), com->healthy());
  compareNets(s, *ref, *com, "final");
  EXPECT_DOUBLE_EQ(ref->ledger().packetLatency().mean(),
                   com->ledger().packetLatency().mean());
}

TEST(CompiledFuzzTest, RandomTopologiesMatchNaiveFlitForFlit) {
  for (int i = 0; i < 10; ++i) {
    const Scenario s = randomScenario(0xc03b11edu + 977u * i);
    SCOPED_TRACE("scenario " + std::to_string(i) + ": " + s.describe());
    ASSERT_NO_FATAL_FAILURE(runLockstep(s));
  }
  for (int i = 0; i < 8; ++i) {
    const Scenario s = quietScenario(0x9e1e7c3du + 613u * i, i);
    SCOPED_TRACE("quiet scenario " + std::to_string(i) + ": " +
                 s.describe());
    ASSERT_NO_FATAL_FAILURE(runLockstep(s));
  }
}

TEST(CompiledFuzzTest, MidRunResetRecompilesCleanly) {
  // reset() under the compiled kernel must discard the stale program, and
  // the recompiled tape must reproduce the naive reference exactly
  // — including a third leg against a freshly constructed network, which
  // pins that the recompile starts from the same blank state a first
  // compile does.
  for (int i = 0; i < 4; ++i) {
    const Scenario s = randomScenario(0x2e5e7000u + 131u * i);
    SCOPED_TRACE("scenario " + std::to_string(i) + ": " + s.describe());
    auto ref = buildNet(s, Simulator::Kernel::Naive);
    auto com = buildNet(s, Simulator::Kernel::Compiled);
    const std::uint64_t firstLeg = s.cycles / 2;
    ref->run(firstLeg);
    com->run(firstLeg);
    compareNets(s, *ref, *com, "pre-reset");

    ref->reset();
    com->reset();
    ref->run(s.cycles);
    com->run(s.cycles);
    compareNets(s, *ref, *com, "post-reset");

    // The ledger accumulates across reset() by design, so the fresh-network
    // leg compares the replayed machine state (per-node deliveries, and the
    // link flit counters reset() clears), not the lifetime totals.
    auto fresh = buildNet(s, Simulator::Kernel::Compiled);
    fresh->run(s.cycles);
    for (int n = 0; n < s.topo->nodes(); ++n) {
      const NodeId node = s.topo->nodeAt(n);
      ASSERT_EQ(com->ni(node).received(), fresh->ni(node).received())
          << "fresh-vs-recompiled node " << n;
    }
    EXPECT_EQ(com->healthy(), fresh->healthy());
    EXPECT_DOUBLE_EQ(com->meanLinkUtilization(), fresh->meanLinkUtilization());
    EXPECT_DOUBLE_EQ(com->maxLinkUtilization(), fresh->maxLinkUtilization());
  }
}

// --- poke-window fuzz on arena-bound wires ---------------------------------

// y = x + k as a compiled arena op, so the chain's wires are genuinely
// bound into the word-packed arena (ops over Wire objects alone bind
// nothing).  Each wire is a one-field packed word.
struct AddKCtx {
  std::uint32_t in = 0, out = 0;
  std::uint32_t k = 0;
};

void addKOp(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<AddKCtx*>(vctx);
  sim::opPutBits(w, c->out, sim::fieldMask(32), w[c->in] + c->k);
}

class AddConst : public sim::Module {
 public:
  AddConst(std::string name, Wire<std::uint32_t>& x, Wire<std::uint32_t>& y,
           std::uint32_t k)
      : Module(std::move(name)), x_(x), y_(y), k_(k) {}
  void evaluate() override { y_.set(x_.get() + k_); }
  bool describe(sim::Lowering& lw) override {
    AddKCtx c;
    c.in = lw.packedWord({{x_, 0}});
    c.out = lw.packedWord({{y_, 0}});
    c.k = k_;
    lw.op(&addKOp, lw.ctx(c), {{c.in, sim::fieldMask(32)}},
          {{c.out, sim::fieldMask(32)}});
    return true;
  }

 private:
  Wire<std::uint32_t>& x_;
  Wire<std::uint32_t>& y_;
  std::uint32_t k_;
};

// A naive and a compiled simulator over identical AddConst chains.  Only
// the head wire is undriven, so it is the only force target whose value
// survives a settle (both kernels recompute every driven wire).
struct ChainPair {
  std::vector<std::unique_ptr<Wire<std::uint32_t>>> refWires, comWires;
  std::vector<std::unique_ptr<AddConst>> refMods, comMods;
  Simulator ref, com;

  ChainPair(int length, Xoshiro256& rng) {
    for (int i = 0; i <= length; ++i) {
      refWires.push_back(std::make_unique<Wire<std::uint32_t>>(0u));
      comWires.push_back(std::make_unique<Wire<std::uint32_t>>(0u));
    }
    for (int i = 0; i < length; ++i) {
      const auto k = static_cast<std::uint32_t>(1 + rng.below(997));
      refMods.push_back(std::make_unique<AddConst>(
          "ref" + std::to_string(i), *refWires[i], *refWires[i + 1], k));
      comMods.push_back(std::make_unique<AddConst>(
          "com" + std::to_string(i), *comWires[i], *comWires[i + 1], k));
      ref.add(*refMods.back());
      com.add(*comMods.back());
    }
    ref.setKernel(Simulator::Kernel::Naive);
    com.setKernel(Simulator::Kernel::Compiled);
    ref.settle();
    com.settle();
  }

  void compare(const std::string& where) const {
    for (std::size_t i = 0; i < refWires.size(); ++i)
      ASSERT_EQ(refWires[i]->get(), comWires[i]->get())
          << where << " wire " << i;
    ASSERT_EQ(ref.cycle(), com.cycle()) << where;
  }
};

TEST(CompiledFuzzTest, ForcedArenaWritesMatchNaive) {
  // Interleave head-wire force pokes (the poke window: force writes
  // through the wire's arena binding, and the next tape pass must read
  // the forced bits back out of the arena), settles, single steps and
  // short runs, in a random order.
  for (int trial = 0; trial < 8; ++trial) {
    Xoshiro256 rng(0xf0ecedau + 6151u * trial);
    const int length = 4 + static_cast<int>(rng.below(21));
    SCOPED_TRACE("trial " + std::to_string(trial) + " length " +
                 std::to_string(length));
    ChainPair chains(length, rng);
    chains.compare("initial");
    for (int op = 0; op < 40; ++op) {
      const std::string where = "op " + std::to_string(op);
      switch (rng.below(4)) {
        case 0: {  // poke the undriven head, identical on both sides
          const auto v = static_cast<std::uint32_t>(rng.below(100000));
          chains.refWires[0]->force(v);
          chains.comWires[0]->force(v);
          chains.ref.settle();
          chains.com.settle();
          break;
        }
        case 1:
          chains.ref.settle();
          chains.com.settle();
          break;
        case 2:
          chains.ref.step();
          chains.com.step();
          break;
        default: {
          const std::uint64_t n = 1 + rng.below(3);
          chains.ref.run(n);
          chains.com.run(n);
          break;
        }
      }
      chains.compare(where);
    }
  }
}

TEST(CompiledFuzzTest, ForceInsideCompiledSettleThrows) {
  // The poke window closes during settle for every kernel; the compiled
  // tape inherits the guard through Wire::force's SettleContext check.
  Wire<std::uint32_t> a, b;
  struct Poker : sim::Module {
    Wire<std::uint32_t>& in;
    Wire<std::uint32_t>& out;
    Poker(Wire<std::uint32_t>& x, Wire<std::uint32_t>& y)
        : Module("poker"), in(x), out(y) {}
    bool describe(sim::Lowering& lw) override {
      lw.op([](std::uint64_t*,
               void* m) { static_cast<Poker*>(m)->evaluate(); },
            this, {{lw.packedWord({{in, 0}}), sim::fieldMask(32)}},
            {{lw.packedWord({{out, 0}}), sim::fieldMask(32)}});
      return true;
    }
    void evaluate() override {
      if (in.get() == 7) in.force(9);  // illegal: force mid-settle
      out.set(in.get() + 1);
    }
  } poker(a, b);
  Simulator sim;
  sim.add(poker);
  sim.setKernel(Simulator::Kernel::Compiled);
  sim.settle();
  a.force(7);
  EXPECT_THROW(sim.settle(), std::logic_error);
}

}  // namespace
}  // namespace rasoc::noc
