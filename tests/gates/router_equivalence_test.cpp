// The capstone cross-check: a complete five-port RASoC router built from
// 4-LUTs and flip-flops, run in lockstep against the behavioural
// router::Rasoc under randomized well-formed traffic with random output
// stalls.  Every external signal must match cycle for cycle (output data
// is compared while valid; it is a don't-care when val is low, where the
// behavioural model idealizes empty-buffer reads to zero).
#include <gtest/gtest.h>

#include <array>
#include <deque>

#include "gates/blocks.hpp"
#include "router/rasoc.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace rasoc::gates {
namespace {

using router::Flit;
using router::Port;
using router::Rib;

struct LockstepRig {
  explicit LockstepRig(int n = 8, int p = 2)
      : n_(n), behavioural("dut", params(n, p)) {
    sim.add(behavioural);
    sim.reset();
    gate = buildGateRouter(nl, n, 8, p);
    nl.reset();
  }

  static router::RouterParams params(int n = 8, int p = 2) {
    router::RouterParams rp;
    rp.n = n;
    rp.m = 8;
    rp.p = p;
    rp.fifoImpl = router::FifoImpl::Eab;
    return rp;
  }

  int n_;

  // Applies identical external inputs to both sides.
  void driveInput(int port, bool val, const Flit& flit) {
    auto& in = behavioural.in(static_cast<Port>(port));
    in.val.force(val);
    in.flit.data.force(flit.data);
    in.flit.bop.force(flit.bop);
    in.flit.eop.force(flit.eop);
    auto& gin = gate.in[static_cast<std::size_t>(port)];
    nl.setInput(gin.val, val);
    nl.setInput(gin.bop, flit.bop);
    nl.setInput(gin.eop, flit.eop);
    for (int b = 0; b < n_; ++b)
      nl.setInput(gin.data[static_cast<std::size_t>(b)],
                  (flit.data >> b) & 1u);
  }

  void driveOutAck(int port, bool ack) {
    behavioural.out(static_cast<Port>(port)).ack.force(ack);
    nl.setInput(gate.out[static_cast<std::size_t>(port)].ack, ack);
  }

  std::uint32_t gateOutData(int port) const {
    std::uint32_t word = 0;
    for (int b = 0; b < n_; ++b)
      word |= (nl.value(gate.out[static_cast<std::size_t>(port)]
                            .data[static_cast<std::size_t>(b)])
                   ? 1u
                   : 0u)
              << b;
    return word;
  }

  router::Rasoc behavioural;
  sim::Simulator sim;
  GateNetlist nl;
  GateRouter gate;
};

// Per-port packet generator producing a stream of well-formed flits.
struct PortGenerator {
  PortGenerator(int ownPort, std::uint64_t seed,
                router::RouterParams params)
      : own(ownPort), rng(seed), params_(params) {}

  Flit current;
  bool presenting = false;

  void refill() {
    if (presenting || !pending.empty()) return;
    if (!rng.chance(0.4)) return;
    // A target port other than our own (Local sources avoid Local).
    static const Rib kRibFor[5] = {{0, 0}, {0, 1}, {1, 0}, {0, -1},
                                   {-1, 0}};
    int target = own;
    while (target == own)
      target = static_cast<int>(rng.below(5));
    const auto packet = router::makePacket(
        kRibFor[target],
        {static_cast<std::uint32_t>(rng.next()),
         static_cast<std::uint32_t>(rng.next())},
        params_);
    for (const Flit& f : packet) pending.push_back(f);
  }

  void advance(bool fired) {
    if (fired) presenting = false;
    if (!presenting) {
      refill();
      if (!pending.empty() && rng.chance(0.85)) {
        current = pending.front();
        pending.pop_front();
        presenting = true;
      }
    }
  }

  int own;
  sim::Xoshiro256 rng;
  router::RouterParams params_;
  std::deque<Flit> pending;
};

class GateRouterLockstep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GateRouterLockstep, EquivalenceUnderRandomTraffic) {
  const auto [n, p] = GetParam();
  LockstepRig rig(n, p);
  const router::RouterParams params = LockstepRig::params(n, p);
  std::array<PortGenerator, 5> generators{
      PortGenerator{0, 11, params}, PortGenerator{1, 22, params},
      PortGenerator{2, 33, params}, PortGenerator{3, 44, params},
      PortGenerator{4, 55, params}};
  sim::Xoshiro256 stallRng(99);

  for (auto& g : generators) g.advance(false);

  for (int cycle = 0; cycle < 6000; ++cycle) {
    // Drive inputs.
    for (int i = 0; i < 5; ++i) {
      const PortGenerator& g = generators[static_cast<std::size_t>(i)];
      rig.driveInput(i, g.presenting, g.current);
    }
    // Random output readiness; ack = ready & val requires val first, so
    // settle the behavioural side, read its val, and assert equality with
    // the gate side before completing the handshake.
    rig.sim.settle();
    rig.nl.evaluate();
    std::array<bool, 5> ready{};
    for (int o = 0; o < 5; ++o)
      ready[static_cast<std::size_t>(o)] = stallRng.chance(0.8);
    for (int o = 0; o < 5; ++o) {
      const bool bVal = rig.behavioural.out(static_cast<Port>(o)).val.get();
      const bool gVal =
          rig.nl.value(rig.gate.out[static_cast<std::size_t>(o)].val);
      ASSERT_EQ(gVal, bVal) << "out val, port " << o << " cycle " << cycle;
      rig.driveOutAck(o, ready[static_cast<std::size_t>(o)] && bVal);
    }
    rig.sim.settle();
    rig.nl.evaluate();

    // Compare every external signal.
    for (int o = 0; o < 5; ++o) {
      const auto& bOut = rig.behavioural.out(static_cast<Port>(o));
      if (bOut.val.get()) {
        ASSERT_EQ(rig.gateOutData(o), bOut.flit.data.get())
            << "out data, port " << o << " cycle " << cycle;
        ASSERT_EQ(rig.nl.value(rig.gate.out[static_cast<std::size_t>(o)].bop),
                  bOut.flit.bop.get())
            << "out bop, port " << o << " cycle " << cycle;
        ASSERT_EQ(rig.nl.value(rig.gate.out[static_cast<std::size_t>(o)].eop),
                  bOut.flit.eop.get())
            << "out eop, port " << o << " cycle " << cycle;
      }
    }
    for (int i = 0; i < 5; ++i) {
      const bool bAck = rig.behavioural.in(static_cast<Port>(i)).ack.get();
      const bool gAck =
          rig.nl.value(rig.gate.in[static_cast<std::size_t>(i)].ack);
      ASSERT_EQ(gAck, bAck) << "in ack, port " << i << " cycle " << cycle;
    }

    // Advance generators on fired handshakes, then clock both sides.
    for (int i = 0; i < 5; ++i) {
      PortGenerator& g = generators[static_cast<std::size_t>(i)];
      const bool fired =
          g.presenting &&
          rig.behavioural.in(static_cast<Port>(i)).ack.get();
      g.advance(fired);
    }
    rig.sim.tick();
    rig.nl.clockEdge();
  }
  EXPECT_FALSE(rig.behavioural.misrouteDetected());
}

INSTANTIATE_TEST_SUITE_P(Configurations, GateRouterLockstep,
                         ::testing::Values(std::pair{8, 2}, std::pair{8, 4},
                                           std::pair{16, 2},
                                           std::pair{16, 4}),
                         [](const auto& info) {
                           return std::string("n")
                               .append(std::to_string(info.param.first))
                               .append("p")
                               .append(std::to_string(info.param.second));
                         });

TEST(GateRouterTest, ResourceFootprintIsReported) {
  GateNetlist nl;
  buildGateRouter(nl, 8, 8, 2);
  // 5 x (2 slots x 10 bits) storage + pointers/occupancy + 5 x arbiter
  // state: the DFF census must match the structural expectation exactly.
  const int fifoBits = 5 * (2 * 10);
  const int pointers = 5 * (1 + 1 + 2);
  const int arbiters = 5 * (4 + 1 + 2);
  EXPECT_EQ(nl.dffCount(), fifoBits + pointers + arbiters);
  EXPECT_GT(nl.lutCount(), 400);  // a real router's worth of logic
}

TEST(GateRouterTest, ValidatesParameters) {
  GateNetlist nl;
  EXPECT_THROW(buildGateRouter(nl, 8, 8, 3), std::invalid_argument);
  EXPECT_THROW(buildGateRouter(nl, 8, 8, 1), std::invalid_argument);
  EXPECT_THROW(buildGateRouter(nl, 4, 8, 2), std::invalid_argument);
  EXPECT_THROW(buildGateRouter(nl, 8, 7, 2), std::invalid_argument);
}

}  // namespace
}  // namespace rasoc::gates
