// Property-style sweep: the router must deliver packets correctly for
// every combination of (n, m, p, FIFO impl, arbiter) and every legal
// input/output port pair - the "soft-core instances with different sizes"
// claim exercised behaviourally.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "router/rasoc.hpp"
#include "sim/simulator.hpp"
#include "testbench.hpp"

namespace rasoc::router {
namespace {

using test::FlitSink;
using test::FlitSource;

using SweepParam = std::tuple<int, int, int, FifoImpl>;  // n, m, p, impl

class RouterSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  RouterParams makeParams() const {
    RouterParams params;
    params.n = std::get<0>(GetParam());
    params.m = std::get<1>(GetParam());
    params.p = std::get<2>(GetParam());
    params.fifoImpl = std::get<3>(GetParam());
    return params;
  }
};

// A RIB that the given input port can legally carry toward the target.
// Returns false when no legal packet exists (e.g. Local -> Local).
bool legalRib(Port in, Port out, Rib* rib) {
  if (in == out) return false;
  switch (out) {
    case Port::East: *rib = Rib{1, 0}; break;
    case Port::West: *rib = Rib{-1, 0}; break;
    case Port::North: *rib = Rib{0, 1}; break;
    case Port::South: *rib = Rib{0, -1}; break;
    case Port::Local: *rib = Rib{0, 0}; break;
  }
  // XY routing constraints: a packet entering from North/South has already
  // consumed its X offset, so it may only continue N/S/L; a packet cannot
  // re-enter the direction it came from.
  switch (in) {
    case Port::North:
    case Port::South:
      if (out == Port::East || out == Port::West) return false;
      break;
    default:
      break;
  }
  // Turning back toward the arrival direction (out == in) was already
  // excluded above; out == opposite(in) is the straight-through case and
  // is legal.
  return true;
}

TEST_P(RouterSweep, DeliversAcrossEveryLegalPortPair) {
  const RouterParams params = makeParams();
  for (Port in : kAllPorts) {
    for (Port out : kAllPorts) {
      Rib rib;
      if (!legalRib(in, out, &rib)) continue;
      if (in == Port::Local && out == Port::Local) continue;

      Rasoc router("dut", params);
      FlitSource source("src", router.in(in));
      FlitSink sink("sink", router.out(out));
      sim::Simulator sim;
      sim.add(router);
      sim.add(source);
      sim.add(sink);
      sim.reset();

      const std::vector<std::uint32_t> payload = {0x1u, 0x2u, 0x3u};
      source.queue(makePacket(rib, payload, params));
      sim.runUntil([&] { return sink.received().size() == 4; }, 300);

      ASSERT_EQ(sink.received().size(), 4u)
          << name(in) << "->" << name(out) << " n=" << params.n
          << " m=" << params.m << " p=" << params.p;
      EXPECT_TRUE(sink.received()[0].bop);
      EXPECT_TRUE(sink.received()[3].eop);
      EXPECT_EQ(decodeRib(sink.received()[0].data, params.m), (Rib{0, 0}));
      EXPECT_FALSE(router.misrouteDetected());
      EXPECT_FALSE(router.overflowDetected());
    }
  }
}

TEST_P(RouterSweep, LongPacketSurvivesShallowBuffers) {
  const RouterParams params = makeParams();
  Rasoc router("dut", params);
  FlitSource source("src", router.in(Port::Local));
  FlitSink sink("sink", router.out(Port::East));
  sim::Simulator sim;
  sim.add(router);
  sim.add(source);
  sim.add(sink);
  sim.reset();

  std::vector<std::uint32_t> payload(4 * params.p + 7);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint32_t>(i) & dataMask(params.n);
  source.queue(makePacket(Rib{1, 0}, payload, params));
  sim.runUntil([&] { return sink.received().size() == payload.size() + 1; },
               2000);
  ASSERT_EQ(sink.received().size(), payload.size() + 1);
  for (std::size_t i = 0; i < payload.size(); ++i)
    EXPECT_EQ(sink.received()[i + 1].data, payload[i]);
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, RouterSweep,
    ::testing::Values(SweepParam{8, 8, 2, FifoImpl::FlipFlop},
                      SweepParam{8, 8, 2, FifoImpl::Eab},
                      SweepParam{8, 4, 1, FifoImpl::Eab},
                      SweepParam{16, 8, 4, FifoImpl::FlipFlop},
                      SweepParam{16, 8, 4, FifoImpl::Eab},
                      SweepParam{16, 12, 3, FifoImpl::Eab},
                      SweepParam{32, 8, 2, FifoImpl::FlipFlop},
                      SweepParam{32, 8, 4, FifoImpl::Eab},
                      SweepParam{32, 16, 8, FifoImpl::Eab},
                      SweepParam{4, 4, 2, FifoImpl::FlipFlop}),
    [](const auto& info) {
      return std::string("n")
          .append(std::to_string(std::get<0>(info.param)))
          .append("m")
          .append(std::to_string(std::get<1>(info.param)))
          .append("p")
          .append(std::to_string(std::get<2>(info.param)))
          .append(std::get<3>(info.param) == FifoImpl::FlipFlop ? "FF"
                                                                : "EAB");
    });

}  // namespace
}  // namespace rasoc::router
