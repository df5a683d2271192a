// Differential fuzz: the per-VC input rings of VcInputChannel against an
// executable reference model built on one std::deque per virtual channel.
// The model encodes the channel's documented edge contract: an offered
// flit is accepted into its VC unless that VC is full (or the VC id is out
// of range), which sets the sticky overflow flag and drops the flit; then
// every VC whose head is granted and read by some output pops.  Accept
// comes first, so an accept and a pop on the same VC in one cycle keep its
// occupancy.  Every cycle the published outputs (rok, head flit, vcFree,
// vcAck) and the registered counters (occupancy, occupancySum, accepted
// flits, overflow) of model and channel must agree, under both kernels.
#include "router/input_channel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <memory>
#include <string>
#include <tuple>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace rasoc::router {
namespace {

// Golden model: per-VC deques, no clocking machinery.
class ReferenceVcFifos {
 public:
  ReferenceVcFifos(int numVCs, int depth) : numVCs_(numVCs), depth_(depth) {}

  const std::deque<Flit>& q(int v) const {
    return q_[static_cast<std::size_t>(v)];
  }
  int occupancy(int v) const { return static_cast<int>(q(v).size()); }
  std::uint64_t occupancySum(int v) const {
    return sum_[static_cast<std::size_t>(v)];
  }
  bool overflow() const { return overflow_; }
  std::uint64_t accepted() const { return accepted_; }

  void clockEdge(bool val, int vc, Flit flit, unsigned pops) {
    if (val) {
      if (vc < 0 || vc >= numVCs_ || occupancy(vc) >= depth_) {
        overflow_ = true;
      } else {
        q_[static_cast<std::size_t>(vc)].push_back(flit);
        ++accepted_;
      }
    }
    for (int v = 0; v < numVCs_; ++v) {
      auto& q = q_[static_cast<std::size_t>(v)];
      if (!q.empty() && ((pops >> v) & 1u)) q.pop_front();
      sum_[static_cast<std::size_t>(v)] += q.size();
    }
  }

  void reset() {
    for (auto& q : q_) q.clear();
    sum_.fill(0);
    overflow_ = false;
    accepted_ = 0;
  }

 private:
  int numVCs_;
  int depth_;
  std::array<std::deque<Flit>, kMaxVCs> q_;
  std::array<std::uint64_t, kMaxVCs> sum_{};
  bool overflow_ = false;
  std::uint64_t accepted_ = 0;
};

// One cycle of stimulus: the link offer plus, per VC, the ports granting
// it and the ports reading it (bit o of each mask).
struct Stimulus {
  bool val = false;
  int vc = 0;
  Flit flit;
  std::array<unsigned, kMaxVCs> gnt{};
  std::array<unsigned, kMaxVCs> rd{};

  unsigned pops(int numVCs) const {
    unsigned pops = 0;
    for (int v = 0; v < numVCs; ++v)
      if ((gnt[static_cast<std::size_t>(v)] &
           rd[static_cast<std::size_t>(v)]) != 0)
        pops |= 1u << v;
    return pops;
  }
};

struct VcHarness {
  VcHarness(int numVCs, int depth, FlowControl flow,
            sim::Simulator::Kernel kernel)
      : numVCs(numVCs), depth(depth), credit(flow == FlowControl::CreditBased),
        model(numVCs, depth) {
    RouterParams params;
    params.n = 16;
    params.p = depth;
    params.numVCs = numVCs;
    params.flowControl = flow;
    params.validate();
    channel = std::make_unique<VcInputChannel>("in", params, Port::North,
                                               VcGeometry{}, in, xbar);
    sim.setKernel(kernel);
    sim.add(*channel);
    sim.reset();
  }

  // Drives one cycle into both the channel and the model and checks every
  // observable output before and after the edge.
  void cycleAndCompare(const Stimulus& s, const std::string& where) {
    in.val.force(s.val);
    in.vc.force(s.vc);
    in.flit.data.force(s.flit.data);
    in.flit.bop.force(s.flit.bop);
    in.flit.eop.force(s.flit.eop);
    for (int v = 0; v < kMaxVCs; ++v) {
      for (int o = 0; o < kNumPorts; ++o) {
        const auto vi = static_cast<std::size_t>(v);
        const auto oi = static_cast<std::size_t>(o);
        xbar[vi].gnt[oi].force(((s.gnt[vi] >> o) & 1u) != 0);
        xbar[vi].rd[oi].force(((s.rd[vi] >> o) & 1u) != 0);
      }
    }
    sim.settle();
    const unsigned pops = s.pops(numVCs);
    for (int v = 0; v < numVCs; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const std::string at = where + " vc " + std::to_string(v);
      const bool empty = model.q(v).empty();
      ASSERT_EQ(xbar[vi].rok.get(), !empty) << at;
      ASSERT_EQ(in.vcFree[vi].get(), credit || model.occupancy(v) < depth)
          << at;
      if (credit) {
        ASSERT_EQ(in.vcAck[vi].get(), !empty && ((pops >> v) & 1u)) << at;
      }
      const Flit head = empty ? Flit{} : model.q(v).front();
      ASSERT_EQ(xbar[vi].flit.data.get(), head.data) << at;
      ASSERT_EQ(xbar[vi].flit.eop.get(), head.eop) << at;
      ASSERT_EQ(channel->dequeueFired(v), !empty && ((pops >> v) & 1u)) << at;
    }

    sim.tick();
    model.clockEdge(s.val, s.vc, s.flit, pops);
    for (int v = 0; v < numVCs; ++v) {
      const std::string at = where + " vc " + std::to_string(v);
      ASSERT_EQ(channel->occupancy(v), model.occupancy(v)) << at;
      ASSERT_EQ(channel->occupancySum(v), model.occupancySum(v)) << at;
    }
    ASSERT_EQ(channel->overflowDetected(), model.overflow()) << where;
    ASSERT_EQ(channel->flitsAccepted(), model.accepted()) << where;
  }

  void reset() {
    sim.reset();
    model.reset();
  }

  int numVCs;
  int depth;
  bool credit;
  ChannelWires in;
  std::array<CrossbarWires, kMaxVCs> xbar;
  ReferenceVcFifos model;
  std::unique_ptr<VcInputChannel> channel;
  sim::Simulator sim;
};

class VcFifoFuzz
    : public ::testing::TestWithParam<
          std::tuple<int, int, FlowControl, sim::Simulator::Kernel>> {
 protected:
  int numVCs() const { return std::get<0>(GetParam()); }
  int depth() const { return std::get<1>(GetParam()); }
  FlowControl flow() const { return std::get<2>(GetParam()); }
  sim::Simulator::Kernel kernel() const { return std::get<3>(GetParam()); }
};

TEST_P(VcFifoFuzz, RandomTrafficMatchesDequeModel) {
  for (const std::uint64_t seed : {5u, 91u, 2718u}) {
    VcHarness h(numVCs(), depth(), flow(), kernel());
    sim::Xoshiro256 rng(seed);
    for (int step = 0; step < 1500; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      if (step == 700) {
        // onReset(): every ring, counter and sticky flag starts over.
        h.reset();
        for (int v = 0; v < numVCs(); ++v) {
          ASSERT_EQ(h.channel->occupancy(v), 0) << where;
          ASSERT_EQ(h.channel->occupancySum(v), 0u) << where;
        }
        ASSERT_FALSE(h.channel->overflowDetected()) << where;
      }
      // Header-free flits (bop low) so the published head is the stored
      // word itself; the full 32-bit data range checks the packing.  The
      // offer ignores vcFree, so full VCs are pushed into often, and an
      // occasional out-of-range VC id must be refused the same way.
      Stimulus s;
      s.val = rng.chance(0.6);
      s.vc = rng.chance(0.05) ? numVCs() + static_cast<int>(rng.below(2))
                              : static_cast<int>(rng.below(
                                    static_cast<std::uint64_t>(numVCs())));
      s.flit.data = static_cast<std::uint32_t>(rng.next());
      s.flit.eop = rng.chance(0.3);
      for (int v = 0; v < numVCs(); ++v) {
        const auto vi = static_cast<std::size_t>(v);
        s.gnt[vi] = static_cast<unsigned>(rng.below(32)) &
                    static_cast<unsigned>(rng.below(32));
        s.rd[vi] = static_cast<unsigned>(rng.below(32)) &
                   static_cast<unsigned>(rng.below(32));
      }
      h.cycleAndCompare(s, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_P(VcFifoFuzz, AcceptAndPopInOneCycleAndPushIntoFullVc) {
  // Directed: fill VC 1, swap (accept + pop on the same edge) below full,
  // then push into the full VC with and without a simultaneous pop.  A
  // full VC refuses the flit either way (accept precedes the pop), sets
  // the sticky overflow flag and keeps its stored flits in order.
  VcHarness h(numVCs(), depth(), flow(), kernel());
  auto offer = [&](std::uint32_t data, bool pop, const std::string& where) {
    Stimulus s;
    s.val = true;
    s.vc = 1;
    s.flit.data = data;
    if (pop) {
      s.gnt[1] = 1u << index(Port::East);
      s.rd[1] = 1u << index(Port::East);
    }
    h.cycleAndCompare(s, where);
  };
  for (int i = 0; i + 1 < depth(); ++i) {
    offer(0x100u + static_cast<std::uint32_t>(i), false,
          "fill " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int i = 0; i < 2 * depth(); ++i) {
    offer(0x200u + static_cast<std::uint32_t>(i), true,
          "swap " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(h.channel->occupancy(1), depth() - 1) << "swap " << i;
  }
  EXPECT_FALSE(h.channel->overflowDetected());
  offer(0x300u, false, "fill to full");
  ASSERT_EQ(h.channel->occupancy(1), depth());
  offer(0x400u, true, "push into full with pop");
  EXPECT_TRUE(h.channel->overflowDetected());
  EXPECT_EQ(h.channel->occupancy(1), depth() - 1);
  offer(0x500u, false, "push into free slot");
  offer(0x600u, false, "push into full");
  EXPECT_TRUE(h.channel->overflowDetected());
  EXPECT_EQ(h.channel->occupancy(1), depth());
  // Drain: the flits leave in arrival order, none overwritten.
  for (int i = 0; i < depth() + 1; ++i) {
    Stimulus s;
    s.gnt[1] = s.rd[1] = 1u << index(Port::South);
    h.cycleAndCompare(s, "drain " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(h.channel->occupancy(1), 0);
  EXPECT_TRUE(h.channel->overflowDetected());
}

INSTANTIATE_TEST_SUITE_P(
    VcsDepthsFlowControlAndKernels, VcFifoFuzz,
    ::testing::Combine(::testing::Values(2, 4), ::testing::Values(1, 2, 4, 7),
                       ::testing::Values(FlowControl::Handshake,
                                         FlowControl::CreditBased),
                       ::testing::Values(sim::Simulator::Kernel::Naive,
                                         sim::Simulator::Kernel::Compiled)),
    [](const auto& info) {
      return "Vc" + std::to_string(std::get<0>(info.param)) + "Depth" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == FlowControl::CreditBased ? "Credit"
                                                                  : "OnOff") +
             (std::get<3>(info.param) == sim::Simulator::Kernel::Naive
                  ? "Naive"
                  : "Compiled");
    });

}  // namespace
}  // namespace rasoc::router
