// Differential fuzz: a lone VcOutputChannel against an executable
// reference model of its phases, written plainly one field and one branch
// at a time (the channel itself works on masks over the packed words).
// Both kernels run the same phase bodies, so a Naive-vs-Compiled lockstep
// cannot see a bug in them; this model can.
//
// The model keeps the channel's registered state (connection table,
// allocation and link round-robin pointers, QoS starvation ages, credits)
// and, per cycle:
//   settle - grants from the connection table; the link schedule (round
//            robin, or strict priority by VC with the starvation guard
//            under qosClasses) driving one source's read strobe and the
//            link's val/vc/flit;
//   edge   - starvation ageing, the transfer commit (count, credit burn,
//            teardown on the tail), credit returns, then allocation of the
//            idle downstream VCs behind the space guard (vcFree, credits,
//            and under on/off the lane whose tail left on this edge).
// The stimulus is random but sticky (each field flips now and then, so
// connections, starvation runs and backpressure last): every input's rok,
// req, want and flit, and the receiver's vcFree and vcAck.  Every cycle the
// link word, every grant and read strobe, the per-VC sent counts and the
// credits of model and channel must agree.
//
// The last case checks the input side's bids: a header waiting through
// several patience windows, exposed by a push or by a pop, bids the same
// (port, want) sequence as a per-cycle vcRouteOptions() call.
#include "router/input_channel.hpp"
#include "router/output_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <tuple>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace rasoc::router {
namespace {

constexpr int kWindow = VcOutputChannel::kQosStarvationWindow;

// One cycle's stimulus of the output channel.
struct Inputs {
  std::array<std::array<bool, kMaxVCs>, kNumPorts> rok{};
  std::array<std::array<bool, kMaxVCs>, kNumPorts> req{};
  std::array<std::array<unsigned, kMaxVCs>, kNumPorts> want{};
  std::array<std::array<Flit, kMaxVCs>, kNumPorts> flit{};
  unsigned free = 0;
  unsigned acks = 0;
};

// What the channel drives in one settle.
struct Outputs {
  std::array<unsigned, kNumPorts> gnt{};  // bit v: input (i, v) granted
  std::array<unsigned, kNumPorts> rd{};   // bit v: input (i, v) read
  bool val = false;
  int vc = 0;
  Flit flit;
};

class ReferenceVcOutput {
 public:
  ReferenceVcOutput(int numVCs, int depth, bool credit, bool qos, int own)
      : numVCs_(numVCs), depth_(depth), credit_(credit), qos_(qos),
        own_(own) {
    reset();
  }

  void reset() {
    conn_.fill(Conn{});
    rrNext_.fill(0);
    schedRR_ = 0;
    starve_.fill(0);
    credits_.fill(depth_);
    sent_.fill(0);
  }

  int credits(int d) const { return credits_[static_cast<std::size_t>(d)]; }
  std::uint64_t flitsSent(int d) const {
    return sent_[static_cast<std::size_t>(d)];
  }

  Outputs settle(const Inputs& in) const {
    Outputs out;
    for (int d = 0; d < numVCs_; ++d) {
      const Conn& c = conn_[static_cast<std::size_t>(d)];
      if (c.active)
        out.gnt[static_cast<std::size_t>(c.inPort)] |= 1u << c.inVc;
    }
    int sched = -1;
    if (qos_) {
      int starved = -1;
      for (int d = numVCs_ - 1; d >= 0; --d) {
        if (!schedulable(in, d)) continue;
        if (sched < 0) sched = d;
        if (starve_[static_cast<std::size_t>(d)] >= kWindow) starved = d;
      }
      if (starved >= 0) sched = starved;
    } else {
      for (int step = 0; step < numVCs_ && sched < 0; ++step) {
        const int d = (schedRR_ + step) % numVCs_;
        if (schedulable(in, d)) sched = d;
      }
    }
    if (sched >= 0) {
      const Conn& c = conn_[static_cast<std::size_t>(sched)];
      out.rd[static_cast<std::size_t>(c.inPort)] = 1u << c.inVc;
      out.val = true;
      out.vc = sched;
      out.flit = in.flit[static_cast<std::size_t>(c.inPort)]
                        [static_cast<std::size_t>(c.inVc)];
    }
    return out;
  }

  void edge(const Inputs& in, const Outputs& out) {
    if (qos_) {
      for (int d = 0; d < numVCs_; ++d) {
        int& age = starve_[static_cast<std::size_t>(d)];
        if (schedulable(in, d) && !(out.val && out.vc == d)) {
          if (age <= kWindow) ++age;
        } else {
          age = 0;
        }
      }
    }
    if (out.val) {
      const auto d = static_cast<std::size_t>(out.vc);
      ++sent_[d];
      if (credit_) --credits_[d];
      if (out.flit.eop) conn_[d].active = false;
      schedRR_ = (out.vc + 1) % numVCs_;
    }
    if (credit_) {
      for (int d = 0; d < numVCs_; ++d)
        if ((in.acks >> d) & 1u) ++credits_[static_cast<std::size_t>(d)];
    }
    // Allocation, slot by slot and VC by VC.
    constexpr int kSlots = kNumPorts * kMaxVCs;
    std::array<bool, kSlots> taken{};
    for (int d = 0; d < numVCs_; ++d) {
      const Conn& c = conn_[static_cast<std::size_t>(d)];
      if (c.active)
        taken[static_cast<std::size_t>(c.inPort * kMaxVCs + c.inVc)] = true;
    }
    for (int d = 0; d < numVCs_; ++d) {
      Conn& c = conn_[static_cast<std::size_t>(d)];
      if (c.active) continue;
      if (((in.free >> d) & 1u) == 0) continue;
      if (credit_ && credits_[static_cast<std::size_t>(d)] <= 0) continue;
      if (!credit_ && out.val && out.vc == d) continue;
      int& rr = rrNext_[static_cast<std::size_t>(d)];
      for (int step = 0; step < kSlots; ++step) {
        const int slot = (rr + step) % kSlots;
        const int i = slot / kMaxVCs;
        const int v = slot % kMaxVCs;
        if (i == own_ || v >= numVCs_ || taken[static_cast<std::size_t>(slot)])
          continue;
        const auto ii = static_cast<std::size_t>(i);
        const auto vi = static_cast<std::size_t>(v);
        if (!in.req[ii][vi] || ((in.want[ii][vi] >> d) & 1u) == 0) continue;
        c = {true, i, v};
        taken[static_cast<std::size_t>(slot)] = true;
        rr = (slot + 1) % kSlots;
        break;
      }
    }
  }

 private:
  struct Conn {
    bool active = false;
    int inPort = 0;
    int inVc = 0;
  };

  bool schedulable(const Inputs& in, int d) const {
    const Conn& c = conn_[static_cast<std::size_t>(d)];
    if (!c.active) return false;
    if (!in.rok[static_cast<std::size_t>(c.inPort)]
               [static_cast<std::size_t>(c.inVc)])
      return false;
    if (((in.free >> d) & 1u) == 0) return false;
    if (credit_ && credits_[static_cast<std::size_t>(d)] <= 0) return false;
    return true;
  }

  int numVCs_;
  int depth_;
  bool credit_;
  bool qos_;
  int own_;
  std::array<Conn, kMaxVCs> conn_{};
  std::array<int, kMaxVCs> rrNext_{};
  int schedRR_ = 0;
  std::array<int, kMaxVCs> starve_{};
  std::array<int, kMaxVCs> credits_{};
  std::array<std::uint64_t, kMaxVCs> sent_{};
};

struct OutputHarness {
  OutputHarness(int numVCs, FlowControl flow, bool qos, Port own)
      : numVCs(numVCs), credit(flow == FlowControl::CreditBased),
        own(own), model(numVCs, kDepth, credit, qos, index(own)) {
    RouterParams params;
    params.n = 16;
    params.p = kDepth;
    params.numVCs = numVCs;
    params.flowControl = flow;
    params.qosClasses = qos;
    params.validate();
    channel = std::make_unique<VcOutputChannel>("out", params, own,
                                                VcGeometry{}, xbar, link);
    sim.setKernel(sim::Simulator::Kernel::Compiled);
    sim.add(*channel);
    sim.reset();
  }

  // Drives one cycle into both the channel and the model and checks every
  // output after the settle and every counter after the edge.
  void cycleAndCompare(const Inputs& in, const std::string& where) {
    for (std::size_t i = 0; i < kNumPorts; ++i) {
      for (std::size_t v = 0; v < static_cast<std::size_t>(numVCs); ++v) {
        CrossbarWires& x = xbar[i][v];
        x.rok.force(in.rok[i][v]);
        x.want.force(static_cast<int>(in.want[i][v]));
        x.flit.data.force(in.flit[i][v].data);
        x.flit.bop.force(in.flit[i][v].bop);
        x.flit.eop.force(in.flit[i][v].eop);
        for (std::size_t o = 0; o < kNumPorts; ++o)
          x.req[o].force(o == static_cast<std::size_t>(index(own)) &&
                         in.req[i][v]);
      }
    }
    for (std::size_t v = 0; v < static_cast<std::size_t>(numVCs); ++v) {
      link.vcFree[v].force(((in.free >> v) & 1u) != 0);
      link.vcAck[v].force(((in.acks >> v) & 1u) != 0);
    }
    sim.settle();
    const Outputs want = model.settle(in);
    const auto o = static_cast<std::size_t>(index(own));
    for (std::size_t i = 0; i < kNumPorts; ++i) {
      for (std::size_t v = 0; v < static_cast<std::size_t>(numVCs); ++v) {
        const std::string at =
            where + " input " + std::to_string(i) + "/" + std::to_string(v);
        ASSERT_EQ(xbar[i][v].gnt[o].get(), ((want.gnt[i] >> v) & 1u) != 0)
            << at;
        ASSERT_EQ(xbar[i][v].rd[o].get(), ((want.rd[i] >> v) & 1u) != 0)
            << at;
      }
    }
    ASSERT_EQ(link.val.get(), want.val) << where;
    ASSERT_EQ(link.vc.get(), want.vc) << where;
    ASSERT_EQ(readFlit(link.flit), want.flit) << where;

    sim.tick();
    model.edge(in, want);
    for (int d = 0; d < numVCs; ++d) {
      const std::string at = where + " vc " + std::to_string(d);
      ASSERT_EQ(channel->flitsSent(d), model.flitsSent(d)) << at;
      if (credit) {
        ASSERT_EQ(channel->credits().credits(d), model.credits(d)) << at;
      }
    }
  }

  static constexpr int kDepth = 3;
  int numVCs;
  bool credit;
  Port own;
  std::array<std::array<CrossbarWires, kMaxVCs>, kNumPorts> xbar;
  ChannelWires link;
  ReferenceVcOutput model;
  std::unique_ptr<VcOutputChannel> channel;
  sim::Simulator sim;
};

// Sticky random stimulus: each field keeps its value and redraws with a
// small probability, so states persist long enough for connections to
// carry several flits, starvation ages to cross the window and lanes to
// stay backpressured.
class StickyStimulus {
 public:
  StickyStimulus(int numVCs, std::uint64_t seed)
      : numVCs_(numVCs), rng_(seed) {}

  const Inputs& next(const OutputHarness& h) {
    for (std::size_t i = 0; i < kNumPorts; ++i) {
      for (std::size_t v = 0; v < static_cast<std::size_t>(numVCs_); ++v) {
        if (rng_.chance(0.3)) in_.rok[i][v] = rng_.chance(0.7);
        if (rng_.chance(0.2)) in_.req[i][v] = rng_.chance(0.3);
        if (rng_.chance(0.2))
          in_.want[i][v] = static_cast<unsigned>(rng_.below(1u << numVCs_));
        // A fresh flit every cycle; the tail closes the connection.
        Flit& f = in_.flit[i][v];
        f.data = static_cast<std::uint32_t>(rng_.next());
        f.bop = rng_.chance(0.2);
        f.eop = rng_.chance(0.25);
      }
    }
    for (int d = 0; d < numVCs_; ++d) {
      const unsigned bit = 1u << d;
      if (rng_.chance(0.25))
        in_.free = rng_.chance(0.75) ? in_.free | bit : in_.free & ~bit;
    }
    // Credit returns only for credits the sender is owed.
    in_.acks = 0;
    for (int d = 0; d < numVCs_; ++d)
      if (h.model.credits(d) < OutputHarness::kDepth && rng_.chance(0.4))
        in_.acks |= 1u << d;
    return in_;
  }

 private:
  int numVCs_;
  sim::Xoshiro256 rng_;
  Inputs in_;
};

using OutputParam = std::tuple<int, FlowControl, bool>;

std::string outputParamName(
    const ::testing::TestParamInfo<OutputParam>& info) {
  return "Vc" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) == FlowControl::CreditBased ? "Credit"
                                                              : "OnOff") +
         (std::get<2>(info.param) ? "Qos" : "RoundRobin");
}

void runFuzz(const OutputParam& param, std::uint64_t seed, int steps) {
  const auto [numVCs, flow, qos] = param;
  const Port own = static_cast<Port>(seed % kNumPorts);
  OutputHarness h(numVCs, flow, qos, own);
  StickyStimulus stimulus(numVCs, seed);
  for (int step = 0; step < steps; ++step) {
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    if (step == steps / 2) {
      // onReset(): connections, pointers, ages and credits start over.
      h.sim.reset();
      h.model.reset();
    }
    h.cycleAndCompare(stimulus.next(h), where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

const auto kOutputSweep = ::testing::Combine(
    ::testing::Values(2, 3, 4),
    ::testing::Values(FlowControl::Handshake, FlowControl::CreditBased),
    ::testing::Bool());

#ifndef RASOC_VC_OUTPUT_FUZZ_SOAK

class VcOutputFuzz : public ::testing::TestWithParam<OutputParam> {};

TEST_P(VcOutputFuzz, StickyRandomStimulusMatchesReferenceModel) {
  for (const std::uint64_t seed : {3u, 1234u}) {
    runFuzz(GetParam(), seed, 1500);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(VcsFlowControlAndQos, VcOutputFuzz, kOutputSweep,
                         outputParamName);

// --- input side: a waiting header's bids --------------------------------

struct InputHarness {
  InputHarness(const RouterParams& params, VcGeometry geometry) {
    channel = std::make_unique<VcInputChannel>("in", params, Port::Local,
                                               geometry, in, xbar);
    sim.add(*channel);
    sim.reset();
  }

  // Offers a flit on VC v (or nothing), with output `popPort` granting and
  // reading VC v (or no strobe), for the next settle.
  void drive(bool val, int v, std::uint32_t data, bool bop, int popPort) {
    in.val.force(val);
    in.vc.force(v);
    in.flit.data.force(data);
    in.flit.bop.force(bop);
    in.flit.eop.force(false);
    for (std::size_t o = 0; o < kNumPorts; ++o) {
      const bool strobe = static_cast<int>(o) == popPort;
      xbar[static_cast<std::size_t>(v)].gnt[o].force(strobe);
      xbar[static_cast<std::size_t>(v)].rd[o].force(strobe);
    }
  }
  void cycle(bool val, int v, std::uint32_t data, bool bop, int popPort) {
    drive(val, v, data, bop, popPort);
    sim.step();
  }

  ChannelWires in;
  std::array<CrossbarWires, kMaxVCs> xbar;
  std::unique_ptr<VcInputChannel> channel;
  sim::Simulator sim;
};

// The bid published for VC v: the one requested port and the want mask.
std::pair<int, unsigned> bid(const InputHarness& h, int v) {
  const CrossbarWires& x = h.xbar[static_cast<std::size_t>(v)];
  int port = -1;
  for (int o = 0; o < kNumPorts; ++o) {
    if (!x.req[static_cast<std::size_t>(o)].get()) continue;
    EXPECT_EQ(port, -1) << "one bid per input VC";
    port = o;
  }
  return {port, static_cast<unsigned>(x.want.get())};
}

TEST(VcInputRouteOptions, WaitingHeaderBidsThePerCycleRouteOptions) {
  // A header with two productive ports (East and North) on an adaptive VC
  // of a 4x4 torus node, so its option list has three entries (two
  // adaptive, the escape path last).  It reaches the head once by a push
  // into an empty VC and once behind a body flit that pops.  Each waiting
  // cycle's bid must be the option vcRouteOptions() gives for the
  // header's patience; the window is the channel's documented 4 edges,
  // scaled by 4^class under qosClasses.
  const VcGeometry geometry{1, 1, 4, 4, true, true};
  for (const bool qos : {false, true}) {
    for (const bool behindBody : {false, true}) {
      SCOPED_TRACE(std::string(qos ? "qos" : "plain") +
                   (behindBody ? " behind a body flit" : " into empty VC"));
      RouterParams params;
      params.n = 16;
      params.p = 4;
      params.numVCs = 4;
      params.qosClasses = qos;
      params.validate();
      InputHarness h(params, geometry);
      const int v = 3;
      const TrafficClass cls = TrafficClass::Bulk;
      const Rib rib{2, 1};
      std::uint32_t header = encodeRib(rib, params.m);
      if (qos) header = encodeTrafficClass(header, cls, params.m);
      const int window = qos ? 4 << (2 * static_cast<int>(cls)) : 4;
      const unsigned adaptive =
          qos ? qosVcMask(cls, params.numVCs, geometry.escapeVCs())
              : 0b1100u;
      std::array<VcRouteOption, kNumPorts> options;
      const int count = vcRouteOptions(geometry, rib, true,
                                       params.routing, adaptive, options);
      ASSERT_EQ(count, 3);

      if (behindBody) {
        h.cycle(true, v, 0x55, false, -1);
        h.cycle(true, v, header, true, -1);
        h.cycle(false, v, 0, false, index(Port::West));  // pops the body
      } else {
        h.cycle(true, v, header, true, -1);
      }
      // patience counts the ungranted edges the header has waited at the
      // head: the edge that pushed it counts, the granted pop does not.
      for (int patience = behindBody ? 0 : 1;
           patience <= window * (count + 1); ++patience) {
        h.drive(false, v, 0, false, -1);
        h.sim.settle();
        const VcRouteOption& o = options[static_cast<std::size_t>(
            std::min(patience / window, count - 1))];
        const auto [port, want] = bid(h, v);
        ASSERT_EQ(port, index(o.port)) << "patience " << patience;
        ASSERT_EQ(want, o.want) << "patience " << patience;
        ASSERT_EQ(h.xbar[static_cast<std::size_t>(v)].flit.data.get(),
                  updateHeader(header, consumeHop(rib, o.port), params.m) &
                      dataMask(params.n))
            << "patience " << patience;
        h.sim.tick();
      }
      EXPECT_FALSE(h.channel->misrouteDetected());
    }
  }
}

#else

// The soak slice: the same sweep over more seeds and longer runs.
class VcOutputFuzzSoak : public ::testing::TestWithParam<OutputParam> {};

TEST_P(VcOutputFuzzSoak, StickyRandomStimulusMatchesReferenceModel) {
  for (std::uint64_t seed = 100; seed < 124; ++seed) {
    runFuzz(GetParam(), seed, 6000);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(VcsFlowControlAndQos, VcOutputFuzzSoak,
                         kOutputSweep, outputParamName);

#endif

}  // namespace
}  // namespace rasoc::router
