// Link and FaultyLink unit tests over bare channel wires.
#include "router/link.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "router/faulty_link.hpp"
#include "router/vc_arena.hpp"
#include "sim/compile.hpp"
#include "sim/simulator.hpp"

namespace rasoc::router {
namespace {

using Kernel = sim::Simulator::Kernel;

constexpr Kernel kKernels[] = {Kernel::Naive, Kernel::Compiled};

const char* kernelName(Kernel kernel) {
  return kernel == Kernel::Naive ? "Naive" : "Compiled";
}

// A plain Link, or (faultRate >= 0) a FaultyLink with one Corrupt window
// of that rate over the whole run.
struct LinkRig {
  explicit LinkRig(Kernel kernel, double faultRate = -1.0, int dataBits = 16) {
    if (faultRate < 0.0) {
      link = std::make_unique<Link>("link", src, dst);
    } else {
      auto faulty = std::make_unique<FaultyLink>("flink", src, dst, dataBits,
                                                 77);
      faulty->setWindows({{FaultWindow::Kind::Corrupt, 0,
                           std::numeric_limits<std::uint64_t>::max(),
                           faultRate}});
      link = std::move(faulty);
    }
    sim.setKernel(kernel);
    sim.add(*link);
    sim.reset();
  }

  // Presents one flit upstream with the sink always ready, steps a cycle.
  void transfer(std::uint32_t data, bool bop, bool eop) {
    src.flit.data.force(data);
    src.flit.bop.force(bop);
    src.flit.eop.force(eop);
    src.val.force(true);
    dst.ack.force(true);
    sim.settle();
    sim.step();
  }

  ChannelWires src, dst;
  std::unique_ptr<Link> link;
  sim::Simulator sim;
};

TEST(LinkTest, ForwardsDataAndFraming) {
  for (const Kernel kernel : kKernels) {
    SCOPED_TRACE(kernelName(kernel));
    LinkRig rig(kernel);
    rig.src.flit.data.force(0xbeef);
    rig.src.flit.bop.force(true);
    rig.src.flit.eop.force(false);
    rig.src.val.force(true);
    rig.sim.settle();
    EXPECT_EQ(rig.dst.flit.data.get(), 0xbeefu);
    EXPECT_TRUE(rig.dst.flit.bop.get());
    EXPECT_FALSE(rig.dst.flit.eop.get());
    EXPECT_TRUE(rig.dst.val.get());
  }
}

TEST(LinkTest, AckTravelsUpstream) {
  for (const Kernel kernel : kKernels) {
    SCOPED_TRACE(kernelName(kernel));
    LinkRig rig(kernel);
    rig.dst.ack.force(true);
    rig.sim.settle();
    EXPECT_TRUE(rig.src.ack.get());
    rig.dst.ack.force(false);
    rig.sim.settle();
    EXPECT_FALSE(rig.src.ack.get());
  }
}

TEST(LinkTest, PokesOnThePlacedSourceWordReachTheDestination) {
  // The link places its channel words under both kernels, so the source
  // wires are bound to the arena and a poke between cycles writes through
  // to it; the next settle forwards what was poked.
  class Forcer : public sim::Module {
   public:
    explicit Forcer(sim::Wire<bool>& victim)
        : Module("forcer"), victim_(&victim) {}
    bool describe(sim::Lowering& lw) override {
      lw.op([](std::uint64_t*,
               void* m) { static_cast<Forcer*>(m)->victim_->force(true); },
            this, {}, {});
      return true;
    }

   private:
    sim::Wire<bool>* victim_;
  };
  for (const Kernel kernel : kKernels) {
    SCOPED_TRACE(kernelName(kernel));
    LinkRig rig(kernel);
    EXPECT_TRUE(rig.src.val.arenaBound());
    EXPECT_TRUE(rig.src.flit.data.arenaBound());
    for (std::uint32_t i = 0; i < 4; ++i) {
      const bool val = i % 2 == 0;
      rig.src.flit.data.force(0xa0u + i);
      rig.src.flit.bop.force(i == 0);
      rig.src.flit.eop.force(i == 3);
      rig.src.val.force(val);
      rig.sim.settle();
      EXPECT_EQ(rig.dst.flit.data.get(), 0xa0u + i);
      EXPECT_EQ(rig.dst.flit.bop.get(), i == 0);
      EXPECT_EQ(rig.dst.flit.eop.get(), i == 3);
      EXPECT_EQ(rig.dst.val.get(), val);
      rig.sim.step();
    }
    // A force from inside a settle unit is outside the poke window.
    Forcer forcer(rig.src.val);
    rig.sim.add(forcer);
    EXPECT_THROW(rig.sim.settle(), std::logic_error);
    EXPECT_NO_THROW(rig.src.val.force(false));
  }
}

TEST(LinkTest, CountsOnlyAcknowledgedTransfers) {
  for (const Kernel kernel : kKernels) {
    SCOPED_TRACE(kernelName(kernel));
    LinkRig rig(kernel);
    rig.src.val.force(true);
    rig.dst.ack.force(false);  // stalled
    rig.sim.settle();
    rig.sim.step();
    EXPECT_EQ(rig.link->flitsTransferred(), 0u);
    rig.dst.ack.force(true);
    rig.sim.settle();
    rig.sim.step();
    EXPECT_EQ(rig.link->flitsTransferred(), 1u);
    EXPECT_DOUBLE_EQ(rig.link->utilization(2), 0.5);
  }
}

TEST(FaultyLinkUnitTest, AlwaysFlipCorruptsEveryPayloadFlit) {
  for (const Kernel kernel : kKernels) {
    SCOPED_TRACE(kernelName(kernel));
    LinkRig rig(kernel, /*faultRate=*/1.0);
    for (int i = 0; i < 20; ++i) rig.transfer(0x0, /*bop=*/false, false);
    auto* faulty = dynamic_cast<FaultyLink*>(rig.link.get());
    ASSERT_NE(faulty, nullptr);
    EXPECT_EQ(faulty->flitsCorrupted(), 20u);
  }
}

TEST(FaultyLinkUnitTest, CorruptionIsExactlyOneBit) {
  for (const Kernel kernel : kKernels) {
    SCOPED_TRACE(kernelName(kernel));
    LinkRig rig(kernel, 1.0);
    for (int i = 0; i < 50; ++i) {
      rig.src.flit.data.force(0x0);
      rig.src.flit.bop.force(false);
      rig.src.flit.eop.force(false);
      rig.src.val.force(true);
      rig.dst.ack.force(true);
      rig.sim.settle();
      const std::uint32_t received = rig.dst.flit.data.get();
      EXPECT_EQ(std::popcount(received), 1) << "flit " << i;
      EXPECT_LT(received, 1u << 16) << "flip stays inside the data bits";
      rig.sim.step();
    }
  }
}

TEST(FaultyLinkUnitTest, HeadersPassClean) {
  for (const Kernel kernel : kKernels) {
    SCOPED_TRACE(kernelName(kernel));
    LinkRig rig(kernel, 1.0);
    rig.src.flit.data.force(0x1234);
    rig.src.flit.bop.force(true);
    rig.src.val.force(true);
    rig.dst.ack.force(true);
    rig.sim.settle();
    EXPECT_EQ(rig.dst.flit.data.get(), 0x1234u);
    rig.sim.step();
    auto* faulty = dynamic_cast<FaultyLink*>(rig.link.get());
    EXPECT_EQ(faulty->flitsCorrupted(), 0u);
  }
}

TEST(FaultyLinkUnitTest, EvaluateIsIdempotentWithinACycle) {
  for (const Kernel kernel : kKernels) {
    SCOPED_TRACE(kernelName(kernel));
    // The fixpoint loop re-runs evaluate(); the injected mask must not
    // change between passes of the same cycle.
    LinkRig rig(kernel, 1.0);
    rig.src.flit.data.force(0x0);
    rig.src.flit.bop.force(false);
    rig.src.val.force(true);
    rig.dst.ack.force(true);
    rig.sim.settle();
    const std::uint32_t first = rig.dst.flit.data.get();
    rig.sim.settle();
    rig.sim.settle();
    EXPECT_EQ(rig.dst.flit.data.get(), first);
  }
}

TEST(FaultyLinkUnitTest, ResetRestoresDeterministicSequence) {
  for (const Kernel kernel : kKernels) {
    SCOPED_TRACE(kernelName(kernel));
    auto corrupt = [](LinkRig& rig, int flits) {
      std::vector<std::uint32_t> seen;
      for (int i = 0; i < flits; ++i) {
        rig.src.flit.data.force(0);
        rig.src.flit.bop.force(false);
        rig.src.val.force(true);
        rig.dst.ack.force(true);
        rig.sim.settle();
        seen.push_back(rig.dst.flit.data.get());
        rig.sim.step();
      }
      return seen;
    };
    LinkRig rig(kernel, 0.5);
    const auto first = corrupt(rig, 30);
    rig.sim.reset();
    const auto second = corrupt(rig, 30);
    EXPECT_EQ(first, second);
  }
}

// --- fault windows on both kernels --------------------------------------

// Streams queued flits through the val/ack handshake.  Like a router's
// buffer and output flow controller, it drives the channel one level into
// the settle tape: `publish` raises rok from the registered queue and
// `offer` drives the flit and val from rok.
class StagedSender : public sim::Module {
 public:
  explicit StagedSender(ChannelWires& out) : Module("sender"), out_(&out) {}

  void push(std::uint32_t data, bool bop, bool eop) {
    queue_.push_back(Flit{data, bop, eop});
  }

  bool describe(sim::Lowering& lw) override {
    const sim::WordBits rok{lw.packedWord({{rok_, 0}}), vcarena::bit(0)};
    const std::uint32_t out =
        vcarena::ArenaPlacer{lw}(vcarena::WireTwin::channel(*out_, 1));
    lw.op([](std::uint64_t*,
             void* m) { static_cast<StagedSender*>(m)->publish(); },
          this, {}, {rok});
    lw.op([](std::uint64_t*,
             void* m) { static_cast<StagedSender*>(m)->offer(); },
          this, {rok},
          {{out, vcarena::kFlitMask | vcarena::bit(vcarena::kVal)}});
    lw.edgeCall(*this);
    return true;
  }

 protected:
  void evaluate() override {
    publish();
    offer();
  }
  void clockEdge() override {
    if (out_->val.get() && out_->ack.get()) queue_.pop_front();
  }

 private:
  void publish() { rok_.set(!queue_.empty()); }
  void offer() {
    driveFlit(out_->flit, rok_.get() ? queue_.front() : Flit{});
    out_->val.set(rok_.get());
  }

  ChannelWires* out_;
  std::deque<Flit> queue_;
  sim::Wire<bool> rok_;
};

// Acks whatever is offered, as the input flow controller does with space.
class EchoSink : public sim::Module {
 public:
  explicit EchoSink(ChannelWires& in) : Module("sink"), in_(&in) {}

  bool describe(sim::Lowering& lw) override {
    const std::uint32_t in =
        vcarena::ArenaPlacer{lw}(vcarena::WireTwin::channel(*in_, 1));
    lw.op([](std::uint64_t*,
             void* m) { static_cast<EchoSink*>(m)->evaluate(); },
          this, {{in, vcarena::bit(vcarena::kVal)}},
          {{in, vcarena::bit(vcarena::kAck)}});
    return true;
  }

 protected:
  void evaluate() override { in_->ack.set(in_->val.get()); }

 private:
  ChannelWires* in_;
};

// A header, body and tail flit queued in a StagedSender, sent through a
// single-VC FaultyLink with `windows` and no corruption.  The receiving
// side is an EchoSink, or (echoSink false) an ack forced high with no
// receiving unit, so that the link's reverse phase is ordered by its own
// declared reads alone.
struct WindowRig {
  WindowRig(Kernel kernel, bool echoSink, std::vector<FaultWindow> windows)
      : link("flink", src, dst, 16, 77), sender(src), sink(dst) {
    link.setWindows(std::move(windows));
    sim.setKernel(kernel);
    sim.add(sender);
    sim.add(link);
    if (echoSink) sim.add(sink);
    sim.reset();
    if (!echoSink) dst.ack.force(true);
    sender.push(0x11, true, false);
    sender.push(0x22, false, false);
    sender.push(0x33, false, true);
  }

  // Per cycle (src.ack, dst.val), collecting the data words that reach
  // dst.  One settle per cycle, so a unit the compiled tape ran before
  // one of its inputs' writers would see the previous cycle's value.
  std::vector<std::pair<bool, bool>> run(int cycles) {
    std::vector<std::pair<bool, bool>> views;
    for (int c = 0; c < cycles; ++c) {
      sim.settle();
      views.emplace_back(src.ack.get(), dst.val.get());
      if (dst.val.get()) arrived.push_back(dst.flit.data.get());
      sim.tick();
    }
    return views;
  }

  ChannelWires src, dst;
  FaultyLink link;
  StagedSender sender;
  EchoSink sink;
  sim::Simulator sim;
  std::vector<std::uint32_t> arrived;
};

TEST(FaultyLinkUnitTest, StuckAckWindowHoldsTheBodyFlit) {
  for (const Kernel kernel : kKernels) {
    for (const bool echoSink : {true, false}) {
      SCOPED_TRACE(std::string(kernelName(kernel)) +
                   (echoSink ? " echo sink" : " forced ack"));
      WindowRig rig(kernel, echoSink,
                    {{FaultWindow::Kind::StuckAck, 1, 3, 1.0}});
      // The header passes; the body waits out cycles 1..3; then the body
      // and the tail pass.
      const std::vector<std::pair<bool, bool>> expected = {
          {true, true},   {false, false}, {false, false},
          {false, false}, {true, true},   {true, true}};
      EXPECT_EQ(rig.run(6), expected);
      EXPECT_EQ(rig.arrived, (std::vector<std::uint32_t>{0x11, 0x22, 0x33}));
      EXPECT_EQ(rig.link.stallCycles(), 3u);
      EXPECT_EQ(rig.link.flitsDropped(), 0u);
    }
  }
}

TEST(FaultyLinkUnitTest, LinkDownWindowConsumesTheBodyAndStallsTheTail) {
  for (const Kernel kernel : kKernels) {
    for (const bool echoSink : {true, false}) {
      SCOPED_TRACE(std::string(kernelName(kernel)) +
                   (echoSink ? " echo sink" : " forced ack"));
      WindowRig rig(kernel, echoSink,
                    {{FaultWindow::Kind::LinkDown, 1, 2, 1.0}});
      // Cycle 1: the body is acked upstream but never presented.  Cycle 2:
      // the tail is framing, so it stalls.  Cycle 3: the tail passes.
      const std::vector<std::pair<bool, bool>> expected = {
          {true, true}, {true, false}, {false, false}, {true, true}};
      EXPECT_EQ(rig.run(4), expected);
      EXPECT_EQ(rig.arrived, (std::vector<std::uint32_t>{0x11, 0x33}));
      EXPECT_EQ(rig.link.flitsDropped(), 1u);
      EXPECT_EQ(rig.link.stallCycles(), 1u);
    }
  }
}

TEST(FaultyLinkUnitTest, VcWindowMasksVcFreeAndPassesVcAck) {
  for (const Kernel kernel : kKernels) {
    for (const auto kind :
         {FaultWindow::Kind::StuckAck, FaultWindow::Kind::LinkDown}) {
      SCOPED_TRACE(std::string(kernelName(kernel)) +
                   (kind == FaultWindow::Kind::StuckAck ? " stuck" : " down"));
      ChannelWires src, dst;
      FaultyLink link("flink", src, dst, 16, 77, FlowControl::CreditBased,
                      2);
      link.setWindows({{kind, 1, 2, 1.0}});
      sim::Simulator sim;
      sim.setKernel(kernel);
      sim.add(link);
      sim.reset();
      dst.vcFree[0].force(true);
      dst.vcFree[1].force(true);
      for (int c = 0; c < 4; ++c) {
        dst.vcAck[0].force(c % 2 == 0);
        dst.vcAck[1].force(c % 2 == 1);
        sim.settle();
        const bool window = c == 1 || c == 2;
        EXPECT_EQ(src.vcFree[0].get(), !window) << "cycle " << c;
        EXPECT_EQ(src.vcFree[1].get(), !window) << "cycle " << c;
        EXPECT_EQ(src.vcAck[0].get(), c % 2 == 0) << "cycle " << c;
        EXPECT_EQ(src.vcAck[1].get(), c % 2 == 1) << "cycle " << c;
        sim.tick();
      }
      EXPECT_EQ(link.stallCycles(), 2u);
      EXPECT_EQ(link.flitsDropped(), 0u);
    }
  }
}

}  // namespace
}  // namespace rasoc::router
