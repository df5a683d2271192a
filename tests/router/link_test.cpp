// Link and FaultyLink unit tests over bare channel wires.
#include "router/link.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "router/faulty_link.hpp"
#include "sim/compile.hpp"
#include "sim/simulator.hpp"

namespace rasoc::router {
namespace {

using Kernel = sim::Simulator::Kernel;

constexpr Kernel kKernels[] = {Kernel::Naive, Kernel::Compiled};

const char* kernelName(Kernel kernel) {
  return kernel == Kernel::Naive ? "Naive" : "Compiled";
}

struct LinkRig {
  explicit LinkRig(Kernel kernel, double faultRate = -1.0, int dataBits = 16)
      : link(faultRate < 0.0
                 ? std::unique_ptr<Link>(new Link("link", src, dst))
                 : std::unique_ptr<Link>(new FaultyLink(
                       "flink", src, dst, dataBits, faultRate, 77))) {
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
    lw.phaseOp<&StagedSender::publish>(*this, {}, {&rok_});
    lw.phaseOp<&StagedSender::offer>(
        *this, {&rok_},
        {&out_->flit.data, &out_->flit.bop, &out_->flit.eop, &out_->val});
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
    lw.phaseOp<&EchoSink::evaluate>(*this, {&in_->val}, {&in_->ack});
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
      : link("flink", src, dst, 16, 0.0, 77), sender(src), sink(dst) {
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
      FaultyLink link("flink", src, dst, 16, 0.0, 77,
                      FlowControl::CreditBased, 2);
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
