// Differential fuzz: the InputBuffer (one FlitRings ring) against an
// executable reference model built on std::deque, under both settings of
// RouterParams::fifoImpl (a cost-model choice that must leave the simulated
// buffer unchanged).  The model encodes the documented FIFO contract —
// including the subtle corner where a write arrives while the buffer is
// full but a simultaneous read frees the slot on the same edge — and every
// cycle the visible outputs (wok / rok / dout / occupancy / overflow flag)
// of model and hardware must agree flit-for-flit.
#include "router/fifo.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <tuple>

#include "sim/compile.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace rasoc::router {
namespace {

// Golden-model FIFO: same contract as InputBuffer, no clocking machinery.
class ReferenceFifo {
 public:
  ReferenceFifo(int dataBits, int depth)
      : mask_(dataMask(dataBits)), depth_(depth) {}

  bool wok() const { return static_cast<int>(q_.size()) < depth_; }
  bool rok() const { return !q_.empty(); }
  Flit dout() const { return q_.empty() ? Flit{} : q_.front(); }
  int occupancy() const { return static_cast<int>(q_.size()); }
  bool overflow() const { return overflow_; }

  void clockEdge(Flit din, bool wr, bool rd) {
    const bool doRead = rd && !q_.empty();
    const bool doWrite = wr && (wok() || doRead);
    if (wr && !wok() && !doRead) overflow_ = true;
    if (doRead) q_.pop_front();
    if (doWrite) {
      din.data &= mask_;
      q_.push_back(din);
    }
  }

 private:
  std::uint32_t mask_;
  int depth_;
  std::deque<Flit> q_;
  bool overflow_ = false;
};

// Lowers a bare InputBuffer for the compiled kernel.  Inside a router the
// input channel lowers its buffer; on its own the buffer is one op over
// its evaluate() (publish() reads only registered state) plus its clock
// edge.
class BufferShell : public sim::Module {
 public:
  BufferShell(InputBuffer& fifo, const FlitWires& dout,
              const sim::Wire<bool>& wok, const sim::Wire<bool>& rok)
      : Module("shell"), fifo_(&fifo), dout_(&dout), wok_(&wok), rok_(&rok) {
    addChild(fifo);
  }

  bool describe(sim::Lowering& lw) override {
    const auto alone = [&](const auto& w) {
      return sim::WordBits{lw.packedWord({{w, 0}}), ~std::uint64_t{0}};
    };
    lw.op([](std::uint64_t*,
             void* m) { static_cast<sim::Module*>(m)->evaluateOne(); },
          static_cast<sim::Module*>(fifo_), {},
          {alone(dout_->data), alone(dout_->bop), alone(dout_->eop),
           alone(*wok_), alone(*rok_)});
    lw.edgeCall(*fifo_);
    return true;
  }

 private:
  InputBuffer* fifo_;
  const FlitWires* dout_;
  const sim::Wire<bool>* wok_;
  const sim::Wire<bool>* rok_;
};

struct FuzzHarness {
  FuzzHarness(int n, int p, FifoImpl impl, sim::Simulator::Kernel kernel)
      : model(n, p),
        fifo("fifo", bufferParams(n, p, impl), din, wr, rd, dout, wok, rok),
        shell(fifo, dout, wok, rok) {
    sim.setKernel(kernel);
    sim.add(shell);
    sim.reset();
  }

  static RouterParams bufferParams(int n, int p, FifoImpl impl) {
    RouterParams params;
    params.n = n;
    params.p = p;
    params.fifoImpl = impl;
    return params;
  }

  // Drives one cycle into both the hardware and the model, then checks
  // every observable output.  Returns via gtest assertions.
  void cycleAndCompare(std::uint32_t data, bool bop, bool eop, bool write,
                       bool read, const std::string& where) {
    din.data.force(data);
    din.bop.force(bop);
    din.eop.force(eop);
    wr.force(write);
    rd.force(read);
    sim.settle();
    Flit sampled;
    sampled.data = data;
    sampled.bop = bop;
    sampled.eop = eop;
    sim.tick();
    model.clockEdge(sampled, write, read);
    sim.settle();

    ASSERT_EQ(wok.get(), model.wok()) << where;
    ASSERT_EQ(rok.get(), model.rok()) << where;
    ASSERT_EQ(fifo.occupancy(), model.occupancy()) << where;
    ASSERT_EQ(fifo.overflowDetected(), model.overflow()) << where;
    const Flit expect = model.dout();
    ASSERT_EQ(dout.data.get(), expect.data) << where;
    ASSERT_EQ(dout.bop.get(), expect.bop) << where;
    ASSERT_EQ(dout.eop.get(), expect.eop) << where;
  }

  FlitWires din;
  FlitWires dout;
  sim::Wire<bool> wr, rd, wok, rok;
  ReferenceFifo model;
  InputBuffer fifo;
  BufferShell shell;
  sim::Simulator sim;
};

class FifoFuzz : public ::testing::TestWithParam<
                     std::tuple<FifoImpl, int, sim::Simulator::Kernel>> {
 protected:
  FifoImpl impl() const { return std::get<0>(GetParam()); }
  int depth() const { return std::get<1>(GetParam()); }
  sim::Simulator::Kernel kernel() const { return std::get<2>(GetParam()); }
};

TEST_P(FifoFuzz, RandomStrobesMatchReferenceModel) {
  for (const std::uint64_t seed : {1u, 77u, 4242u}) {
    FuzzHarness h(8, depth(), impl(), kernel());
    sim::Xoshiro256 rng(seed);
    for (int step = 0; step < 2000; ++step) {
      // Biased strobes so full and empty are both visited often; data wider
      // than n exercises the write-side masking.
      const bool write = rng.chance(0.55);
      const bool read = rng.chance(0.45);
      const auto data = static_cast<std::uint32_t>(rng.next() & 0x3ff);
      const bool bop = rng.chance(0.25);
      const bool eop = rng.chance(0.25);
      h.cycleAndCompare(data, bop, eop, write, read,
                        "seed " + std::to_string(seed) + " step " +
                            std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_P(FifoFuzz, WriteWhileFullWithSimultaneousRead) {
  // Directed version of the trickiest legal transaction: fill the FIFO,
  // then push-while-popping at full occupancy for several cycles.  The slot
  // freed by the read must accept the write on the same edge without
  // tripping the overflow detector, and the head must advance in order.
  FuzzHarness h(8, depth(), impl(), kernel());
  for (int i = 0; i < depth(); ++i) {
    h.cycleAndCompare(static_cast<std::uint32_t>(0x20 + i), i == 0, false,
                      /*write=*/true, /*read=*/false,
                      "fill " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_TRUE(h.fifo.full());
  for (int i = 0; i < 3 * depth(); ++i) {
    h.cycleAndCompare(static_cast<std::uint32_t>(0x40 + i), false,
                      i % depth() == 0,
                      /*write=*/true, /*read=*/true,
                      "swap " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(h.fifo.full()) << "swap " << i;
  }
  EXPECT_FALSE(h.fifo.overflowDetected());
  // And the illegal cousin: write-while-full with no read must stick the
  // overflow flag (in both model and hardware) and drop the flit.
  h.cycleAndCompare(0xff, false, false, /*write=*/true, /*read=*/false,
                    "overflow");
  EXPECT_TRUE(h.fifo.overflowDetected());
}

INSTANTIATE_TEST_SUITE_P(
    BothImplsDepthsAndKernels, FifoFuzz,
    ::testing::Combine(::testing::Values(FifoImpl::FlipFlop, FifoImpl::Eab),
                       ::testing::Values(1, 2, 4, 7, 64),
                       ::testing::Values(sim::Simulator::Kernel::Naive,
                                         sim::Simulator::Kernel::Compiled)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == FifoImpl::FlipFlop
                             ? "Ff"
                             : "Eab") +
             "Depth" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == sim::Simulator::Kernel::Naive
                  ? "Naive"
                  : "Compiled");
    });

}  // namespace
}  // namespace rasoc::router
