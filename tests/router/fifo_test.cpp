#include "router/fifo.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace rasoc::router {
namespace {

RouterParams fifoParams(int n, int p, FifoImpl impl) {
  RouterParams params;
  params.n = n;
  params.p = p;
  params.fifoImpl = impl;
  return params;
}

// Direct-wire harness around one InputBuffer.
struct FifoHarness {
  explicit FifoHarness(int n, int p, FifoImpl impl)
      : fifo("fifo", fifoParams(n, p, impl), din, wr, rd, dout, wok, rok) {
    sim.add(fifo);
    sim.reset();
  }

  // One cycle with the given strobes; data only matters when writing.
  void cycle(bool write, bool read, std::uint32_t data = 0, bool bop = false,
             bool eop = false) {
    din.data.force(data);
    din.bop.force(bop);
    din.eop.force(eop);
    wr.force(write);
    rd.force(read);
    sim.step();
    sim.settle();
  }

  FlitWires din;
  FlitWires dout;
  sim::Wire<bool> wr, rd, wok, rok;
  InputBuffer fifo;
  sim::Simulator sim;
};

// RouterParams::fifoImpl picks the buffer's cost model only: every case
// runs the one ring under both settings.
class FifoBothImpls
    : public ::testing::TestWithParam<std::tuple<FifoImpl, int>> {
 protected:
  FifoImpl impl() const { return std::get<0>(GetParam()); }
  int depth() const { return std::get<1>(GetParam()); }
};

TEST_P(FifoBothImpls, StartsEmpty) {
  FifoHarness h(8, depth(), impl());
  EXPECT_TRUE(h.fifo.empty());
  EXPECT_FALSE(h.fifo.full());
  EXPECT_TRUE(h.wok.get());
  EXPECT_FALSE(h.rok.get());
}

TEST_P(FifoBothImpls, FillsToDepthThenSignalsFull) {
  FifoHarness h(8, depth(), impl());
  for (int i = 0; i < depth(); ++i) {
    EXPECT_TRUE(h.wok.get()) << "slot " << i;
    h.cycle(/*write=*/true, /*read=*/false, static_cast<std::uint32_t>(i));
  }
  EXPECT_TRUE(h.fifo.full());
  EXPECT_FALSE(h.wok.get());
  EXPECT_TRUE(h.rok.get());
  EXPECT_FALSE(h.fifo.overflowDetected());
}

TEST_P(FifoBothImpls, DrainsInFifoOrder) {
  FifoHarness h(8, depth(), impl());
  for (int i = 0; i < depth(); ++i)
    h.cycle(true, false, static_cast<std::uint32_t>(10 + i));
  for (int i = 0; i < depth(); ++i) {
    EXPECT_TRUE(h.rok.get());
    EXPECT_EQ(h.dout.data.get(), static_cast<std::uint32_t>(10 + i));
    h.cycle(false, true);
  }
  EXPECT_TRUE(h.fifo.empty());
  EXPECT_FALSE(h.rok.get());
}

TEST_P(FifoBothImpls, FramingBitsTravelWithTheData) {
  FifoHarness h(8, depth(), impl());
  h.cycle(true, false, 0x5a, /*bop=*/true, /*eop=*/false);
  EXPECT_TRUE(h.dout.bop.get());
  EXPECT_FALSE(h.dout.eop.get());
  h.cycle(true, true, 0x3c, /*bop=*/false, /*eop=*/true);
  EXPECT_FALSE(h.dout.bop.get());
  EXPECT_TRUE(h.dout.eop.get());
}

TEST_P(FifoBothImpls, SimultaneousReadWriteKeepsOccupancy) {
  FifoHarness h(8, depth(), impl());
  h.cycle(true, false, 1);
  const int before = h.fifo.occupancy();
  h.cycle(true, true, 2);
  EXPECT_EQ(h.fifo.occupancy(), before);
  EXPECT_EQ(h.dout.data.get(), 2u);
}

TEST_P(FifoBothImpls, WriteWhenFullIsDroppedAndFlagged) {
  FifoHarness h(8, depth(), impl());
  for (int i = 0; i < depth(); ++i)
    h.cycle(true, false, static_cast<std::uint32_t>(i));
  h.cycle(true, false, 99);  // must be rejected
  EXPECT_EQ(h.fifo.occupancy(), depth());
  EXPECT_TRUE(h.fifo.overflowDetected());
  // Drain and confirm 99 never entered.
  for (int i = 0; i < depth(); ++i) {
    EXPECT_EQ(h.dout.data.get(), static_cast<std::uint32_t>(i));
    h.cycle(false, true);
  }
}

TEST_P(FifoBothImpls, ReadWhenEmptyIsIgnored) {
  FifoHarness h(8, depth(), impl());
  h.cycle(false, true);
  EXPECT_TRUE(h.fifo.empty());
  h.cycle(true, false, 7);
  EXPECT_EQ(h.dout.data.get(), 7u);
}

TEST_P(FifoBothImpls, DataIsMaskedToChannelWidth) {
  FifoHarness h(8, depth(), impl());
  h.cycle(true, false, 0xfff);
  EXPECT_EQ(h.dout.data.get(), 0xffu);
}

TEST_P(FifoBothImpls, WrapAroundKeepsOrderAcrossManyOperations) {
  FifoHarness h(16, depth(), impl());
  std::uint32_t writeSeq = 0, readSeq = 0;
  // Interleave writes and reads long enough to wrap several times.
  for (int step = 0; step < 6 * depth(); ++step) {
    const bool canWrite = !h.fifo.full();
    if (canWrite) {
      h.cycle(true, false, writeSeq++);
    }
    if (h.fifo.occupancy() >= depth() / 2 + 1) {
      while (!h.fifo.empty()) {
        EXPECT_EQ(h.dout.data.get(), readSeq++);
        h.cycle(false, true);
      }
    }
  }
  while (!h.fifo.empty()) {
    EXPECT_EQ(h.dout.data.get(), readSeq++);
    h.cycle(false, true);
  }
  EXPECT_EQ(readSeq, writeSeq);
}

INSTANTIATE_TEST_SUITE_P(
    ImplAndDepth, FifoBothImpls,
    ::testing::Combine(::testing::Values(FifoImpl::FlipFlop, FifoImpl::Eab),
                       ::testing::Values(1, 2, 3, 4, 8)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == FifoImpl::FlipFlop
                             ? "FF"
                             : "EAB") +
             "_p" + std::to_string(std::get<1>(info.param));
    });

// Reset empties the buffer and clears the sticky overflow flag, as the VC'd
// input channel's reset does, so Network::healthy() reads the run after it.
TEST(InputBufferReset, ClearsContentsAndOverflowFlag) {
  FifoHarness h(8, 2, FifoImpl::Eab);
  h.cycle(true, false, 1);
  h.cycle(true, false, 2);
  h.cycle(true, false, 3);  // rejected: full
  ASSERT_TRUE(h.fifo.overflowDetected());
  h.sim.reset();
  EXPECT_TRUE(h.fifo.empty());
  EXPECT_FALSE(h.fifo.overflowDetected());
  EXPECT_FALSE(h.rok.get());
}

}  // namespace
}  // namespace rasoc::router
