// ReliableTransport protocol engine: sequence arithmetic, exactly-once
// ordering across sequence wraparound, loss recovery, NACK fast
// retransmit, bounded exponential backoff and abandonment.  The engine is
// exercised without a network — an in-memory wire shuttles frames between
// two transports, optionally dropping or corrupting them.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "noc/reliable.hpp"
#include "noc/topology.hpp"

namespace rasoc::noc {
namespace {

constexpr int kPayloadBits = 16;

ReliabilityConfig makeConfig(int seqBits, int window) {
  ReliabilityConfig c;
  c.enabled = true;
  c.seqBits = seqBits;
  c.window = window;
  c.rtoInitial = 16;
  c.rtoMax = 256;
  c.nackMinInterval = 8;
  return c;
}

TEST(SequenceArithmeticTest, DistanceAndOrderWrapAround) {
  EXPECT_EQ(seqMask(4), 0xfu);
  EXPECT_EQ(seqDistance(0, 3, 8), 3u);
  EXPECT_EQ(seqDistance(250, 3, 8), 9u);   // wraps through 255 -> 0
  EXPECT_EQ(seqDistance(3, 250, 8), 247u);
  EXPECT_TRUE(seqLess(255, 0, 8));   // 0 is one ahead of 255
  EXPECT_FALSE(seqLess(0, 255, 8));  // ...not 255 ahead of 0
  EXPECT_TRUE(seqLess(14, 1, 4));    // same at 4 bits
  EXPECT_FALSE(seqLess(7, 7, 4));
  EXPECT_TRUE(seqLessEq(7, 7, 4));
  EXPECT_TRUE(seqLessEq(6, 7, 4));
}

TEST(ReliabilityConfigTest, ValidateRejectsInconsistentKnobs) {
  // Window larger than half the sequence space breaks selective repeat.
  ReliabilityConfig c = makeConfig(4, 9);
  EXPECT_THROW(c.validate(kPayloadBits), std::invalid_argument);
  c = makeConfig(4, 8);
  EXPECT_NO_THROW(c.validate(kPayloadBits));
  // Control word (seqBits + 2 type bits) must fit a payload word.
  c = makeConfig(15, 8);
  EXPECT_THROW(c.validate(kPayloadBits), std::invalid_argument);
  // Backoff ceiling below the initial RTO is nonsense.
  c = makeConfig(8, 8);
  c.rtoMax = c.rtoInitial - 1;
  EXPECT_THROW(c.validate(kPayloadBits), std::invalid_argument);
  // Degenerate window.
  c = makeConfig(8, 0);
  EXPECT_THROW(c.validate(kPayloadBits), std::invalid_argument);
}

// In-memory wire between two transports on a 2x1 mesh.  Frames cross with
// a fixed latency; `filter` may mutate the words in flight or return false
// to drop the message entirely.  onFrameSent fires at the cycle the frame
// is handed to the wire, mirroring the NI's last-flit-out arming point.
class Harness {
 public:
  // (sender index, wire words incl. leading source index) -> keep?
  using Filter = std::function<bool(int, std::vector<std::uint32_t>&)>;

  explicit Harness(const ReliabilityConfig& config, std::uint64_t latency = 4)
      : topology_(makeTopology("mesh", 2, 1)), latency_(latency) {
    for (int i = 0; i < 2; ++i) {
      transports_.push_back(std::make_unique<ReliableTransport>(
          config, topology_, topology_->nodeAt(i), kPayloadBits));
      transports_.back()->reset();
    }
  }

  ReliableTransport& at(int i) { return *transports_[i]; }
  NodeId node(int i) const { return topology_->nodeAt(i); }
  std::uint64_t cycle() const { return cycle_; }
  void setFilter(Filter f) { filter_ = std::move(f); }

  const std::vector<std::vector<std::uint32_t>>& deliveredAt(int i) const {
    return delivered_[i];
  }

  void step() {
    for (int i = 0; i < 2; ++i) {
      for (auto& frame : transports_[i]->takeFrames()) {
        if (frame.frameId != 0)
          transports_[i]->onFrameSent(frame.frameId, cycle_);
        std::vector<std::uint32_t> words;
        words.push_back(static_cast<std::uint32_t>(i));
        words.insert(words.end(), frame.words.begin(), frame.words.end());
        if (filter_ && !filter_(i, words)) continue;
        inFlight_.push_back({topology_->indexOf(frame.dst), std::move(words),
                             cycle_ + latency_});
      }
    }
    for (auto it = inFlight_.begin(); it != inFlight_.end();) {
      if (it->deliverAt <= cycle_) {
        transports_[it->to]->onFrameWords(it->words, cycle_);
        it = inFlight_.erase(it);
      } else {
        ++it;
      }
    }
    for (int i = 0; i < 2; ++i) {
      transports_[i]->onCycle(cycle_);
      for (auto& d : transports_[i]->takeDeliveries())
        delivered_[i].push_back(std::move(d.payload));
    }
    ++cycle_;
  }

  void run(int cycles) {
    for (int i = 0; i < cycles; ++i) step();
  }

  // Steps until both transports are idle (everything acknowledged and
  // delivered); returns false if `cap` cycles pass first.
  bool runUntilIdle(int cap) {
    for (int i = 0; i < cap; ++i) {
      if (at(0).idle() && at(1).idle() && inFlight_.empty()) return true;
      step();
    }
    return at(0).idle() && at(1).idle() && inFlight_.empty();
  }

 private:
  struct Message {
    int to;
    std::vector<std::uint32_t> words;
    std::uint64_t deliverAt;
  };

  std::shared_ptr<const Topology> topology_;
  std::uint64_t latency_;
  std::vector<std::unique_ptr<ReliableTransport>> transports_;
  std::deque<Message> inFlight_;
  std::vector<std::vector<std::uint32_t>> delivered_[2];
  Filter filter_;
  std::uint64_t cycle_ = 0;
};

TEST(ReliableTransportTest, ExactlyOnceInOrderAcrossSeqWraparound) {
  // 100 frames through a 4-bit sequence space (16 values) forces several
  // wraparounds; a perfect wire must need no retransmissions.
  Harness h(makeConfig(/*seqBits=*/4, /*window=*/8));
  const int kFrames = 100;
  for (int i = 0; i < kFrames; ++i)
    h.at(0).submit(h.node(1), {static_cast<std::uint32_t>(i)});
  ASSERT_TRUE(h.runUntilIdle(20000));
  const auto& rx = h.deliveredAt(1);
  ASSERT_EQ(rx.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(rx[i].size(), 1u);
    EXPECT_EQ(rx[i][0], static_cast<std::uint32_t>(i)) << "frame " << i;
  }
  EXPECT_EQ(h.at(0).stats().retransmissions, 0u);
  EXPECT_EQ(h.at(0).stats().timeouts, 0u);
  EXPECT_EQ(h.at(1).stats().duplicatesDropped, 0u);
  EXPECT_EQ(h.at(1).stats().payloadsDelivered,
            static_cast<std::uint64_t>(kFrames));
}

TEST(ReliableTransportTest, WindowLimitsOutstandingFramesAndBacklogs) {
  Harness h(makeConfig(6, /*window=*/2));
  for (int i = 0; i < 5; ++i)
    h.at(0).submit(h.node(1), {static_cast<std::uint32_t>(0x100 + i)});
  EXPECT_EQ(h.at(0).unackedFrames(), 2u);
  EXPECT_EQ(h.at(0).backlogFrames(), 3u);
  ASSERT_TRUE(h.runUntilIdle(5000));
  ASSERT_EQ(h.deliveredAt(1).size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(h.deliveredAt(1)[i][0], static_cast<std::uint32_t>(0x100 + i));
}

TEST(ReliableTransportTest, LossyWireStillDeliversExactlyOnceInOrder) {
  Harness h(makeConfig(6, 4));
  int count = 0;
  // Drop every third wire message, DATA and control frames alike.
  h.setFilter([&count](int, std::vector<std::uint32_t>&) {
    return ++count % 3 != 0;
  });
  const int kFrames = 40;
  for (int i = 0; i < kFrames; ++i)
    h.at(0).submit(h.node(1), {static_cast<std::uint32_t>(0x200 + i)});
  ASSERT_TRUE(h.runUntilIdle(50000));
  const auto& rx = h.deliveredAt(1);
  ASSERT_EQ(rx.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i)
    EXPECT_EQ(rx[i][0], static_cast<std::uint32_t>(0x200 + i));
  EXPECT_GT(h.at(0).stats().retransmissions, 0u);
  EXPECT_EQ(h.at(1).stats().payloadsDelivered,
            static_cast<std::uint64_t>(kFrames));
}

TEST(ReliableTransportTest, BackoffDoublesPerTimeoutAndCapsAtRtoMax) {
  ReliabilityConfig c = makeConfig(8, 8);
  c.rtoInitial = 16;
  c.rtoMax = 64;
  Harness h(c);
  h.setFilter([](int, std::vector<std::uint32_t>&) { return false; });
  h.at(0).submit(h.node(1), {0x42});
  EXPECT_EQ(h.at(0).currentRto(h.node(1)), 16u);
  auto runToTimeouts = [&h](std::uint64_t n) {
    for (int i = 0; i < 5000 && h.at(0).stats().timeouts < n; ++i) h.step();
    ASSERT_EQ(h.at(0).stats().timeouts, n);
  };
  runToTimeouts(1);
  EXPECT_EQ(h.at(0).currentRto(h.node(1)), 32u);
  runToTimeouts(2);
  EXPECT_EQ(h.at(0).currentRto(h.node(1)), 64u);
  runToTimeouts(4);
  EXPECT_EQ(h.at(0).currentRto(h.node(1)), 64u);  // capped
  EXPECT_EQ(h.at(0).stats().abandoned, 0u);       // retries forever
}

TEST(ReliableTransportTest, MaxRetriesAbandonsAndReportsTheLoss) {
  ReliabilityConfig c = makeConfig(8, 8);
  c.rtoInitial = 8;
  c.rtoMax = 16;
  c.maxRetries = 2;
  Harness h(c);
  h.setFilter([](int, std::vector<std::uint32_t>&) { return false; });
  h.at(0).submit(h.node(1), {0x7});
  h.run(2000);
  EXPECT_EQ(h.at(0).stats().abandoned, 1u);
  EXPECT_TRUE(h.at(0).idle());
  EXPECT_TRUE(h.deliveredAt(1).empty());
}

TEST(ReliableTransportTest, NackFromGapTriggersFastRetransmit) {
  ReliabilityConfig c = makeConfig(8, 8);
  c.rtoInitial = 500;  // far beyond the test horizon: only a NACK recovers
  c.rtoMax = 500;
  c.nackMinInterval = 8;
  Harness h(c);
  bool droppedFirst = false;
  h.setFilter([&droppedFirst](int src, std::vector<std::uint32_t>&) {
    if (src == 0 && !droppedFirst) {
      droppedFirst = true;  // lose only the very first DATA frame
      return false;
    }
    return true;
  });
  h.at(0).submit(h.node(1), {0xa});
  h.at(0).submit(h.node(1), {0xb});
  ASSERT_TRUE(h.runUntilIdle(400));
  const auto& rx = h.deliveredAt(1);
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0][0], 0xau);
  EXPECT_EQ(rx[1][0], 0xbu);
  EXPECT_GE(h.at(1).stats().nacksSent, 1u);
  EXPECT_GE(h.at(0).stats().nacksReceived, 1u);
  EXPECT_EQ(h.at(0).stats().retransmissions, 1u);
  EXPECT_EQ(h.at(0).stats().timeouts, 0u);  // recovered before the RTO
  EXPECT_GT(h.at(1).stats().outOfOrderBuffered, 0u);
}

TEST(ReliableTransportTest, DuplicateDataFrameDroppedAndReAcked) {
  auto topology = makeTopology("mesh", 2, 1);
  ReliableTransport a(makeConfig(4, 8), topology, topology->nodeAt(0),
                      kPayloadBits);
  ReliableTransport b(makeConfig(4, 8), topology, topology->nodeAt(1),
                      kPayloadBits);
  a.reset();
  b.reset();
  a.submit(topology->nodeAt(1), {0x33});
  auto frames = a.takeFrames();
  ASSERT_EQ(frames.size(), 1u);
  std::vector<std::uint32_t> words{0};  // source index prepended by the NI
  words.insert(words.end(), frames[0].words.begin(), frames[0].words.end());
  b.onFrameWords(words, 0);
  b.onFrameWords(words, 1);  // the same frame again (spurious retransmit)
  EXPECT_EQ(b.takeDeliveries().size(), 1u);
  EXPECT_EQ(b.stats().payloadsDelivered, 1u);
  EXPECT_EQ(b.stats().duplicatesDropped, 1u);
  // Both copies are acknowledged, so a sender whose ACK was lost re-syncs.
  EXPECT_EQ(b.stats().acksSent, 2u);
}

TEST(ReliableTransportTest, CorruptedFrameIsCountedAndDiscarded) {
  auto topology = makeTopology("mesh", 2, 1);
  ReliableTransport a(makeConfig(4, 8), topology, topology->nodeAt(0),
                      kPayloadBits);
  ReliableTransport b(makeConfig(4, 8), topology, topology->nodeAt(1),
                      kPayloadBits);
  a.reset();
  b.reset();
  a.submit(topology->nodeAt(1), {0x55, 0x66});
  auto frames = a.takeFrames();
  ASSERT_EQ(frames.size(), 1u);
  std::vector<std::uint32_t> words{0};
  words.insert(words.end(), frames[0].words.begin(), frames[0].words.end());
  words[2] ^= 1u;  // single-bit payload corruption, as FaultyLink injects
  b.onFrameWords(words, 0);
  EXPECT_TRUE(b.takeDeliveries().empty());
  EXPECT_EQ(b.stats().malformedFrames, 1u);
  EXPECT_EQ(b.stats().acksSent, 0u);  // no ACK for garbage
  // A truncated frame (body flits lost to a link-down window) is also
  // malformed rather than misparsed.
  b.onFrameWords({0, frames[0].words.back()}, 1);
  EXPECT_EQ(b.stats().malformedFrames, 2u);
  EXPECT_TRUE(b.takeDeliveries().empty());
}

TEST(ReliableTransportTest, BidirectionalTrafficKeepsFlowsIndependent) {
  Harness h(makeConfig(5, 4));
  const int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    h.at(0).submit(h.node(1), {static_cast<std::uint32_t>(0x300 + i)});
    h.at(1).submit(h.node(0), {static_cast<std::uint32_t>(0x400 + i)});
  }
  ASSERT_TRUE(h.runUntilIdle(20000));
  ASSERT_EQ(h.deliveredAt(1).size(), static_cast<std::size_t>(kFrames));
  ASSERT_EQ(h.deliveredAt(0).size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(h.deliveredAt(1)[i][0], static_cast<std::uint32_t>(0x300 + i));
    EXPECT_EQ(h.deliveredAt(0)[i][0], static_cast<std::uint32_t>(0x400 + i));
  }
}

// The words a frame carries on the wire: the NI prepends the source index.
std::vector<std::uint32_t> onWire(
    int srcIndex, const ReliableTransport::WireFrame& frame) {
  std::vector<std::uint32_t> words{static_cast<std::uint32_t>(srcIndex)};
  words.insert(words.end(), frame.words.begin(), frame.words.end());
  return words;
}

std::uint32_t seqOf(const ReliableTransport::WireFrame& frame, int seqBits) {
  return frame.words.front() & seqMask(seqBits);
}

TEST(ReliableTransportTest, SimultaneousTimeoutsRetransmitInDestinationOrder) {
  // Three flows time out in the same cycle while one of them exhausts its
  // retries.  The retransmissions come out in ascending destination index
  // (not submission order), and the abandoned flow's backlog is promoted in
  // the same scan, ahead of the flows after it.
  auto topology = makeTopology("mesh", 2, 2);
  ReliabilityConfig c = makeConfig(4, /*window=*/1);
  c.rtoInitial = 16;
  c.rtoMax = 64;
  c.maxRetries = 1;
  ReliableTransport t(c, topology, topology->nodeAt(0), kPayloadBits);
  t.reset();
  EXPECT_TRUE(t.idle());

  // Flow to node 1: one frame out, one backlogged behind the full window.
  t.submit(topology->nodeAt(1), {0xa0});
  t.submit(topology->nodeAt(1), {0xa1});
  EXPECT_EQ(t.unackedFrames(), 1u);
  EXPECT_EQ(t.backlogFrames(), 1u);
  auto frames = t.takeFrames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].frameId, 1u);
  t.onFrameSent(1, 0);  // deadline 16
  for (std::uint64_t cycle = 0; cycle < 16; ++cycle) t.onCycle(cycle);
  EXPECT_TRUE(t.takeFrames().empty());
  EXPECT_EQ(t.stats().timeouts, 0u);
  t.onCycle(16);  // first timeout: retransmitted with the RTO doubled
  frames = t.takeFrames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].frameId, 2u);
  EXPECT_FALSE(frames[0].firstTransmission);
  EXPECT_EQ(t.stats().timeouts, 1u);
  t.onFrameSent(2, 16);  // deadline 16 + 32 = 48

  // Flows to nodes 3 and 2, submitted in that order, armed to expire at
  // the same cycle as the retry above.
  for (int i = 17; i < 32; ++i) t.onCycle(static_cast<std::uint64_t>(i));
  t.submit(topology->nodeAt(3), {0xc0});
  t.submit(topology->nodeAt(2), {0xb0});
  EXPECT_EQ(t.unackedFrames(), 3u);
  EXPECT_EQ(t.backlogFrames(), 1u);
  frames = t.takeFrames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].frameId, 3u);  // to node 3
  EXPECT_EQ(frames[1].frameId, 4u);  // to node 2
  t.onFrameSent(3, 32);
  t.onFrameSent(4, 32);
  for (std::uint64_t cycle = 32; cycle < 48; ++cycle) t.onCycle(cycle);
  EXPECT_TRUE(t.takeFrames().empty());
  EXPECT_EQ(t.stats().timeouts, 1u);

  t.onCycle(48);
  EXPECT_EQ(t.stats().timeouts, 4u);
  EXPECT_EQ(t.stats().abandoned, 1u);
  EXPECT_EQ(t.stats().retransmissions, 3u);
  EXPECT_EQ(t.unackedFrames(), 3u);  // 0xa1 promoted, 0xb0, 0xc0
  EXPECT_EQ(t.backlogFrames(), 0u);
  frames = t.takeFrames();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].dst, topology->nodeAt(1));
  EXPECT_EQ(frames[0].frameId, 5u);
  EXPECT_TRUE(frames[0].firstTransmission) << "the promoted backlog frame";
  EXPECT_EQ(seqOf(frames[0], c.seqBits), 1u);
  EXPECT_EQ(frames[0].words[1], 0xa1u);
  EXPECT_EQ(frames[1].dst, topology->nodeAt(2));
  EXPECT_EQ(frames[1].frameId, 6u);
  EXPECT_FALSE(frames[1].firstTransmission);
  EXPECT_EQ(frames[1].words[1], 0xb0u);
  EXPECT_EQ(frames[2].dst, topology->nodeAt(3));
  EXPECT_EQ(frames[2].frameId, 7u);
  EXPECT_FALSE(frames[2].firstTransmission);
  EXPECT_EQ(frames[2].words[1], 0xc0u);
  EXPECT_EQ(t.currentRto(topology->nodeAt(2)), 32u);
  EXPECT_FALSE(t.idle());
}

TEST(ReliableTransportTest, AckAfterDeadlineArmedCausesNoSpuriousTimeout) {
  auto topology = makeTopology("mesh", 2, 1);
  const ReliabilityConfig c = makeConfig(4, 8);  // rtoInitial 16
  ReliableTransport a(c, topology, topology->nodeAt(0), kPayloadBits);
  ReliableTransport b(c, topology, topology->nodeAt(1), kPayloadBits);
  a.reset();
  b.reset();
  a.submit(topology->nodeAt(1), {0x1});
  a.submit(topology->nodeAt(1), {0x2});
  auto frames = a.takeFrames();
  ASSERT_EQ(frames.size(), 2u);
  a.onFrameSent(frames[0].frameId, 0);   // deadline 16
  a.onFrameSent(frames[1].frameId, 10);  // deadline 26
  EXPECT_EQ(a.unackedFrames(), 2u);

  // The first frame is acknowledged before its deadline.
  b.onFrameWords(onWire(0, frames[0]), 4);
  auto acks = b.takeFrames();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].type, FrameType::Ack);
  a.onFrameWords(onWire(1, acks[0]), 5);
  EXPECT_EQ(a.unackedFrames(), 1u);
  EXPECT_EQ(a.backlogFrames(), 0u);

  for (std::uint64_t cycle = 5; cycle < 26; ++cycle) a.onCycle(cycle);
  EXPECT_EQ(a.stats().timeouts, 0u) << "the acknowledged frame's deadline";
  EXPECT_TRUE(a.takeFrames().empty());

  a.onCycle(26);  // the second frame's own deadline still fires
  EXPECT_EQ(a.stats().timeouts, 1u);
  frames = a.takeFrames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].words[1], 0x2u);

  // Acknowledging everything leaves the sender idle, with no timer due.
  b.onFrameWords(onWire(0, frames[0]), 27);
  for (auto& ack : b.takeFrames()) a.onFrameWords(onWire(1, ack), 28);
  EXPECT_EQ(a.unackedFrames(), 0u);
  EXPECT_TRUE(a.idle());
  for (std::uint64_t cycle = 28; cycle < 200; ++cycle) a.onCycle(cycle);
  EXPECT_EQ(a.stats().timeouts, 1u);
  EXPECT_TRUE(a.idle());
}

TEST(ReliableTransportTest, ResetForgetsFramesBacklogAndTimers) {
  auto topology = makeTopology("mesh", 2, 1);
  const ReliabilityConfig c = makeConfig(4, /*window=*/2);
  ReliableTransport t(c, topology, topology->nodeAt(0), kPayloadBits);
  t.reset();
  for (std::uint32_t i = 0; i < 4; ++i)
    t.submit(topology->nodeAt(1), {0x10 + i});
  for (const auto& frame : t.takeFrames()) t.onFrameSent(frame.frameId, 0);
  EXPECT_EQ(t.unackedFrames(), 2u);
  EXPECT_EQ(t.backlogFrames(), 2u);
  t.onCycle(16);
  EXPECT_EQ(t.stats().timeouts, 2u);

  t.reset();
  EXPECT_EQ(t.unackedFrames(), 0u);
  EXPECT_EQ(t.backlogFrames(), 0u);
  EXPECT_TRUE(t.idle());
  EXPECT_TRUE(t.takeFrames().empty());
  EXPECT_EQ(t.stats().timeouts, 0u);
  for (std::uint64_t cycle = 0; cycle < 100; ++cycle) t.onCycle(cycle);
  EXPECT_EQ(t.stats().timeouts, 0u) << "no timer survives a reset";

  // A fresh start: ids and sequence numbers begin again, and a new timer
  // fires at its own deadline.
  t.submit(topology->nodeAt(1), {0x99});
  auto frames = t.takeFrames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].frameId, 1u);
  EXPECT_EQ(seqOf(frames[0], c.seqBits), 0u);
  EXPECT_EQ(t.unackedFrames(), 1u);
  t.onFrameSent(1, 100);
  t.onCycle(115);
  EXPECT_EQ(t.stats().timeouts, 0u);
  t.onCycle(116);
  EXPECT_EQ(t.stats().timeouts, 1u);
}

}  // namespace
}  // namespace rasoc::noc
