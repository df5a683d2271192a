// Transaction-layer tests: memory semantics across the cycle-accurate NoC.
#include "soc/transaction.hpp"

#include <gtest/gtest.h>

#include "noc/network.hpp"

namespace rasoc::soc {
namespace {

using noc::NodeId;

struct Platform {
  explicit Platform(int w = 3, int h = 3) : shape{w, h} {
    noc::NetworkConfig cfg;
    cfg.params.n = 16;
    cfg.params.p = 4;
    mesh = std::make_unique<noc::Network>(
        std::make_shared<noc::MeshTopology>(shape), cfg);
  }

  MemoryTarget& addMemory(NodeId at, int latency = 2,
                          std::size_t words = 64) {
    memories.push_back(std::make_unique<MemoryTarget>(
        "mem", mesh->ni(at), shape, latency, words));
    mesh->simulator().add(*memories.back());
    return *memories.back();
  }

  Initiator& addInitiator(NodeId at, int outstanding = 4) {
    initiators.push_back(std::make_unique<Initiator>(
        "cpu", mesh->ni(at), shape, at, outstanding));
    mesh->simulator().add(*initiators.back());
    return *initiators.back();
  }

  bool runToCompletion(std::uint64_t maxCycles = 20000) {
    return mesh->simulator().runUntil(
        [&] {
          for (const auto& i : initiators)
            if (!i->done()) return false;
          return true;
        },
        maxCycles);
  }

  noc::MeshShape shape;
  std::unique_ptr<noc::Network> mesh;
  std::vector<std::unique_ptr<MemoryTarget>> memories;
  std::vector<std::unique_ptr<Initiator>> initiators;
};

TEST(TxnPacketTest, EncodeDecodeRoundTrip) {
  TxnPacket packet{7, TxnKind::Write, 3, 0x2a, 0x1234};
  const TxnPacket decoded = TxnPacket::decode(packet.encode());
  EXPECT_EQ(decoded.txnId, 7u);
  EXPECT_EQ(decoded.kind, TxnKind::Write);
  EXPECT_EQ(decoded.replyTo, 3u);
  EXPECT_EQ(decoded.addr, 0x2au);
  EXPECT_EQ(decoded.data, 0x1234u);
  EXPECT_THROW(TxnPacket::decode({1, 2, 3}), std::invalid_argument);
}

TEST(TransactionTest, WriteThenReadBackOverTheNoc) {
  Platform platform;
  MemoryTarget& mem = platform.addMemory(NodeId{2, 2});
  Initiator& cpu = platform.addInitiator(NodeId{0, 0});
  cpu.queue({true, NodeId{2, 2}, 5, 0xbeef});
  cpu.queue({false, NodeId{2, 2}, 5, 0});
  ASSERT_TRUE(platform.runToCompletion());
  EXPECT_TRUE(platform.mesh->healthy());
  EXPECT_EQ(cpu.completed(), 2u);
  EXPECT_EQ(cpu.dataErrors(), 0u);
  EXPECT_EQ(mem.peek(5), 0xbeefu);
  EXPECT_EQ(mem.readsServed(), 1u);
  EXPECT_EQ(mem.writesServed(), 1u);
}

TEST(TransactionTest, RoundTripLatencyReflectsDistanceAndAccess) {
  Platform platform;
  platform.addMemory(NodeId{1, 0}, /*latency=*/2);
  Initiator& near = platform.addInitiator(NodeId{0, 0}, 1);
  platform.addMemory(NodeId{2, 2}, /*latency=*/2);
  Initiator& far = platform.addInitiator(NodeId{0, 2}, 1);
  for (int i = 0; i < 10; ++i) {
    near.queue({false, NodeId{1, 0}, 0, 0});
    far.queue({false, NodeId{2, 2}, 0, 0});
  }
  ASSERT_TRUE(platform.runToCompletion());
  EXPECT_LT(near.roundTrip().mean(), far.roundTrip().mean());
  EXPECT_GT(near.roundTrip().mean(), 10.0);  // request + response traversal
}

TEST(TransactionTest, ManyInitiatorsShareOneMemoryCorrectly) {
  Platform platform;
  MemoryTarget& mem = platform.addMemory(NodeId{1, 1}, 1, 256);
  std::vector<Initiator*> cpus;
  // Every other node hammers a disjoint address range.
  int range = 0;
  for (int i = 0; i < platform.shape.nodes(); ++i) {
    const NodeId at = platform.shape.nodeAt(i);
    if (at == NodeId{1, 1}) continue;
    Initiator& cpu = platform.addInitiator(at, 2);
    const auto base = static_cast<std::uint32_t>(range * 16);
    for (std::uint32_t k = 0; k < 8; ++k) {
      cpu.queue({true, NodeId{1, 1}, base + k,
                 static_cast<std::uint32_t>(range * 100 + k)});
      cpu.queue({false, NodeId{1, 1}, base + k, 0});
    }
    cpus.push_back(&cpu);
    ++range;
  }
  ASSERT_TRUE(platform.runToCompletion(60000));
  EXPECT_TRUE(platform.mesh->healthy());
  for (Initiator* cpu : cpus) {
    EXPECT_EQ(cpu->completed(), 16u);
    EXPECT_EQ(cpu->dataErrors(), 0u);  // read data matches the shadow model
  }
  EXPECT_EQ(mem.writesServed(), 8u * cpus.size());
  EXPECT_EQ(mem.readsServed(), 8u * cpus.size());
}

TEST(TransactionTest, OutstandingWindowLimitsIssue) {
  Platform platform;
  platform.addMemory(NodeId{2, 0}, 20);
  Initiator& narrow = platform.addInitiator(NodeId{0, 0}, 1);
  for (int i = 0; i < 6; ++i) narrow.queue({false, NodeId{2, 0}, 0, 0});
  ASSERT_TRUE(platform.runToCompletion());
  const double serial = narrow.roundTrip().mean();

  Platform platform2;
  platform2.addMemory(NodeId{2, 0}, 20);
  Initiator& wide = platform2.addInitiator(NodeId{0, 0}, 6);
  for (int i = 0; i < 6; ++i) wide.queue({false, NodeId{2, 0}, 0, 0});
  ASSERT_TRUE(platform2.runToCompletion());
  // With pipelined outstanding reads the *total* time shrinks even though
  // per-transaction latency grows (queueing at the single-ported memory).
  EXPECT_GT(wide.roundTrip().mean(), serial * 0.5);
  EXPECT_EQ(wide.completed(), 6u);
}

TEST(TransactionTest, InvalidConstructionThrows) {
  Platform platform;
  EXPECT_THROW(MemoryTarget("m", platform.mesh->ni(NodeId{0, 0}),
                            platform.shape, -1, 8),
               std::invalid_argument);
  EXPECT_THROW(MemoryTarget("m", platform.mesh->ni(NodeId{0, 0}),
                            platform.shape, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(Initiator("i", platform.mesh->ni(NodeId{0, 0}),
                         platform.shape, NodeId{0, 0}, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rasoc::soc
