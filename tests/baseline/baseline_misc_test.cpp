// Additional baseline coverage: bus overhead knobs, warmup accounting,
// crossbar scan fairness.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "baseline/bus.hpp"
#include "baseline/crossbar.hpp"
#include "baseline/spin.hpp"
#include "sim/simulator.hpp"

namespace rasoc::baseline {
namespace {

using noc::NodeId;

// Every out-of-range offered load (NaN included) is rejected with a message
// naming offeredLoad, and a rejected attach leaves the model attachable.
template <class Attach>
void expectOfferedLoadChecked(Attach attach) {
  for (const double load :
       {std::numeric_limits<double>::quiet_NaN(), -0.5, 1.5}) {
    noc::TrafficConfig traffic;
    traffic.offeredLoad = load;
    try {
      attach(traffic);
      ADD_FAILURE() << "offeredLoad " << load << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("offeredLoad"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(attach(noc::TrafficConfig{}));
}

// The rest of the traffic config is checked the same way as on the NoC:
// a hot-spot fraction outside [0,1] (NaN included) and a packet without
// payload are rejected by name before anything is drawn.
template <class Attach>
void expectTrafficChecked(Attach attach) {
  auto hotspot = [] {
    noc::TrafficConfig traffic;
    traffic.pattern = noc::TrafficPattern::HotSpot;
    traffic.hotspot = NodeId{1, 1};
    return traffic;
  };
  for (const double fraction :
       {std::numeric_limits<double>::quiet_NaN(), -0.5, 1.5}) {
    noc::TrafficConfig traffic = hotspot();
    traffic.hotspotFraction = fraction;
    try {
      attach(traffic);
      ADD_FAILURE() << "hotspotFraction " << fraction << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("hotspotFraction"),
                std::string::npos)
          << e.what();
    }
  }
  for (const int payload : {0, -2}) {
    noc::TrafficConfig traffic = hotspot();
    traffic.payloadFlits = payload;
    try {
      attach(traffic);
      ADD_FAILURE() << "payloadFlits " << payload << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("payloadFlits"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(attach(hotspot()));
}

TEST(BusMiscTest, OverheadCyclesLengthenEveryTransfer) {
  auto measure = [](int arb, int addr) {
    BusConfig cfg;
    cfg.shape = noc::MeshShape{2, 2};
    cfg.arbitrationCycles = arb;
    cfg.addressCycles = addr;
    SharedBus bus("bus", cfg);
    sim::Simulator sim;
    sim.add(bus);
    sim.reset();
    bus.send(NodeId{0, 0}, NodeId{1, 0}, 4);
    sim.run(40);
    return bus.ledger().packetLatency().mean();
  };
  const double lean = measure(0, 0);
  const double heavy = measure(2, 3);
  EXPECT_NEAR(heavy - lean, 5.0, 1.0);
}

TEST(BusMiscTest, NegativeOverheadRejected) {
  BusConfig cfg;
  cfg.arbitrationCycles = -1;
  EXPECT_THROW(SharedBus("bus", cfg), std::invalid_argument);
}

TEST(BusMiscTest, WarmupExcludesEarlyTraffic) {
  BusConfig cfg;
  cfg.shape = noc::MeshShape{2, 2};
  SharedBus bus("bus", cfg);
  bus.ledger().setWarmupCycles(1000);
  sim::Simulator sim;
  sim.add(bus);
  sim.reset();
  bus.send(NodeId{0, 0}, NodeId{1, 0}, 4);
  sim.run(50);
  EXPECT_EQ(bus.ledger().delivered(), 1u);
  EXPECT_EQ(bus.ledger().packetLatency().count(), 0u);
}

TEST(BusMiscTest, DoubleAttachThrows) {
  BusConfig cfg;
  SharedBus bus("bus", cfg);
  noc::TrafficConfig traffic;
  bus.attachTraffic(traffic);
  EXPECT_THROW(bus.attachTraffic(traffic), std::logic_error);
}

TEST(BusMiscTest, OfferedLoadOutsideUnitRangeRejected) {
  SharedBus bus("bus", BusConfig{});
  expectOfferedLoadChecked(
      [&](const noc::TrafficConfig& t) { bus.attachTraffic(t); });
}

TEST(CrossbarMiscTest, OfferedLoadOutsideUnitRangeRejected) {
  IdealCrossbar xbar("xbar", noc::MeshShape{2, 2});
  expectOfferedLoadChecked(
      [&](const noc::TrafficConfig& t) { xbar.attachTraffic(t); });
}

TEST(BusMiscTest, TrafficParametersRejectedByName) {
  expectTrafficChecked([](const noc::TrafficConfig& t) {
    SharedBus bus("bus", BusConfig{});
    bus.attachTraffic(t);
  });
}

TEST(CrossbarMiscTest, TrafficParametersRejectedByName) {
  expectTrafficChecked([](const noc::TrafficConfig& t) {
    IdealCrossbar xbar("xbar", noc::MeshShape{4, 4});
    xbar.attachTraffic(t);
  });
}

TEST(CrossbarMiscTest, RotatingScanAvoidsPersistentBias) {
  // Two sources permanently competing for one sink: the rotating scan must
  // serve both within a factor of each other.
  IdealCrossbar xbar("xbar", noc::MeshShape{3, 1});
  sim::Simulator sim;
  sim.add(xbar);
  sim.reset();
  noc::TrafficConfig traffic;
  traffic.pattern = noc::TrafficPattern::HotSpot;
  traffic.hotspot = NodeId{2, 0};
  traffic.hotspotFraction = 1.0;
  traffic.offeredLoad = 1.0;
  traffic.payloadFlits = 4;
  traffic.seed = 15;
  xbar.attachTraffic(traffic);
  sim.run(4000);
  EXPECT_GT(xbar.ledger().delivered(), 300u);
  // The sink saturates at 1 flit/cycle = ~1/6 packets per cycle shared by
  // two senders; both must make steady progress (p99 bounded).
  EXPECT_LT(xbar.ledger().packetLatency().percentile(0.99), 200.0);
}

TEST(SpinMiscTest, IdleAndWarmupBehaviour) {
  SpinFatTree spin("spin", 16);
  EXPECT_TRUE(spin.idle());
  spin.ledger().setWarmupCycles(500);
  sim::Simulator sim;
  sim.add(spin);
  sim.reset();
  spin.send(0, 5, 4);
  EXPECT_FALSE(spin.idle());
  sim.run(60);
  EXPECT_TRUE(spin.idle());
  EXPECT_EQ(spin.ledger().delivered(), 1u);
  EXPECT_EQ(spin.ledger().packetLatency().count(), 0u);  // warmup filtered
}

TEST(SpinMiscTest, OfferedLoadOutsideUnitRangeRejected) {
  SpinFatTree spin("spin", 16);
  expectOfferedLoadChecked([&](const noc::TrafficConfig& t) {
    spin.attachTraffic(t, noc::MeshShape{4, 4});
  });
}

TEST(SpinMiscTest, TrafficParametersRejectedByName) {
  expectTrafficChecked([](const noc::TrafficConfig& t) {
    SpinFatTree spin("spin", 16);
    spin.attachTraffic(t, noc::MeshShape{4, 4});
  });
}

TEST(SpinMiscTest, MismatchedTrafficShapeThrows) {
  SpinFatTree spin("spin", 16);
  noc::TrafficConfig traffic;
  EXPECT_THROW(spin.attachTraffic(traffic, noc::MeshShape{3, 3}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rasoc::baseline
