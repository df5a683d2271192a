#include "testplan/testplan.hpp"

#include <gtest/gtest.h>

#include <set>

namespace rasoc::testplan {
namespace {

using noc::NodeId;

TestPlanConfig config(std::vector<NodeId> ports,
                      double power = std::numeric_limits<double>::infinity()) {
  TestPlanConfig cfg;
  cfg.accessPorts = std::move(ports);
  cfg.powerBudget = power;
  cfg.params.n = 16;
  return cfg;
}

CoreTestSpec core(const char* name, NodeId at, int packets, int bist = 0,
                  double power = 1.0) {
  CoreTestSpec spec;
  spec.name = name;
  spec.location = at;
  spec.testPackets = packets;
  spec.payloadFlits = 8;
  spec.bistCycles = bist;
  spec.power = power;
  return spec;
}

TEST(PlannerTest, SessionArithmetic) {
  TestPlanner planner(config({NodeId{0, 0}}));
  const CoreTestSpec spec = core("c", NodeId{2, 1}, 3, 50);
  EXPECT_EQ(planner.deliveryCycles(spec), 3u * 10u);
  EXPECT_EQ(planner.transitCycles(spec, 0), 3u * 4u);  // 4 XY hops
  EXPECT_EQ(planner.sessionCycles(spec, 0), 30u + 12u + 50u);
}

TEST(PlannerTest, ConstructionValidation) {
  EXPECT_THROW(TestPlanner(config({})), std::invalid_argument);
  EXPECT_THROW(TestPlanner(config({NodeId{0, 0}}, 0.0)),
               std::invalid_argument);
}

TEST(PlannerTest, SpecValidation) {
  TestPlanner planner(config({NodeId{0, 0}}, 2.0));
  EXPECT_THROW(planner.plan({core("p", NodeId{0, 0}, 1)}),
               std::invalid_argument);  // core on the port node
  EXPECT_THROW(planner.plan({core("big", NodeId{1, 0}, 1, 0, 3.0)}),
               std::invalid_argument);  // exceeds the budget alone
  EXPECT_THROW(
      planner.plan({core("a", NodeId{1, 0}, 1), core("b", NodeId{1, 0}, 1)}),
      std::invalid_argument);  // shared node
  CoreTestSpec bad = core("z", NodeId{1, 0}, 0);
  EXPECT_THROW(planner.plan({bad}), std::invalid_argument);
}

TEST(PlannerTest, SinglePortSerializesDeliveries) {
  TestPlanner planner(config({NodeId{0, 0}}));
  const std::vector<CoreTestSpec> cores = {
      core("a", NodeId{1, 0}, 2), core("b", NodeId{2, 0}, 2),
      core("c", NodeId{3, 0}, 2)};
  const TestSchedule schedule = planner.plan(cores);
  ASSERT_EQ(schedule.entries.size(), 3u);
  // Port intervals must not overlap.
  for (const auto& a : schedule.entries) {
    for (const auto& b : schedule.entries) {
      if (a.core == b.core) continue;
      EXPECT_TRUE(a.portBusyUntil <= b.start || b.portBusyUntil <= a.start)
          << a.core << " vs " << b.core;
    }
  }
}

TEST(PlannerTest, TwoPortsRoughlyHalveTheMakespan) {
  const std::vector<CoreTestSpec> cores = {
      core("a", NodeId{1, 0}, 4), core("b", NodeId{2, 0}, 4),
      core("c", NodeId{1, 1}, 4), core("d", NodeId{2, 1}, 4)};
  TestPlanner one(config({NodeId{0, 0}}));
  TestPlanner two(config({NodeId{0, 0}, NodeId{3, 1}}));
  const std::uint64_t m1 = one.plan(cores).makespan;
  const std::uint64_t m2 = two.plan(cores).makespan;
  EXPECT_LT(m2, m1);
  EXPECT_LE(m2, m1 * 2 / 3);
}

TEST(PlannerTest, BistTailsOverlapWithNextDelivery) {
  // One port: while core A runs its long BIST, the port is already
  // streaming core B - the NoC's advantage over a serial TAM.
  TestPlanner planner(config({NodeId{0, 0}}));
  const std::vector<CoreTestSpec> cores = {
      core("a", NodeId{1, 0}, 2, /*bist=*/500),
      core("b", NodeId{2, 0}, 2, /*bist=*/500)};
  const TestSchedule parallelish = planner.plan(cores);
  const TestSchedule serial = planner.sequentialBaseline(cores);
  EXPECT_LT(parallelish.makespan, serial.makespan);
  // Serial: ~2 x (20 + transit + 500).  Overlapped: ~20 + 20 + 500ish.
  EXPECT_LT(parallelish.makespan, 600u);
  EXPECT_GT(serial.makespan, 1000u);
}

TEST(PlannerTest, PowerBudgetForcesStaggering) {
  const std::vector<CoreTestSpec> cores = {
      core("a", NodeId{1, 0}, 2, 300, 1.0),
      core("b", NodeId{2, 0}, 2, 300, 1.0)};
  TestPlanner unconstrained(config({NodeId{0, 0}, NodeId{3, 0}}));
  TestPlanner constrained(config({NodeId{0, 0}, NodeId{3, 0}}, 1.0));
  const TestSchedule fast = unconstrained.plan(cores);
  const TestSchedule slow = constrained.plan(cores);
  EXPECT_GT(slow.makespan, fast.makespan);
  // Under a 1.0 budget the two unit-power tests may never overlap.
  const auto& a = slow.entryForCore(0);
  const auto& b = slow.entryForCore(1);
  EXPECT_TRUE(a.done <= b.start || b.done <= a.start);
}

TEST(PlannerTest, EveryCoreScheduledExactlyOnce) {
  TestPlanner planner(config({NodeId{0, 0}, NodeId{3, 3}}));
  std::vector<CoreTestSpec> cores;
  for (int i = 0; i < 6; ++i)
    cores.push_back(core(std::string("c").append(std::to_string(i)).c_str(),
                         NodeId{1 + i % 3, 1 + i / 3}, 1 + i, 10 * i));
  const TestSchedule schedule = planner.plan(cores);
  std::set<int> seen;
  for (const auto& entry : schedule.entries) seen.insert(entry.core);
  EXPECT_EQ(seen.size(), cores.size());
  EXPECT_EQ(schedule.makespan,
            std::max_element(schedule.entries.begin(),
                             schedule.entries.end(),
                             [](const auto& x, const auto& y) {
                               return x.done < y.done;
                             })
                ->done);
}

}  // namespace
}  // namespace rasoc::testplan
