// Schedule execution on the cycle-accurate mesh: the measured makespan
// must track the planner's analytical estimate.
#include "testplan/executor.hpp"

#include <gtest/gtest.h>

namespace rasoc::testplan {
namespace {

using noc::NodeId;

TestPlanConfig config(std::vector<NodeId> ports,
                      double power = std::numeric_limits<double>::infinity()) {
  TestPlanConfig cfg;
  cfg.accessPorts = std::move(ports);
  cfg.powerBudget = power;
  cfg.params.n = 16;
  cfg.params.p = 4;
  return cfg;
}

noc::Network makeMesh(const TestPlanConfig& cfg) {
  noc::NetworkConfig meshCfg;
  meshCfg.params = cfg.params;
  return noc::Network(std::make_shared<noc::MeshTopology>(4, 4), meshCfg);
}

CoreTestSpec core(const char* name, NodeId at, int packets, int bist = 0) {
  CoreTestSpec spec;
  spec.name = name;
  spec.location = at;
  spec.testPackets = packets;
  spec.payloadFlits = 8;
  spec.bistCycles = bist;
  return spec;
}

TEST(ExecutorTest, SingleCoreCompletesNearTheEstimate) {
  const TestPlanConfig cfg = config({NodeId{0, 0}});
  TestPlanner planner(cfg);
  const std::vector<CoreTestSpec> cores = {core("c", NodeId{3, 2}, 4, 100)};
  const TestSchedule schedule = planner.plan(cores);
  noc::Network mesh = makeMesh(cfg);
  const ExecutionResult result =
      runSchedule(mesh, cores, schedule, cfg, 20000);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.healthy);
  const auto estimate = static_cast<double>(schedule.makespan);
  EXPECT_NEAR(static_cast<double>(result.measuredMakespan), estimate,
              0.25 * estimate + 10.0);
}

TEST(ExecutorTest, MultiCoreMultiPortScheduleExecutes) {
  const TestPlanConfig cfg = config({NodeId{0, 0}, NodeId{3, 3}});
  TestPlanner planner(cfg);
  const std::vector<CoreTestSpec> cores = {
      core("a", NodeId{1, 0}, 3, 50), core("b", NodeId{2, 1}, 5, 120),
      core("c", NodeId{0, 2}, 2, 30), core("d", NodeId{3, 1}, 4, 80),
      core("e", NodeId{1, 3}, 6, 200)};
  const TestSchedule schedule = planner.plan(cores);
  noc::Network mesh = makeMesh(cfg);
  const ExecutionResult result =
      runSchedule(mesh, cores, schedule, cfg, 50000);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.healthy);
  ASSERT_EQ(result.coreDoneCycle.size(), cores.size());
  const auto estimate = static_cast<double>(schedule.makespan);
  EXPECT_NEAR(static_cast<double>(result.measuredMakespan), estimate,
              0.30 * estimate + 20.0);
}

TEST(ExecutorTest, MorePortsFinishFasterInSimulationToo) {
  const std::vector<CoreTestSpec> cores = {
      core("a", NodeId{1, 0}, 6), core("b", NodeId{2, 0}, 6),
      core("c", NodeId{1, 2}, 6), core("d", NodeId{2, 2}, 6)};
  auto measure = [&](std::vector<NodeId> ports) {
    const TestPlanConfig cfg = config(std::move(ports));
    TestPlanner planner(cfg);
    const TestSchedule schedule = planner.plan(cores);
    noc::Network mesh = makeMesh(cfg);
    const ExecutionResult result =
        runSchedule(mesh, cores, schedule, cfg, 50000);
    EXPECT_TRUE(result.completed);
    return result.measuredMakespan;
  };
  const std::uint64_t one = measure({NodeId{0, 0}});
  const std::uint64_t two = measure({NodeId{0, 0}, NodeId{3, 3}});
  EXPECT_LT(two, one);
}

TEST(ExecutorTest, MismatchedScheduleThrows) {
  const TestPlanConfig cfg = config({NodeId{0, 0}});
  noc::Network mesh = makeMesh(cfg);
  const std::vector<CoreTestSpec> cores = {core("a", NodeId{1, 0}, 1)};
  TestSchedule empty;
  EXPECT_THROW(runSchedule(mesh, cores, empty, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace rasoc::testplan
