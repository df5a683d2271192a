// Schedule execution on the cycle-accurate RASoC network: test-port driver
// modules stream each core's stimuli packets at the planned start cycles,
// BIST monitors track per-core completion, and the measured makespan
// validates the planner's analytical estimate.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/module.hpp"

#include "noc/network.hpp"
#include "testplan/testplan.hpp"

namespace rasoc::testplan {

// Streams scheduled stimuli from one access port's NI.
class TestPortDriver : public sim::Module {
 public:
  struct Job {
    std::uint64_t start = 0;
    noc::NodeId dst;
    int packets = 1;
    int payloadFlits = 8;
  };

  TestPortDriver(std::string name, noc::NetworkInterface& ni,
                 std::vector<Job> jobs);

  // Compiled-kernel lowering: purely sequential (no evaluate()), so the
  // module contributes only its clockEdge() to the edge tape.
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;
  void clockEdge() override;

 private:
  noc::NetworkInterface* ni_;
  std::vector<Job> jobs_;  // sorted by start
  std::size_t next_ = 0;
  std::uint64_t cycle_ = 0;
};

// Watches one core's NI: test done when every stimuli packet arrived and
// the BIST tail has elapsed.
class BistMonitor : public sim::Module {
 public:
  BistMonitor(std::string name, const noc::NetworkInterface& ni,
              int packetsExpected, int bistCycles);

  bool done() const { return delivered_ && cycle_ >= doneAt_; }
  std::uint64_t doneCycle() const { return doneAt_; }
  bool stimuliDelivered() const { return delivered_; }

  // Compiled-kernel lowering: purely sequential (no evaluate()), so the
  // module contributes only its clockEdge() to the edge tape.
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;
  void clockEdge() override;

 private:
  const noc::NetworkInterface* ni_;
  int packetsExpected_;
  int bistCycles_;
  bool delivered_ = false;
  std::uint64_t doneAt_ = 0;
  std::uint64_t cycle_ = 0;
};

struct ExecutionResult {
  bool completed = false;  // every core finished within the cycle budget
  bool healthy = false;    // network invariants held
  std::uint64_t measuredMakespan = 0;
  std::vector<std::uint64_t> coreDoneCycle;  // per spec index
};

// Replays `schedule` on `network` (which must match config.params/topology
// and have no other traffic attached).  Runs until done or maxCycles.
ExecutionResult runSchedule(noc::Network& network,
                            const std::vector<CoreTestSpec>& cores,
                            const TestSchedule& schedule,
                            const TestPlanConfig& config,
                            std::uint64_t maxCycles = 1'000'000);

}  // namespace rasoc::testplan
