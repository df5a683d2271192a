#include "testplan/executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/compile.hpp"

namespace rasoc::testplan {

TestPortDriver::TestPortDriver(std::string name, noc::NetworkInterface& ni,
                               std::vector<Job> jobs)
    : Module(std::move(name)), ni_(&ni), jobs_(std::move(jobs)) {
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const Job& a, const Job& b) { return a.start < b.start; });
}

void TestPortDriver::onReset() {
  next_ = 0;
  cycle_ = 0;
}

bool TestPortDriver::describe(sim::Lowering& lw) {
  lw.edgeCall(*this);
  return true;
}

void TestPortDriver::clockEdge() {
  while (next_ < jobs_.size() && jobs_[next_].start <= cycle_) {
    const Job& job = jobs_[next_];
    for (int packet = 0; packet < job.packets; ++packet) {
      std::vector<std::uint32_t> payload(
          static_cast<std::size_t>(job.payloadFlits));
      for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint32_t>(packet * 31 + i);
      ni_->send(job.dst, payload);
    }
    ++next_;
  }
  ++cycle_;
}

BistMonitor::BistMonitor(std::string name, const noc::NetworkInterface& ni,
                         int packetsExpected, int bistCycles)
    : Module(std::move(name)),
      ni_(&ni),
      packetsExpected_(packetsExpected),
      bistCycles_(bistCycles) {}

void BistMonitor::onReset() {
  delivered_ = false;
  doneAt_ = 0;
  cycle_ = 0;
}

bool BistMonitor::describe(sim::Lowering& lw) {
  lw.edgeCall(*this);
  return true;
}

void BistMonitor::clockEdge() {
  ++cycle_;
  if (!delivered_ &&
      ni_->packetsReceived() >=
          static_cast<std::uint64_t>(packetsExpected_)) {
    delivered_ = true;
    doneAt_ = cycle_ + static_cast<std::uint64_t>(bistCycles_);
  }
}

ExecutionResult runSchedule(noc::Network& network,
                            const std::vector<CoreTestSpec>& cores,
                            const TestSchedule& schedule,
                            const TestPlanConfig& config,
                            std::uint64_t maxCycles) {
  if (schedule.entries.size() != cores.size())
    throw std::invalid_argument("schedule does not cover every core");

  // Group jobs per port.
  std::vector<std::vector<TestPortDriver::Job>> jobs(
      config.accessPorts.size());
  for (const ScheduleEntry& entry : schedule.entries) {
    const CoreTestSpec& core = cores[static_cast<std::size_t>(entry.core)];
    jobs[static_cast<std::size_t>(entry.port)].push_back(
        TestPortDriver::Job{entry.start, core.location, core.testPackets,
                            core.payloadFlits});
  }

  std::vector<std::unique_ptr<TestPortDriver>> drivers;
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    if (jobs[p].empty()) continue;
    auto driver = std::make_unique<TestPortDriver>(
        "ate" + std::to_string(p), network.ni(config.accessPorts[p]),
        std::move(jobs[p]));
    network.simulator().add(*driver);
    drivers.push_back(std::move(driver));
  }

  std::vector<std::unique_ptr<BistMonitor>> monitors;
  for (const CoreTestSpec& core : cores) {
    auto monitor = std::make_unique<BistMonitor>(
        "bist:" + core.name, network.ni(core.location), core.testPackets,
        core.bistCycles);
    network.simulator().add(*monitor);
    monitors.push_back(std::move(monitor));
  }

  ExecutionResult result;
  result.completed = network.simulator().runUntil(
      [&] {
        for (const auto& monitor : monitors)
          if (!monitor->done()) return false;
        return true;
      },
      maxCycles);
  result.healthy = network.healthy();
  for (const auto& monitor : monitors) {
    result.coreDoneCycle.push_back(monitor->doneCycle());
    result.measuredMakespan =
        std::max(result.measuredMakespan, monitor->doneCycle());
  }
  return result;
}

}  // namespace rasoc::testplan
