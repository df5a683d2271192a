// Per-module evaluate() profiling (Simulator::enableProfiling): counts
// attribute every evaluation, stay empty while disabled, survive reset()
// and rank deterministically, under both settle kernels.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "sim/simulator.hpp"
#include "sim/wire.hpp"

namespace rasoc::sim {
namespace {

// y = x + 1 combinationally.
class Increment : public Module {
 public:
  Increment(std::string name, const Wire<int>& x, Wire<int>& y)
      : Module(std::move(name)), x_(&x), y_(&y) {
    sensitive(x);
  }

 protected:
  void evaluate() override { y_->set(x_->get() + 1); }

 private:
  const Wire<int>* x_;
  Wire<int>* y_;
};

// Registered counter driving the chain input.
class Counter : public Module {
 public:
  Counter(std::string name, Wire<int>& out)
      : Module(std::move(name)), out_(&out) {}

 protected:
  void onReset() override { value_ = 0; }
  void evaluate() override { out_->set(value_); }
  void clockEdge() override { ++value_; }

 private:
  int value_ = 0;
  Wire<int>* out_;
};

struct Chain {
  Wire<int> w0, w1, w2, w3;
  Counter counter{"counter", w0};
  Increment a{"a", w0, w1};
  Increment b{"b", w1, w2};
  Increment c{"c", w2, w3};

  void addTo(Simulator& sim) {
    sim.add(counter);
    sim.add(a);
    sim.add(b);
    sim.add(c);
  }
};

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

TEST(ProfilingTest, DisabledByDefaultAndCountsNothing) {
  Simulator sim;
  Chain chain;
  chain.addTo(sim);
  sim.reset();
  sim.run(10);
  EXPECT_FALSE(sim.profilingEnabled());
  EXPECT_TRUE(sim.profileCounts().empty());
  EXPECT_TRUE(sim.hottestModules(3).empty());
  EXPECT_GT(sim.evaluateCalls(), 0u) << "the run itself must have settled";
}

TEST(ProfilingTest, CountsAccountForEveryEvaluation) {
  for (const auto kernel :
       {Simulator::Kernel::Naive, Simulator::Kernel::Compiled}) {
    SCOPED_TRACE(static_cast<int>(kernel));
    Simulator sim;
    sim.setKernel(kernel);
    Chain chain;
    chain.addTo(sim);
    sim.enableProfiling();
    ASSERT_TRUE(sim.profilingEnabled());
    sim.reset();
    sim.run(25);
    // Every evaluate() the kernel issued is attributed to exactly one
    // module.
    EXPECT_EQ(sum(sim.profileCounts()), sim.evaluateCalls());
    for (const std::uint64_t c : sim.profileCounts()) EXPECT_GT(c, 0u);
  }
}

TEST(ProfilingTest, HottestModulesRanksDeterministically) {
  Simulator sim;
  Chain chain;
  chain.addTo(sim);
  sim.enableProfiling();
  sim.reset();
  sim.run(20);
  const auto top = sim.hottestModules(10);
  ASSERT_EQ(top.size(), 4u) << "four modules registered";
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].second, top[i].second) << "sorted by count desc";
  // Ties break toward the lower module index, so repeated queries agree.
  EXPECT_EQ(top, sim.hottestModules(10));
  EXPECT_EQ(sim.hottestModules(2).size(), 2u);
}

TEST(ProfilingTest, CountsSurviveReset) {
  Simulator sim;
  Chain chain;
  chain.addTo(sim);
  sim.enableProfiling();
  sim.reset();
  sim.run(10);
  const std::uint64_t afterFirst = sum(sim.profileCounts());
  ASSERT_GT(afterFirst, 0u);
  sim.reset();
  sim.run(10);
  EXPECT_GT(sum(sim.profileCounts()), afterFirst)
      << "profiling accumulates across reset()";
}

}  // namespace
}  // namespace rasoc::sim
