#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/compile.hpp"
#include "sim/module.hpp"
#include "sim/wire.hpp"

namespace rasoc::sim {
namespace {

// y = x + 1 combinationally.
class Increment : public Module {
 public:
  Increment(std::string name, const Wire<int>& x, Wire<int>& y)
      : Module(std::move(name)), x_(&x), y_(&y) {}

  bool describe(Lowering& lw) override {
    lw.phaseOp<&Increment::evaluate>(*this, {x_}, {y_});
    return true;
  }

 protected:
  void evaluate() override { y_->set(x_->get() + 1); }

 private:
  const Wire<int>* x_;
  Wire<int>* y_;
};

// Registered counter with combinational output wire.
class Counter : public Module {
 public:
  Counter(std::string name, Wire<int>& out)
      : Module(std::move(name)), out_(&out) {}

  bool describe(Lowering& lw) override {
    lw.phaseOp<&Counter::evaluate>(*this, {}, {out_});
    lw.edgeCall(*this);
    return true;
  }

 protected:
  void onReset() override { value_ = 0; }
  void evaluate() override { out_->set(value_); }
  void clockEdge() override { ++value_; }

 private:
  int value_ = 0;
  Wire<int>* out_;
};

// Oscillating combinational loop: y = !y.
class Inverter : public Module {
 public:
  Inverter(std::string name, Wire<bool>& y)
      : Module(std::move(name)), y_(&y) {}

  bool describe(Lowering& lw) override {
    lw.phaseOp<&Inverter::evaluate>(*this, {y_}, {y_});
    return true;
  }

 protected:
  void evaluate() override { y_->set(!y_->get()); }

 private:
  Wire<bool>* y_;
};

TEST(SimulatorTest, SettleReachesFixpointThroughChainedModules) {
  // A chain x -> +1 -> +1 -> +1 settles regardless of evaluation order,
  // and both poke flavours propagate on the next settle, under both
  // kernels.
  for (const Simulator::Kernel kernel :
       {Simulator::Kernel::Naive, Simulator::Kernel::Compiled}) {
    Wire<int> a{0}, b, c, d;
    Increment m3("m3", c, d);  // deliberately registered in reverse order
    Increment m2("m2", b, c);
    Increment m1("m1", a, b);
    Simulator sim;
    sim.setKernel(kernel);
    sim.add(m3);
    sim.add(m2);
    sim.add(m1);
    sim.settle();
    EXPECT_EQ(d.get(), 3);
    a.force(10);
    sim.settle();
    EXPECT_EQ(d.get(), 13);
    a.set(20);
    sim.settle();
    EXPECT_EQ(d.get(), 23);
  }
}

TEST(SimulatorTest, StepAdvancesRegisteredState) {
  Wire<int> out;
  Counter counter("counter", out);
  Simulator sim;
  sim.add(counter);
  sim.reset();
  EXPECT_EQ(out.get(), 0);
  sim.step();
  sim.settle();
  EXPECT_EQ(out.get(), 1);
  sim.run(4);
  sim.settle();
  EXPECT_EQ(out.get(), 5);
  EXPECT_EQ(sim.cycle(), 5u);
}

TEST(SimulatorTest, ResetRestartsCycleCountAndState) {
  Wire<int> out;
  Counter counter("counter", out);
  Simulator sim;
  sim.add(counter);
  sim.reset();
  sim.run(7);
  sim.reset();
  EXPECT_EQ(sim.cycle(), 0u);
  EXPECT_EQ(out.get(), 0);
}

TEST(SimulatorTest, NoFixpointMessageNamesTheLoopingModules) {
  // The naive kernel's bound-exceeded diagnostic: one extra pass names
  // every module still changing wires, and only those.
  Wire<bool> y;
  Wire<int> a{1}, b;
  Inverter inv("inv", y);
  Increment inc("inc", a, b);
  Simulator sim;
  sim.add(inv);
  sim.add(inc);
  try {
    sim.settle();
    FAIL() << "an inverter loop has no fixpoint";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("still changing: inv"), std::string::npos)
        << message;
    EXPECT_EQ(message.find("inc"), std::string::npos) << message;
  }
}

TEST(SimulatorTest, RunUntilStopsWhenPredicateFires) {
  Wire<int> out;
  Counter counter("counter", out);
  Simulator sim;
  sim.add(counter);
  sim.reset();
  const bool fired = sim.runUntil([&] { return out.get() == 5; }, 100);
  EXPECT_TRUE(fired);
  EXPECT_EQ(out.get(), 5);
  EXPECT_EQ(sim.cycle(), 5u);
}

TEST(SimulatorTest, RunUntilGivesUpAfterMaxCycles) {
  Wire<int> out;
  Counter counter("counter", out);
  Simulator sim;
  sim.add(counter);
  sim.reset();
  EXPECT_FALSE(sim.runUntil([&] { return out.get() == 1000; }, 10));
}

TEST(SimulatorTest, RunUntilChecksThePredicateExactlyMaxCyclesTimes) {
  // The counter reaches 5 only after 5 ticks, i.e. in the 6th settle
  // phase.  A budget of 5 cycles must NOT report success (the predicate is
  // checked at cycles 0..4), and must not over-run the cycle bound.
  Wire<int> out;
  Counter counter("counter", out);
  Simulator sim;
  sim.add(counter);
  sim.reset();
  std::uint64_t checks = 0;
  EXPECT_FALSE(sim.runUntil(
      [&] {
        ++checks;
        return out.get() == 5;
      },
      5));
  EXPECT_EQ(checks, 5u);
  EXPECT_EQ(sim.cycle(), 5u);
  // The timed-out state is left settled for observation.
  EXPECT_EQ(out.get(), 5);

  // One more cycle of budget catches it, without ticking the firing cycle.
  sim.reset();
  EXPECT_TRUE(sim.runUntil([&] { return out.get() == 5; }, 6));
  EXPECT_EQ(sim.cycle(), 5u);
}

TEST(SimulatorTest, ChildModulesAreDriven) {
  // A composite whose child is the counter: reset/evaluate/clockEdge must
  // reach it through the parent.
  class Composite : public Module {
   public:
    Composite(std::string name, Wire<int>& out)
        : Module(std::move(name)), child_("child", out) {
      addChild(child_);
    }

   private:
    Counter child_;
  };
  Wire<int> out;
  Composite top("top", out);
  Simulator sim;
  sim.add(top);
  sim.reset();
  sim.run(3);
  sim.settle();
  EXPECT_EQ(out.get(), 3);
}

TEST(SimulatorTest, TickListenersFireOncePerCommittedEdge) {
  Wire<int> out;
  Counter counter("counter", out);
  Simulator sim;
  sim.add(counter);
  std::vector<std::uint64_t> seenCycles;
  std::vector<int> seenValues;
  sim.addTickListener([&] { seenCycles.push_back(sim.cycle()); });
  sim.addTickListener([&] { seenValues.push_back(out.get()); });
  sim.reset();
  sim.run(3);
  // Listeners observe post-edge state with the cycle count already advanced.
  EXPECT_EQ(seenCycles, (std::vector<std::uint64_t>{1, 2, 3}));
  ASSERT_EQ(seenValues.size(), 3u);
}

TEST(SimulatorTest, MaxSettleIterationsIsConfigurable) {
  Simulator sim;
  sim.setMaxSettleIterations(7);
  EXPECT_EQ(sim.maxSettleIterations(), 7);
}

TEST(SimulatorTest, MaxSettleIterationsBelowOneIsRejected) {
  // Zero passes cannot confirm a fixpoint, so a loop-free circuit would be
  // reported as a combinational loop; the setter refuses instead and keeps
  // the old bound.
  Wire<int> x{1}, y;
  Increment inc("inc", x, y);
  Simulator sim;
  sim.add(inc);
  for (int n : {0, -1, std::numeric_limits<int>::min()}) {
    SCOPED_TRACE(n);
    try {
      sim.setMaxSettleIterations(n);
      ADD_FAILURE() << "n < 1 must be rejected";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("maxSettleIterations"), std::string::npos)
          << message;
    }
    EXPECT_EQ(sim.maxSettleIterations(), 64);
  }
  sim.setMaxSettleIterations(2);  // one pass settles y, one confirms it
  EXPECT_NO_THROW(sim.reset());
  EXPECT_EQ(y.get(), 2);
}

// --- compiled kernel on phase ops ------------------------------------------

TEST(CompiledKernelTest, MatchesNaiveKernelOnARandomizedCircuit) {
  // Same circuit built twice, one simulator per kernel; identical stimulus
  // must produce identical wire trajectories.  Every module here lowers to
  // one phase op over its evaluate(), so the schedule comes from the
  // declared read and write sets alone.
  struct Rig {
    Wire<int> in;
    Wire<int> stage1, stage2, counterOut;
    Counter counter;
    Increment inc1, inc2;
    Simulator sim;
    explicit Rig(Simulator::Kernel kernel)
        : counter("counter", counterOut),
          inc1("inc1", in, stage1),
          inc2("inc2", stage1, stage2) {
      sim.setKernel(kernel);
      sim.add(counter);
      sim.add(inc1);
      sim.add(inc2);
      sim.reset();
    }
  };
  Rig naive(Simulator::Kernel::Naive);
  Rig compiled(Simulator::Kernel::Compiled);
  std::uint64_t lcg = 42;
  for (int cycleNo = 0; cycleNo < 200; ++cycleNo) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const int stimulus = static_cast<int>(lcg >> 60);
    naive.in.force(stimulus);
    compiled.in.force(stimulus);
    naive.sim.step();
    compiled.sim.step();
    // One settle each so far: the compiled schedule alone must have
    // ordered the chain.
    ASSERT_EQ(naive.stage2.get(), compiled.stage2.get())
        << "cycle " << cycleNo << " after one settle";
    naive.sim.settle();
    compiled.sim.settle();
    ASSERT_EQ(naive.stage2.get(), compiled.stage2.get())
        << "cycle " << cycleNo;
    ASSERT_EQ(naive.counterOut.get(), compiled.counterOut.get());
    ASSERT_EQ(naive.sim.cycle(), compiled.sim.cycle());
  }
  const CompiledProgram* prog = compiled.sim.compiledProgram();
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->opCount(), 3u);
  EXPECT_EQ(prog->edgeItemCount(), 1u);  // the counter's clockEdge()
}

TEST(CompiledKernelTest, UndescribedModuleIsRejectedByName) {
  // A module without a lowering has no place in the compiled tape: the
  // build names it instead of guessing its reads and writes.
  class Opaque : public Module {
   public:
    Opaque(std::string name, Wire<int>& out)
        : Module(std::move(name)), out_(&out) {}

   protected:
    void evaluate() override { out_->set(1); }

   private:
    Wire<int>* out_;
  };
  Wire<int> a{1}, b, c;
  Increment inc("inc", a, b);
  Opaque opaque("opaque_block", c);
  Simulator sim;
  sim.setKernel(Simulator::Kernel::Compiled);
  sim.add(inc);
  sim.add(opaque);
  try {
    sim.settle();
    FAIL() << "an undescribed module must not compile";
  } catch (const std::logic_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("opaque_block"), std::string::npos) << message;
    EXPECT_NE(message.find("describe()"), std::string::npos) << message;
  }
  EXPECT_EQ(sim.compiledProgram(), nullptr);
}

// --- contract shared by every kernel -------------------------------------

class KernelContractTest : public ::testing::TestWithParam<Simulator::Kernel> {
};

TEST_P(KernelContractTest, CombinationalLoopThrowsAndStaysUsable) {
  Wire<bool> y;
  Inverter inv("inv", y);
  Simulator sim;
  sim.setKernel(GetParam());
  sim.add(inv);
  EXPECT_THROW(sim.settle(), std::runtime_error);
  // The poke window is open again, and poking the loop re-detects it
  // instead of hanging.
  EXPECT_NO_THROW(y.force(!y.get()));
  EXPECT_THROW(sim.settle(), std::runtime_error);
  if (GetParam() == Simulator::Kernel::Compiled) {
    // The compiled build rejects the cycle and names the modules on it.
    try {
      sim.settle();
      FAIL() << "the loop must be re-detected";
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("inv"), std::string::npos) << message;
    }
  }
}

TEST_P(KernelContractTest, ModulesAddedBetweenSettlesAreEvaluated) {
  Wire<int> a{1}, aOut;
  Increment inc("inc", a, aOut);
  Simulator sim;
  sim.setKernel(GetParam());
  sim.add(inc);
  sim.settle();
  EXPECT_EQ(aOut.get(), 2);
  Wire<int> lateOut;
  Increment inc2("inc2", aOut, lateOut);
  sim.add(inc2);
  sim.settle();  // re-collection recompiles: inc2 evaluates
  EXPECT_EQ(lateOut.get(), 3);
}

TEST_P(KernelContractTest, EvaluateCallsNeverDecrease) {
  Wire<int> out, plusOne, plusTwo;
  Counter counter("counter", out);
  Increment inc1("inc1", out, plusOne);
  Increment inc2("inc2", plusOne, plusTwo);
  Simulator sim;
  sim.setKernel(GetParam());
  sim.add(counter);
  sim.add(inc1);
  sim.add(inc2);
  std::uint64_t last = 0;
  // Exact accounting per kernel, which is what perfbench's
  // sim.units_per_cycle and bench_sim_speed's evals_per_cycle read: a
  // compiled settle runs every unit of its program once; a naive settle
  // runs all 3 registered modules once per pass, at least once.
  const auto expectSettles = [&](std::uint64_t settles) {
    const std::uint64_t now = sim.evaluateCalls();
    ASSERT_GE(now, last);
    const std::uint64_t added = now - last;
    if (GetParam() == Simulator::Kernel::Compiled) {
      ASSERT_NE(sim.compiledProgram(), nullptr);
      EXPECT_EQ(sim.compiledProgram()->unitCount(), 3u);
      EXPECT_EQ(added, settles * sim.compiledProgram()->unitCount());
    } else {
      EXPECT_GE(added, settles * 3);
      EXPECT_EQ(added % 3, 0u);
    }
    last = now;
  };
  sim.reset();
  EXPECT_GT(sim.evaluateCalls(), 0u) << "the reset settle did work";
  expectSettles(1);
  sim.settle();  // already settled: no decrease
  expectSettles(1);
  out.force(40);
  sim.settle();
  expectSettles(1);
  sim.step();
  expectSettles(1);
  sim.run(3);
  expectSettles(3);
  sim.reset();
  expectSettles(1);
  sim.settle();
  expectSettles(1);
  EXPECT_EQ(plusTwo.get(), 2);
}

TEST_P(KernelContractTest, KernelSwitchRejectedAfterFirstCycleUntilReset) {
  // A mid-run switch would carry live state across a compiled program's
  // arena binding; reset() reopens the selection window.
  Wire<int> out, plusOne;
  Counter counter("counter", out);
  Increment inc("inc", out, plusOne);
  Simulator sim;
  sim.setKernel(GetParam());
  sim.add(counter);
  sim.add(inc);
  sim.reset();
  sim.run(3);
  for (const Simulator::Kernel other :
       {Simulator::Kernel::Naive, Simulator::Kernel::Compiled}) {
    if (other == GetParam()) {
      // Re-selecting the current kernel is a no-op, not an error.
      EXPECT_NO_THROW(sim.setKernel(other));
    } else {
      EXPECT_THROW(sim.setKernel(other), std::logic_error);
    }
    EXPECT_EQ(sim.kernel(), GetParam()) << "rejected switch not applied";
  }
  sim.settle();
  EXPECT_EQ(plusOne.get(), 4);  // the rejected switches left state intact
  const Simulator::Kernel next = GetParam() == Simulator::Kernel::Naive
                                     ? Simulator::Kernel::Compiled
                                     : Simulator::Kernel::Naive;
  sim.reset();
  EXPECT_NO_THROW(sim.setKernel(next));
  sim.run(3);
  sim.settle();
  EXPECT_EQ(out.get(), 3);  // reset restarted the counter
  EXPECT_EQ(plusOne.get(), 4);
}

TEST_P(KernelContractTest, EdgeTapeRunsInClockEdgeAllPreorder) {
  // Edge-only modules under a structural parent that lowers its children
  // itself: every clock edge must reach them in clockEdgeAll() preorder
  // (parent, then each child's subtree in registration order, then the
  // next top-level module), whichever kernel runs the cycle.
  class Logger : public Module {
   public:
    Logger(std::string name, std::vector<std::string>& log)
        : Module(std::move(name)), log_(&log) {}
    void adopt(Module& child) { addChild(child); }

    bool describe(Lowering& lw) override {
      lw.edgeCall(*this);
      lw.descendChildren();
      return true;
    }

   protected:
    void clockEdge() override { log_->push_back(name()); }

   private:
    std::vector<std::string>* log_;
  };
  std::vector<std::string> log;
  Logger top("top", log), a("a", log), ax("a.x", log), b("b", log),
      tail("tail", log);
  a.adopt(ax);
  top.adopt(a);
  top.adopt(b);
  Simulator sim;
  sim.setKernel(GetParam());
  sim.add(top);
  sim.add(tail);
  sim.reset();
  const std::vector<std::string> preorder = {"top", "a", "a.x", "b", "tail"};
  for (int cycle = 0; cycle < 3; ++cycle) {
    log.clear();
    sim.step();
    EXPECT_EQ(log, preorder) << "cycle " << cycle;
  }
  if (GetParam() == Simulator::Kernel::Compiled) {
    ASSERT_NE(sim.compiledProgram(), nullptr);
    EXPECT_EQ(sim.compiledProgram()->unitCount(), 0u);
    EXPECT_EQ(sim.compiledProgram()->edgeItemCount(), preorder.size());
  }
}

TEST_P(KernelContractTest, ForceDuringSettleThrows) {
  // A module that pokes a foreign wire from evaluate() via force() would
  // bypass change tracking and corrupt the fixpoint; the wire rejects it.
  Wire<int> victim{0};
  class Poker : public Module {
   public:
    Poker(std::string name, Wire<int>& victim)
        : Module(std::move(name)), victim_(&victim) {}

    bool describe(Lowering& lw) override {
      lw.phaseOp<&Poker::evaluate>(*this, {}, {});
      return true;
    }

   protected:
    void evaluate() override { victim_->force(1); }

   private:
    Wire<int>* victim_;
  };
  Poker poker("poker", victim);
  Simulator sim;
  sim.setKernel(GetParam());
  sim.add(poker);
  EXPECT_THROW(sim.settle(), std::logic_error);
  // Outside the settle phase the poke window is open again.
  EXPECT_NO_THROW(victim.force(2));
  EXPECT_EQ(victim.get(), 2);
}

std::string kernelName(
    const ::testing::TestParamInfo<Simulator::Kernel>& info) {
  const char* const names[] = {"Naive", "Compiled"};
  return names[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelContractTest,
    ::testing::Values(Simulator::Kernel::Naive, Simulator::Kernel::Compiled),
    kernelName);

}  // namespace
}  // namespace rasoc::sim
