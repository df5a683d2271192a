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

// Places `w` alone in an arena word and returns the word's bits, for an
// op's read or write list.
template <typename T>
WordBits alone(Lowering& lw, const Wire<T>& w) {
  return {lw.packedWord({{w, 0}}), ~std::uint64_t{0}};
}

// y = x + 1 combinationally.
class Increment : public Module {
 public:
  Increment(std::string name, const Wire<int>& x, Wire<int>& y)
      : Module(std::move(name)), x_(&x), y_(&y) {}

  bool describe(Lowering& lw) override {
    lw.op([](std::uint64_t*,
             void* m) { static_cast<Increment*>(m)->evaluate(); },
          this, {alone(lw, *x_)}, {alone(lw, *y_)});
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
    lw.op([](std::uint64_t*,
             void* m) { static_cast<Counter*>(m)->evaluate(); },
          this, {}, {alone(lw, *out_)});
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
    lw.op([](std::uint64_t*,
             void* m) { static_cast<Inverter*>(m)->evaluate(); },
          this, {alone(lw, *y_)}, {alone(lw, *y_)});
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

// --- compiled kernel on Wire-level ops -------------------------------------

TEST(CompiledKernelTest, MatchesNaiveKernelOnARandomizedCircuit) {
  // Same circuit built twice, one simulator per kernel; identical stimulus
  // must produce identical wire trajectories.  Every module here lowers to
  // one op over its evaluate(), so the schedule comes from the declared
  // read and write sets alone.
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
      // The chain's reader before its writer: lowering order alone would
      // run inc2 on the stale stage1.
      sim.add(counter);
      sim.add(inc2);
      sim.add(inc1);
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

// out = in + k over arena words, as a raw op: no Wire::set, so a change
// shows in the arena alone.  With `declareRead` false the op leaves its
// read of `in` out of its declaration.
class WordAdd : public Module {
 public:
  WordAdd(std::string name, const Wire<int>& in, Wire<int>& out, int k,
          bool declareRead)
      : Module(std::move(name)),
        in_(&in),
        out_(&out),
        k_(k),
        declareRead_(declareRead) {}

  bool describe(Lowering& lw) override {
    struct Ctx {
      std::uint32_t in, out;
      int k;
    };
    const WordBits in = alone(lw, *in_);
    const WordBits out = alone(lw, *out_);
    lw.op(
        [](std::uint64_t* w, void* c) {
          const auto* x = static_cast<const Ctx*>(c);
          const auto v = static_cast<int>(static_cast<std::uint32_t>(w[x->in]));
          opPutBits(w, x->out, 0xffffffffu,
                    static_cast<std::uint32_t>(v + x->k));
        },
        lw.ctx(Ctx{in.word, out.word, k_}),
        declareRead_ ? WordBitsList{in} : WordBitsList{}, {out});
    return true;
  }

 private:
  const Wire<int>* in_;
  Wire<int>* out_;
  int k_;
  bool declareRead_;
};

TEST(CompiledKernelTest, NaiveSettlesReadsTheDeclarationsLeaveOut) {
  // The naive schedule never reads the declared masks: a reader registered
  // before its writer, whose op does not declare that read, still settles
  // to the writer's value once the fixpoint pass re-runs it.  (The
  // compiled value is not asserted: both ops sit on level 0, so their
  // order there depends on function addresses.)
  Wire<int> x{0}, y, z;
  WordAdd reader("reader", y, z, 0, false);
  WordAdd writer("writer", x, y, 1, true);
  Simulator sim;
  sim.add(reader);
  sim.add(writer);
  for (const int v : {3, 7, -2}) {
    x.force(v);
    sim.settle();
    EXPECT_EQ(z.get(), v + 1);
  }
}

// --- bit-level dependences within one word --------------------------------

// Two bool wires packed in one arena word: `low` at bit 0, `high` at bit 1.
struct TwoBitWord {
  Wire<bool> low, high;
  std::uint32_t place(Lowering& lw) const {
    return lw.packedWord({{low, 0}, {high, 1}});
  }
};

// low = high: reads bit 1 of its word and writes bit 0 (and declares the
// extra reads `alsoReads`).
class CopyDown : public Module {
 public:
  CopyDown(std::string name, TwoBitWord& w, std::uint64_t alsoReads = 0)
      : Module(std::move(name)), w_(&w), alsoReads_(alsoReads) {}

  bool describe(Lowering& lw) override {
    const std::uint32_t word = w_->place(lw);
    lw.op([](std::uint64_t*,
             void* m) { static_cast<CopyDown*>(m)->evaluate(); },
          this, {{word, 0b10 | alsoReads_}}, {{word, 0b01}});
    return true;
  }

 protected:
  void evaluate() override { w_->low.set(w_->high.get()); }

 private:
  TwoBitWord* w_;
  std::uint64_t alsoReads_;
};

// to.high = !from.low: reads bit 0 of one word, writes bit 1 of another.
class InvertUp : public Module {
 public:
  InvertUp(std::string name, TwoBitWord& from, TwoBitWord& to)
      : Module(std::move(name)), from_(&from), to_(&to) {}

  bool describe(Lowering& lw) override {
    lw.op([](std::uint64_t*,
             void* m) { static_cast<InvertUp*>(m)->evaluate(); },
          this, {{from_->place(lw), 0b01}}, {{to_->place(lw), 0b10}});
    return true;
  }

 protected:
  void evaluate() override { to_->high.set(!from_->low.get()); }

 private:
  TwoBitWord* from_;
  TwoBitWord* to_;
};

TEST(CompiledKernelTest, DisjointBitsOfOneWordAreNoCycle) {
  // The op reads bit 1 and writes bit 0 of one word and nothing writes
  // bit 1: no dependence, where a word-granular schedule would see the op
  // read its own write.  Naive is the value oracle.
  std::vector<bool> seen[2];
  for (const Simulator::Kernel kernel :
       {Simulator::Kernel::Naive, Simulator::Kernel::Compiled}) {
    TwoBitWord w;
    CopyDown copy("copy", w);
    Simulator sim;
    sim.setKernel(kernel);
    sim.add(copy);
    for (const bool v : {true, false, true}) {
      w.high.force(v);
      ASSERT_NO_THROW(sim.settle());
      seen[static_cast<int>(kernel)].push_back(w.low.get());
    }
    if (kernel == Simulator::Kernel::Compiled) {
      EXPECT_EQ(sim.compiledProgram()->opCount(), 1u);
    }
  }
  EXPECT_EQ(seen[0], (std::vector<bool>{true, false, true}));
  EXPECT_EQ(seen[1], seen[0]);
}

TEST(CompiledKernelTest, WriterOfAReadBitIsScheduledFirst) {
  // a.high -> copyA -> a.low -> invert -> b.high -> copyB -> b.low.  The
  // two copies share an op function, so the tape's tie-break by function
  // keeps them together: one of them would run on the wrong side of
  // `invert` unless the bit-level edges order all three.  One compiled
  // settle must match the naive fixpoint.
  std::vector<bool> seen[2];
  for (const Simulator::Kernel kernel :
       {Simulator::Kernel::Naive, Simulator::Kernel::Compiled}) {
    TwoBitWord a, b;
    CopyDown copyB("copyB", b);
    InvertUp invert("invert", a, b);
    CopyDown copyA("copyA", a);
    Simulator sim;
    sim.setKernel(kernel);
    sim.add(copyB);
    sim.add(invert);
    sim.add(copyA);
    for (const bool v : {true, false, false, true}) {
      a.high.force(v);
      sim.settle();
      seen[static_cast<int>(kernel)].push_back(b.low.get());
    }
  }
  EXPECT_EQ(seen[0], (std::vector<bool>{false, true, true, false}));
  EXPECT_EQ(seen[1], seen[0]);
}

TEST(CompiledKernelTest, ReadingAnOwnWrittenBitIsACycle) {
  TwoBitWord w;
  CopyDown copy("selfloop", w, 0b01);
  Simulator sim;
  sim.setKernel(Simulator::Kernel::Compiled);
  sim.add(copy);
  try {
    sim.settle();
    FAIL() << "reading its own written bit must not compile";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("selfloop"), std::string::npos) << message;
  }
}

TEST(CompiledKernelTest, UnplacedWordIsRejectedByName) {
  // A declared word index must come from a placement: the scheduler
  // indexes its writers by word.
  class Stray : public Module {
   public:
    Stray() : Module("stray_block") {}
    bool describe(Lowering& lw) override {
      lw.op([](std::uint64_t*, void*) {}, this, {{7, 1}}, {});
      return true;
    }
  } stray;
  Simulator sim;
  sim.setKernel(Simulator::Kernel::Compiled);
  sim.add(stray);
  try {
    sim.settle();
    FAIL() << "an unplaced word must not compile";
  } catch (const std::logic_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("stray_block"), std::string::npos) << message;
  }
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
  // sim.units_per_cycle and bench_sim_speed's units_per_cycle read: a
  // compiled settle runs every unit of its program once; a naive settle
  // adds its program's unit count, here one op per module, once per pass,
  // at least once.
  const auto expectSettles = [&](std::uint64_t settles) {
    const std::uint64_t now = sim.evaluateCalls();
    ASSERT_GE(now, last);
    const std::uint64_t added = now - last;
    if (GetParam() == Simulator::Kernel::Compiled) {
      ASSERT_NE(sim.compiledProgram(), nullptr);
      EXPECT_EQ(sim.compiledProgram()->opCount(), 3u);
      EXPECT_EQ(added, settles * sim.compiledProgram()->opCount());
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
    EXPECT_EQ(sim.compiledProgram()->opCount(), 0u);
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
      lw.op([](std::uint64_t*,
               void* m) { static_cast<Poker*>(m)->evaluate(); },
            this, {}, {});
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

TEST_P(KernelContractTest, PlacedWireValuesReachTheArenaOnEveryBuild) {
  // Before the first settle a placed int wire holds a negative value and a
  // placed bool wire holds true.  Building the program imports both into
  // the arena, where a raw op reads them (out = enable ? in : 0).  reset()
  // rebuilds the program: the old one stores its arena bits back into the
  // wires, the new one imports them again.
  class Gate : public Module {
   public:
    Gate(const Wire<int>& in, const Wire<bool>& enable, Wire<int>& out)
        : Module("gate"), in_(&in), enable_(&enable), out_(&out) {}

    bool describe(Lowering& lw) override {
      struct Ctx {
        std::uint32_t in, out;
      };
      const std::uint32_t in = lw.packedWord({{*in_, 0}, {*enable_, 32}});
      const WordBits out = alone(lw, *out_);
      lw.op(
          [](std::uint64_t* w, void* c) {
            const auto* x = static_cast<const Ctx*>(c);
            const std::uint64_t word = w[x->in];
            opPutBits(w, x->out, 0xffffffffu,
                      ((word >> 32) & 1) != 0 ? word & 0xffffffffu : 0);
          },
          lw.ctx(Ctx{in, out.word}), {{in, fieldMask(33)}}, {out});
      return true;
    }

   private:
    const Wire<int>* in_;
    const Wire<bool>* enable_;
    Wire<int>* out_;
  };
  Wire<int> in{-7}, out;
  Wire<bool> enable{true};
  Gate gate(in, enable, out);
  Simulator sim;
  sim.setKernel(GetParam());
  sim.add(gate);
  sim.settle();
  EXPECT_EQ(out.get(), -7);
  sim.reset();
  EXPECT_EQ(out.get(), -7);
  EXPECT_EQ(in.get(), -7);
  EXPECT_TRUE(enable.get());
  // A poked value crosses the rebuild too.
  in.force(std::numeric_limits<int>::min());
  sim.reset();
  EXPECT_EQ(out.get(), std::numeric_limits<int>::min());
  enable.force(false);
  sim.reset();
  EXPECT_EQ(out.get(), 0);
  EXPECT_FALSE(enable.get());
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
