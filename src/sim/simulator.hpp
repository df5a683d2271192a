/// \file
/// Two-phase clocked simulator.
///
/// Each cycle:
///   1. settle(): bring the combinational network to a fixpoint (no Wire
///      changes value).  A bounded evaluation count guards against
///      combinational loops; exceeding it throws.
///   2. tick(): run every module's clockEdge() once (synchronous state
///      update), then increment the cycle counter.
///
/// step() = settle() + tick().  Testbenches that poke inputs between cycles
/// should: poke wires -> step() -> observe.  Poking (set/force) is legal
/// only between cycles; Wire::force throws if called during a settle phase.
///
/// Two settle kernels compute the same fixpoint:
///
///  * Kernel::Naive - the reference.  Re-runs every module's evaluate() in
///    registration order until a full pass changes no wire.  Requires
///    nothing from the modules beyond idempotent evaluate(); cost is
///    O(modules x propagation depth) per cycle.
///  * Kernel::Compiled - the fast kernel.  Lowers the module tree once into
///    a word-packed state arena plus a levelized op tape (sim/compile.hpp)
///    and settles by interpreting the flat op arrays: no virtual dispatch,
///    one topologically ordered pass.  Every module declares its units and
///    clock edge through Module::describe(); the build rejects a module
///    without a lowering (std::logic_error) and a combinational cycle
///    (std::runtime_error, the naive kernel's no-fixpoint type).  Wires
///    write through to the arena on set()/force() (the poke window keeps
///    working) and read through on get(), so all wire-level observers
///    behave as under the naive kernel.  The program is rebuilt
///    automatically after add(), reset(), or a telemetry attach.  The
///    lockstep suites (tests/noc/kernel_trichotomy_test.cpp) hold it to
///    the naive reference cycle for cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/module.hpp"

namespace rasoc::sim {

class CompiledProgram;

class Simulator final : private EvalScheduler {
 public:
  enum class Kernel { Naive, Compiled };

  Simulator();
  ~Simulator();

  /// Registered modules keep a backpointer into this scheduler; moving or
  /// copying the simulator would dangle them.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a top-level module (and, transitively, its children).
  /// Non-owning; the module must outlive the simulator's use of it.
  void add(Module& m) {
    tops_.push_back(&m);
    modulesStale_ = true;
    compiledStale_ = true;
  }

  /// Selects the settle kernel.  Legal only before the first cycle (or
  /// after reset()): a compiled program binds wires to its arena and
  /// holds raw pointers into registered state, which a mid-run switch
  /// would carry across (or drop) outside the reset that re-derives them,
  /// so it throws std::logic_error once cycle() is nonzero.
  void setKernel(Kernel kernel);
  Kernel kernel() const { return kernel_; }

  /// The compiled kernel's current program, or nullptr when no program is
  /// built (other kernel active, or no settle yet).  Introspection only
  /// (op/word/edge-item counts for tests and stats).
  const CompiledProgram* compiledProgram() const { return program_.get(); }

  /// Resets registered state in every module and restarts the cycle count.
  void reset();

  /// Runs evaluate() passes until the combinational network is stable.
  /// Throws std::runtime_error on a combinational loop: the naive kernel
  /// when no fixpoint is reached within maxSettleIterations() passes (the
  /// message names the modules still changing wires), the compiled kernel
  /// when its build finds a cycle (the message names the modules on it).
  void settle();

  /// Commits one clock edge.  Callers normally use step() instead.
  void tick();

  /// One full cycle: settle + clock edge.
  void step();

  /// Runs n full cycles.
  void run(std::uint64_t n);

  /// Steps until pred() is true after a settle phase, or maxCycles elapsed.
  /// Returns true if the predicate fired.  The predicate is evaluated at
  /// most maxCycles times (once per cycle, post-settle); the cycle in which
  /// it fires is *not* ticked, so registered state is left just before the
  /// edge.  On timeout the network is left settled but the final state is
  /// not checked - a predicate first true after exactly maxCycles ticks
  /// reports failure, keeping the bound a bound.
  bool runUntil(const std::function<bool()>& pred, std::uint64_t maxCycles);

  /// Registers a callback invoked after every committed clock edge (state
  /// post-edge, cycle() already advanced).  Samplers - per-cycle telemetry
  /// gauges, waveform capture - hook here without becoming modules.
  void addTickListener(std::function<void()> listener) {
    tickListeners_.push_back(std::move(listener));
  }

  std::uint64_t cycle() const { return cycle_; }

  /// Naive kernel: maximum full evaluation passes per settle.  The
  /// compiled kernel settles in one pass and ignores it.  Throws
  /// std::invalid_argument for n < 1: a settle needs at least one pass.
  int maxSettleIterations() const { return maxSettleIterations_; }
  void setMaxSettleIterations(int n);

  /// Total units issued by settle() since construction - the work metric
  /// bench_sim_speed and perfbench report.  It is kernel-specific: a
  /// naive settle adds the registered module count once per pass, a
  /// compiled settle adds CompiledProgram::unitCount() (its ops).
  /// Monotone non-decreasing and deterministic for a given kernel.
  std::uint64_t evaluateCalls() const { return evaluateCalls_; }

 private:
  void describeChanged() override { compiledStale_ = true; }

  /// Rebuilds the flattened module list (and scheduler backpointers) after
  /// add().
  void ensureCollected();
  void settleNaive();
  void settleCompiled();
  void ensureProgramBuilt();
  void releaseProgram();

  std::vector<Module*> tops_;
  std::vector<Module*> modules_;  // flattened: tops + children
  std::vector<std::function<void()>> tickListeners_;
  std::unique_ptr<CompiledProgram> program_;
  std::uint64_t cycle_ = 0;
  std::uint64_t evaluateCalls_ = 0;
  int maxSettleIterations_ = 64;
  Kernel kernel_ = Kernel::Naive;
  bool modulesStale_ = true;
  bool compiledStale_ = true;
};

}  // namespace rasoc::sim
