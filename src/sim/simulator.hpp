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
///    one topologically ordered pass (cyclic stretches, e.g. fault thunks,
///    iterate locally).  Modules lower themselves through
///    Module::describe(); undescribed modules run behaviourally as fallback
///    thunks, so the kernel is exact for arbitrary module soups.  Wires
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
  /// (unit/word/segment counts for tests and stats).
  const CompiledProgram* compiledProgram() const { return program_.get(); }

  /// Resets registered state in every module and restarts the cycle count.
  void reset();

  /// Runs evaluate() passes until the combinational network is stable.
  /// Throws std::runtime_error if no fixpoint is reached within the
  /// evaluation bound derived from maxSettleIterations() (combinational
  /// loop); under the naive kernel the message names the modules still
  /// changing wires.
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

  /// Naive kernel: maximum full evaluation passes per settle.  Compiled
  /// kernel: maximum sweeps of each iterated (cyclic) segment per settle,
  /// so both kernels tolerate the same combinational depth.
  int maxSettleIterations() const { return maxSettleIterations_; }
  void setMaxSettleIterations(int n) { maxSettleIterations_ = n; }

  /// Total evaluate() calls issued by settle() since construction - the
  /// kernel-independent work metric bench_sim_speed reports.  Monotone
  /// non-decreasing and deterministic for a given kernel.
  std::uint64_t evaluateCalls() const { return evaluateCalls_; }

  /// Turns on per-module evaluate() attribution for whichever kernel is
  /// active.  Off by default: the settle loops then pay one null-pointer
  /// test per evaluation and write nothing, so unprofiled runs keep their
  /// exact behaviour.  Counts accumulate from the call onward and survive
  /// reset(); modules added later extend the table with zeroed slots.
  void enableProfiling();
  bool profilingEnabled() const { return profileBase_ != nullptr; }

  /// Per-module evaluate() counts since enableProfiling(), indexed by
  /// Module::moduleIndex().  Empty when profiling is off.
  const std::vector<std::uint64_t>& profileCounts() const {
    return profileCounts_;
  }

  /// The up-to-n costliest modules as (name, evaluate count), highest
  /// count first; ties break toward the lower module index so the ranking
  /// is deterministic.
  std::vector<std::pair<std::string, std::uint64_t>> hottestModules(
      std::size_t n);

  /// Modules known to the simulator (tops plus transitive children).
  std::size_t moduleCount() {
    ensureCollected();
    return modules_.size();
  }

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
  std::vector<std::uint64_t> profileCounts_;  // one slot per module index
  /// profileCounts_.data() when profiling, else nullptr - the single flag
  /// the settle loops test.  Re-pointed whenever the table reallocates.
  std::uint64_t* profileBase_ = nullptr;
  std::uint64_t cycle_ = 0;
  std::uint64_t evaluateCalls_ = 0;
  int maxSettleIterations_ = 64;
  Kernel kernel_ = Kernel::Naive;
  bool modulesStale_ = true;
  bool compiledStale_ = true;
};

}  // namespace rasoc::sim
