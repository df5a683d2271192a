// Module base class for structural hardware models.
//
// A Module mirrors a VHDL entity: it has a name, optional child modules
// (structural composition), combinational behaviour (evaluate) and
// sequential behaviour (clockEdge).  The simulator drives the whole tree:
//
//   reset    -> onReset() on every module, once
//   settle   -> evaluate() until the combinational network is stable
//   tick     -> clockEdge() on every module, once per cycle
//
// evaluate() must be idempotent given unchanged inputs: it may be re-run
// any number of times until no Wire changes.  clockEdge() reads
// wires/registered state and commits the next registered state; it must not
// drive wires (drive them in evaluate() from registered state instead).
//
// Both settle kernels (see Simulator::Kernel) re-derive every wire each
// settle, so a module owes the simulator no scheduling declarations.  The
// one annotation, sensitive(wire), records the wires evaluate() reads: the
// compiled kernel uses that list as the read set of the fallback thunk it
// wraps an undescribed module in (Lowering::thunk).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rasoc::sim {

class Lowering;
class Module;
class WireBase;

// Simulator hook reached through each module's scheduler backpointer, so
// several simulators can coexist on one thread without cross-talk.
class EvalScheduler {
 public:
  // A module's lowering (Module::describe) depends on attached state, e.g.
  // telemetry hooks that change which edge path a channel takes.  Modules
  // call noteDescribeChanged() when that state changes; the compiled kernel
  // reacts by rebuilding its program before the next settle.  Default:
  // ignore (the naive kernel re-reads the module each cycle anyway).
  virtual void describeChanged() {}

 protected:
  ~EvalScheduler() = default;
};

class Module {
 public:
  explicit Module(std::string name);
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

  // Drives this module and every child.  Called by the simulator.
  void resetAll();
  void evaluateAll();
  void clockEdgeAll();

  // Single-module evaluate, used by the profiled naive sweep and the
  // compiled kernel's fallback thunks (children are separate units).
  void evaluateOne() { evaluate(); }

  // Single-module clock edge, used by the compiled kernel's edge tape when
  // a module keeps its behavioural clockEdge() (children are separate tape
  // entries, emitted in clockEdgeAll() preorder).
  void clockEdgeOne() { clockEdge(); }

  // --- compiled-kernel lowering hook (see sim/compile.hpp) --------------

  // Contributes word-level ops for this module (and, by covenant, its
  // entire subtree) to the compiled kernel's program.  Return true when the
  // subtree is covered by the emitted units; call Lowering::descendChildren
  // first if the children should still lower themselves.  Returning false
  // (the default) makes the compiler wrap this module's evaluate() in a
  // fallback thunk, append its clockEdge() to the edge tape, and recurse -
  // behaviourally exact, just slower, so migration is incremental.
  virtual bool describe(Lowering&) { return false; }

  const std::vector<Module*>& children() const { return children_; }

  void bindScheduler(EvalScheduler* s) { scheduler_ = s; }

  // Index in the simulator's flattened module list, written whenever the
  // list is (re)collected so every kernel can attribute per-module work
  // (Simulator::enableProfiling).
  void setModuleIndex(std::size_t index) { moduleIndex_ = index; }
  std::size_t moduleIndex() const { return moduleIndex_; }

  // Wires declared via sensitive() - the read set the compiled kernel
  // gives a fallback thunk (Lowering::thunk).
  const std::vector<const WireBase*>& sensitivities() const { return reads_; }

 protected:
  virtual void onReset() {}
  virtual void evaluate() {}
  virtual void clockEdge() {}

  // Registers a structural child.  The child must outlive this module; the
  // usual pattern is member-object children registered in the constructor.
  void addChild(Module& child) { children_.push_back(&child); }

  // Declares that evaluate() reads `wire`, adding it to the read set the
  // compiled kernel gives this module's fallback thunk.  Call from the
  // constructor, once per input wire.
  void sensitive(const WireBase& wire) { reads_.push_back(&wire); }

  // Tells the bound scheduler that this module's describe() output is no
  // longer valid (e.g. telemetry was attached after the first compile).
  void noteDescribeChanged() {
    if (scheduler_) scheduler_->describeChanged();
  }

 private:
  std::string name_;
  std::vector<Module*> children_;
  std::vector<const WireBase*> reads_;  // declared via sensitive()
  EvalScheduler* scheduler_ = nullptr;
  std::size_t moduleIndex_ = 0;
};

}  // namespace rasoc::sim
