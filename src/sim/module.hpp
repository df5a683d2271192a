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
// The naive kernel needs nothing more.  The compiled kernel (see
// Simulator::Kernel) needs every module it runs to declare its lowering
// through describe(): the units that stand in for evaluate(), with the
// wires each reads and drives, and the clock edge.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rasoc::sim {

class Lowering;

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

  // Single-module evaluate, used by the naive kernel's culprit pass and by
  // an op that runs a module's whole evaluate() (test shells around a lone
  // block).
  void evaluateOne() { evaluate(); }

  // Single-module clock edge, run by the compiled kernel's edge tape
  // (Lowering::edgeCall) when a module keeps its behavioural clockEdge()
  // (children are separate tape entries, emitted in clockEdgeAll()
  // preorder).
  void clockEdgeOne() { clockEdge(); }

  // --- compiled-kernel lowering hook (see sim/compile.hpp) --------------

  // Contributes this module's units (and, by covenant, its entire
  // subtree's) to the compiled kernel's program: settle units standing in
  // for evaluate() and edge items standing in for clockEdge().  Return true
  // when the subtree is covered by the emitted units; call
  // Lowering::descendChildren first if the children should still lower
  // themselves.  Returning false (the default) means the module has no
  // lowering, and CompiledProgram::build throws std::logic_error naming it.
  virtual bool describe(Lowering&) { return false; }

  const std::vector<Module*>& children() const { return children_; }

 protected:
  virtual void onReset() {}
  virtual void evaluate() {}
  virtual void clockEdge() {}

  // Registers a structural child.  The child must outlive this module; the
  // usual pattern is member-object children registered in the constructor.
  void addChild(Module& child) { children_.push_back(&child); }

 private:
  std::string name_;
  std::vector<Module*> children_;
};

}  // namespace rasoc::sim
