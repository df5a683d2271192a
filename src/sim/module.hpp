// Module base class for structural hardware models.
//
// A Module mirrors a VHDL entity: it has a name, optional child modules
// (structural composition), combinational behaviour (evaluate) and
// sequential behaviour (clockEdge).  The simulator drives the whole tree:
//
//   reset    -> onReset() on every module, once
//   settle   -> the combinational network brought to a fixpoint
//   tick     -> one clock edge per module, once per cycle
//
// evaluate() must be idempotent given unchanged inputs: it may be re-run
// any number of times until no Wire changes.  clockEdge() reads
// wires/registered state and commits the next registered state; it must not
// drive wires (drive them in evaluate() from registered state instead).
//
// Both kernels run one program built from the tree (sim/compile.hpp).  A
// module declares its lowering through describe(): the units that stand
// in for evaluate(), with the bits each reads and drives, and its clock
// edge.  The naive kernel also runs a module without a lowering, as one
// unit calling evaluate() and one edge entry calling clockEdge(); the
// compiled kernel rejects it.
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

  // Resets this module and every child.  Called by the simulator.
  void resetAll();

  // Single-module evaluate: the unit of a module without a lowering under
  // the naive kernel, and the body of an op that runs a module's whole
  // evaluate() (test shells around a lone block).
  void evaluateOne() { evaluate(); }

  // Single-module clock edge, run by the edge tape (Lowering::edgeCall)
  // when a module keeps its behavioural clockEdge() (children are separate
  // tape entries, emitted in preorder: a module, then each child's
  // subtree).
  void clockEdgeOne() { clockEdge(); }

  // --- lowering hook (see sim/compile.hpp) ------------------------------

  // Contributes this module's units (and, by covenant, its entire
  // subtree's) to the program: settle units standing in for evaluate() and
  // edge items standing in for clockEdge().  Return true when the subtree
  // is covered by the emitted units; call Lowering::descendChildren first
  // if the children should still lower themselves.  Returning false (the
  // default) means the module has no lowering: the naive kernel runs its
  // evaluate() and clockEdge() and descends into its children, and the
  // compiled kernel's build throws std::logic_error naming it.
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
