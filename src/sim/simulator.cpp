#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>

#include "sim/compile.hpp"
#include "sim/wire.hpp"

namespace rasoc::sim {

namespace {

// Marks the settle phase for Wire::force's poke-window check; exception
// safe so a combinational-loop throw doesn't leave the flag stuck.
class SettleGuard {
 public:
  SettleGuard() { SettleContext::enterSettle(); }
  ~SettleGuard() { SettleContext::exitSettle(); }
  SettleGuard(const SettleGuard&) = delete;
  SettleGuard& operator=(const SettleGuard&) = delete;
};

}  // namespace

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

void Simulator::ensureCollected() {
  if (!modulesStale_) return;
  modules_.clear();
  for (Module* top : tops_) {
    // Iterative preorder walk; mesh trees are shallow but wide.
    std::vector<Module*> stack{top};
    while (!stack.empty()) {
      Module* m = stack.back();
      stack.pop_back();
      modules_.push_back(m);
      const auto& children = m->children();
      for (auto it = children.rbegin(); it != children.rend(); ++it)
        stack.push_back(*it);
    }
  }
  modulesStale_ = false;
  compiledStale_ = true;
}

void Simulator::setKernel(Kernel kernel) {
  if (kernel_ == kernel) return;
  if (cycle_ != 0)
    throw std::logic_error(
        "Simulator::setKernel: kernel switch at cycle " +
        std::to_string(cycle_) +
        " would carry live state across a compiled program's arena "
        "binding and its pointers into registered state; select the "
        "kernel before the first cycle, or reset() first");
  // Leaving the compiled kernel: detach the wires from the arena while
  // they are certainly alive, and drop the program.  Entering it: the
  // program is built lazily on the first settle.
  if (kernel_ == Kernel::Compiled) releaseProgram();
  kernel_ = kernel;
  compiledStale_ = true;
}

void Simulator::setMaxSettleIterations(int n) {
  if (n < 1)
    throw std::invalid_argument(
        "Simulator::setMaxSettleIterations: maxSettleIterations must be at "
        "least 1 (got " + std::to_string(n) +
        "); a settle needs one pass to confirm a fixpoint");
  maxSettleIterations_ = n;
}

void Simulator::reset() {
  cycle_ = 0;
  ensureCollected();
  for (Module* m : tops_) m->resetAll();
  // Registered state just changed wholesale (FIFO backing stores may even
  // have reallocated), so a compiled program's raw state pointers are
  // stale: recompile on the next settle.
  compiledStale_ = true;
  settle();
}

void Simulator::settle() {
  ensureCollected();
  SettleGuard guard;
  switch (kernel_) {
    case Kernel::Naive:
      settleNaive();
      break;
    case Kernel::Compiled:
      settleCompiled();
      break;
  }
}

void Simulator::settleNaive() {
  for (int iter = 0; iter < maxSettleIterations_; ++iter) {
    SettleContext::clearChanged();
    for (Module* m : tops_) m->evaluateAll();
    evaluateCalls_ += modules_.size();
    if (!SettleContext::changed()) return;
  }
  // No fixpoint.  One more pass, module by module, names every module still
  // changing wires.  A module that appears alone has a non-idempotent
  // evaluate() - typically a wire driven low and then raised within one
  // pass, which trips the change flag forever.
  std::string culprits;
  for (Module* m : modules_) {
    SettleContext::clearChanged();
    m->evaluateOne();
    if (SettleContext::changed())
      culprits += (culprits.empty() ? "" : ", ") + m->name();
  }
  evaluateCalls_ += modules_.size();
  throw std::runtime_error(
      "Simulator::settle: no combinational fixpoint after " +
      std::to_string(maxSettleIterations_) +
      " passes (combinational loop?); still changing: " + culprits);
}

void Simulator::releaseProgram() {
  if (!program_) return;
  program_->unbindWires();
  program_.reset();
}

void Simulator::ensureProgramBuilt() {
  if (program_ && !compiledStale_) return;
  // Unbind the previous program's wires first, so each wire's cached value
  // is current when the new arena imports it.
  releaseProgram();
  program_ = CompiledProgram::build(tops_);
  compiledStale_ = false;
}

void Simulator::settleCompiled() {
  ensureProgramBuilt();
  // Pokes are already reflected in the arena (wires write through); the
  // tape re-derives everything else.
  evaluateCalls_ += program_->settle();
}

void Simulator::tick() {
  ensureCollected();
  if (kernel_ == Kernel::Compiled && program_ && !compiledStale_) {
    // The edge tape replays clockEdgeAll() in preorder with fused edge ops
    // where modules lowered their edges.  A stale or missing program (tick
    // before any settle, or right after add()) falls through to the
    // behavioural walk, which is always exact.
    program_->edge();
  } else {
    for (Module* m : tops_) m->clockEdgeAll();
  }
  ++cycle_;
  for (const auto& listener : tickListeners_) listener();
}

void Simulator::step() {
  settle();
  tick();
}

void Simulator::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) step();
}

bool Simulator::runUntil(const std::function<bool()>& pred,
                         std::uint64_t maxCycles) {
  for (std::uint64_t i = 0; i < maxCycles; ++i) {
    settle();
    if (pred()) return true;
    tick();
  }
  // Leave the network settled for post-mortem observation, but do not
  // check the predicate again: it is evaluated exactly maxCycles times.
  settle();
  return false;
}

}  // namespace rasoc::sim
