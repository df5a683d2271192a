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

void Simulator::setKernel(Kernel kernel) {
  if (kernel_ == kernel) return;
  if (cycle_ != 0)
    throw std::logic_error(
        "Simulator::setKernel: kernel switch at cycle " +
        std::to_string(cycle_) +
        " would carry live state across a program's arena "
        "binding and its pointers into registered state; select the "
        "kernel before the first cycle, or reset() first");
  // Detach the wires from the old program's arena while they are
  // certainly alive; the new schedule's program is built lazily on the
  // first settle.
  releaseProgram();
  kernel_ = kernel;
  programStale_ = true;
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
  for (Module* m : tops_) m->resetAll();
  // Registered state just changed wholesale (FIFO backing stores may even
  // have reallocated), so a program's raw state pointers are stale:
  // rebuild on the next settle.
  programStale_ = true;
  settle();
}

void Simulator::settle() {
  SettleGuard guard;
  ensureProgramBuilt();
  // Pokes are already reflected in the arena (wires write through); the
  // program re-derives everything else.
  evaluateCalls_ += program_->settle(maxSettleIterations_);
}

void Simulator::releaseProgram() {
  if (!program_) return;
  program_->unbindWires();
  program_.reset();
}

void Simulator::ensureProgramBuilt() {
  if (program_ && !programStale_) return;
  // Unbind the previous program's wires first, so each wire's cached value
  // is current when the new arena imports it.
  releaseProgram();
  program_ = CompiledProgram::build(tops_, kernel_);
  programStale_ = false;
}

void Simulator::tick() {
  // The edge tape runs every module's clock edge in preorder, with fused
  // edge ops where modules lowered their edges.  A tick before any settle,
  // or right after add(), builds the program first.
  ensureProgramBuilt();
  program_->edge();
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
