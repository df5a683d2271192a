#include "sim/module.hpp"

namespace rasoc::sim {

Module::Module(std::string name) : name_(std::move(name)) {}

void Module::resetAll() {
  onReset();
  for (Module* child : children_) child->resetAll();
}

void Module::evaluateAll() {
  evaluate();
  for (Module* child : children_) child->evaluateAll();
}

void Module::clockEdgeAll() {
  clockEdge();
  for (Module* child : children_) child->clockEdgeAll();
}

}  // namespace rasoc::sim
