#include "sim/module.hpp"

namespace rasoc::sim {

Module::Module(std::string name) : name_(std::move(name)) {}

void Module::resetAll() {
  onReset();
  for (Module* child : children_) child->resetAll();
}

}  // namespace rasoc::sim
