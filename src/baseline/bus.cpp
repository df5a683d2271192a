#include "baseline/bus.hpp"

#include <stdexcept>

namespace rasoc::baseline {

using noc::NodeId;

SharedBus::SharedBus(std::string name, BusConfig config)
    : Module(std::move(name)), config_(config), topology_(config.shape) {
  topology_.validate();
  if (config_.arbitrationCycles < 0 || config_.addressCycles < 0)
    throw std::invalid_argument("overhead cycles must be >= 0");
  queues_.resize(static_cast<std::size_t>(topology_.nodes()));
}

void SharedBus::send(NodeId src, NodeId dst, int flits) {
  if (!topology_.contains(src) || !topology_.contains(dst))
    throw std::invalid_argument("node off the bus");
  if (src == dst) throw std::invalid_argument("self-addressed transfer");
  if (flits < 1) throw std::invalid_argument("empty transfer");

  noc::PacketRecord record;
  record.src = src;
  record.dst = dst;
  record.createdCycle = cycle_;
  record.flits = flits;
  ledger_.onQueued(record);
  queues_[static_cast<std::size_t>(topology_.indexOf(src))].push_back(
      Transaction{src, dst, flits});
}

void SharedBus::attachTraffic(const noc::TrafficConfig& traffic) {
  if (trafficAttached_) throw std::logic_error("traffic already attached");
  noc::validateTraffic(traffic, topology_);
  trafficAttached_ = true;
  traffic_ = traffic;
  packetProbability_ =
      traffic.offeredLoad / static_cast<double>(traffic.packetFlits());
  rngs_.clear();
  for (int i = 0; i < topology_.nodes(); ++i)
    rngs_.emplace_back(traffic.seed * 7919 + static_cast<std::uint64_t>(i) +
                       1);
}

bool SharedBus::idle() const {
  if (busy_) return false;
  for (const auto& q : queues_)
    if (!q.empty()) return false;
  return true;
}

double SharedBus::busUtilization() const {
  return cycle_ == 0 ? 0.0
                     : static_cast<double>(dataCycles_) /
                           static_cast<double>(cycle_);
}

void SharedBus::onReset() {
  for (auto& q : queues_) q.clear();
  rrPtr_ = 0;
  busy_ = false;
  remainingCycles_ = 0;
  overheadCycles_ = 0;
  cycle_ = 0;
  dataCycles_ = 0;
  for (std::size_t i = 0; i < rngs_.size(); ++i)
    rngs_[i] = sim::Xoshiro256(traffic_.seed * 7919 + i + 1);
}

void SharedBus::generateTraffic() {
  if (!trafficAttached_) return;
  for (int i = 0; i < topology_.nodes(); ++i) {
    auto& rng = rngs_[static_cast<std::size_t>(i)];
    if (!rng.chance(packetProbability_)) continue;
    if (queues_[static_cast<std::size_t>(i)].size() >=
        traffic_.maxQueuedPackets)
      continue;
    const NodeId src = topology_.nodeAt(i);
    const NodeId dst = noc::destinationFor(traffic_.pattern, src,
                                           topology_, rng, traffic_);
    if (dst == src) continue;
    send(src, dst, traffic_.packetFlits());
  }
}

void SharedBus::arbitrate() {
  const int nodes = topology_.nodes();
  for (int k = 1; k <= nodes; ++k) {
    const int i = (rrPtr_ + k) % nodes;
    auto& queue = queues_[static_cast<std::size_t>(i)];
    if (queue.empty()) continue;
    current_ = queue.front();
    queue.pop_front();
    busy_ = true;
    overheadCycles_ = config_.arbitrationCycles + config_.addressCycles;
    remainingCycles_ = current_.flits;
    rrPtr_ = i;
    if (overheadCycles_ == 0)
      ledger_.onHeaderInjected(current_.src, current_.dst, cycle_);
    return;
  }
}

void SharedBus::clockEdge() {
  generateTraffic();
  if (busy_) {
    if (overheadCycles_ > 0) {
      --overheadCycles_;
      if (overheadCycles_ == 0)
        ledger_.onHeaderInjected(current_.src, current_.dst, cycle_);
    } else {
      ++dataCycles_;
      --remainingCycles_;
      if (remainingCycles_ == 0) {
        ledger_.onDelivered(current_.src, current_.dst, cycle_);
        busy_ = false;
      }
    }
  }
  if (!busy_) arbitrate();
  ++cycle_;
}

}  // namespace rasoc::baseline
