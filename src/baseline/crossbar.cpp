#include "baseline/crossbar.hpp"

#include <stdexcept>

namespace rasoc::baseline {

using noc::NodeId;

IdealCrossbar::IdealCrossbar(std::string name, noc::MeshShape shape)
    : Module(std::move(name)), topology_(shape) {
  topology_.validate();
  queues_.resize(static_cast<std::size_t>(topology_.nodes()));
  dstBusyUntilFlits_.assign(static_cast<std::size_t>(topology_.nodes()), -1);
}

void IdealCrossbar::send(NodeId src, NodeId dst, int flits) {
  if (!topology_.contains(src) || !topology_.contains(dst))
    throw std::invalid_argument("node off the crossbar");
  if (src == dst) throw std::invalid_argument("self-addressed transfer");
  if (flits < 1) throw std::invalid_argument("empty transfer");

  noc::PacketRecord record;
  record.src = src;
  record.dst = dst;
  record.createdCycle = cycle_;
  record.flits = flits;
  ledger_.onQueued(record);
  queues_[static_cast<std::size_t>(topology_.indexOf(src))].push_back(
      Transaction{src, dst, flits, 0, false});
}

void IdealCrossbar::attachTraffic(const noc::TrafficConfig& traffic) {
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

bool IdealCrossbar::idle() const {
  for (const auto& q : queues_)
    if (!q.empty()) return false;
  return true;
}

void IdealCrossbar::onReset() {
  for (auto& q : queues_) q.clear();
  dstBusyUntilFlits_.assign(static_cast<std::size_t>(topology_.nodes()), -1);
  cycle_ = 0;
  for (std::size_t i = 0; i < rngs_.size(); ++i)
    rngs_[i] = sim::Xoshiro256(traffic_.seed * 7919 + i + 1);
}

void IdealCrossbar::generateTraffic() {
  if (!trafficAttached_) return;
  for (int i = 0; i < topology_.nodes(); ++i) {
    auto& rng = rngs_[static_cast<std::size_t>(i)];
    if (!rng.chance(packetProbability_)) continue;
    if (queues_[static_cast<std::size_t>(i)].size() >=
        traffic_.maxQueuedPackets)
      continue;
    const NodeId src = topology_.nodeAt(i);
    const NodeId dst =
        noc::destinationFor(traffic_.pattern, src, topology_, rng, traffic_);
    if (dst == src) continue;
    send(src, dst, traffic_.packetFlits());
  }
}

void IdealCrossbar::clockEdge() {
  generateTraffic();
  // Destination locks: -1 = free, otherwise the source index holding it.
  std::vector<int>& locks = dstBusyUntilFlits_;
  const int nodes = topology_.nodes();
  // Rotate the scan start for long-run fairness.
  const int start = static_cast<int>(cycle_ % static_cast<std::uint64_t>(
                                                  nodes == 0 ? 1 : nodes));
  for (int k = 0; k < nodes; ++k) {
    const int i = (start + k) % nodes;
    auto& queue = queues_[static_cast<std::size_t>(i)];
    if (queue.empty()) continue;
    Transaction& t = queue.front();
    const auto dstIdx = static_cast<std::size_t>(topology_.indexOf(t.dst));
    if (!t.started) {
      if (locks[dstIdx] != -1) continue;  // sink busy with another packet
      locks[dstIdx] = i;
      t.started = true;
      ledger_.onHeaderInjected(t.src, t.dst, cycle_);
    }
    ++t.sent;
    if (t.sent == t.flits) {
      ledger_.onDelivered(t.src, t.dst, cycle_);
      locks[dstIdx] = -1;
      queue.pop_front();
    }
  }
  ++cycle_;
}

}  // namespace rasoc::baseline
