#include "baseline/spin.hpp"

#include <algorithm>
#include <stdexcept>

namespace rasoc::baseline {

SpinFatTree::SpinFatTree(std::string name, int terminals)
    : Module(std::move(name)), terminals_(terminals) {
  if (terminals_ < 4 || terminals_ % 4 != 0 || terminals_ > 64)
    throw std::invalid_argument(
        "SPIN model supports 4..64 terminals in multiples of 4");
  groups_ = terminals_ / 4;
  roots_ = groups_;  // full-bisection 2-level fat tree
  upTerminal_.assign(static_cast<std::size_t>(terminals_), 0);
  downTerminal_.assign(static_cast<std::size_t>(terminals_), 0);
  upTree_.assign(static_cast<std::size_t>(groups_ * roots_), 0);
  downTree_.assign(static_cast<std::size_t>(groups_ * roots_), 0);
  queued_.assign(static_cast<std::size_t>(terminals_), 0);
}

void SpinFatTree::onReset() {
  std::fill(upTerminal_.begin(), upTerminal_.end(), 0);
  std::fill(downTerminal_.begin(), downTerminal_.end(), 0);
  std::fill(upTree_.begin(), upTree_.end(), 0);
  std::fill(downTree_.begin(), downTree_.end(), 0);
  std::fill(queued_.begin(), queued_.end(), 0);
  while (!scheduled_.empty()) scheduled_.pop();
  cycle_ = 0;
  for (std::size_t i = 0; i < rngs_.size(); ++i)
    rngs_[i] = sim::Xoshiro256(traffic_.seed * 7919 + i + 1);
}

std::uint64_t SpinFatTree::reserve(std::vector<std::uint64_t>& calendar,
                                   int index, std::uint64_t earliest,
                                   int flits) {
  auto& busyUntil = calendar[static_cast<std::size_t>(index)];
  const std::uint64_t start = std::max(earliest, busyUntil);
  busyUntil = start + static_cast<std::uint64_t>(flits);
  return start;
}

void SpinFatTree::send(int src, int dst, int flits) {
  if (src < 0 || src >= terminals_ || dst < 0 || dst >= terminals_)
    throw std::invalid_argument("terminal out of range");
  if (src == dst) throw std::invalid_argument("self-addressed transfer");
  if (flits < 1) throw std::invalid_argument("empty transfer");

  noc::PacketRecord record;
  record.src = nodeOf(src);
  record.dst = nodeOf(dst);
  record.createdCycle = cycle_;
  record.flits = flits;
  ledger_.onQueued(record);

  // Cut-through schedule across the path's links.
  std::uint64_t start =
      reserve(upTerminal_, src, cycle_ + 1, flits);  // inject next cycle
  const std::uint64_t injected = start;
  const int srcGroup = groupOf(src);
  const int dstGroup = groupOf(dst);
  if (srcGroup != dstGroup) {
    // Adaptive up-routing: pick the least-loaded root.
    int bestRoot = 0;
    std::uint64_t bestBusy = ~0ull;
    for (int r = 0; r < roots_; ++r) {
      const std::uint64_t busy =
          upTree_[static_cast<std::size_t>(srcGroup * roots_ + r)];
      if (busy < bestBusy) {
        bestBusy = busy;
        bestRoot = r;
      }
    }
    start = reserve(upTree_, srcGroup * roots_ + bestRoot, start + 1, flits);
    start =
        reserve(downTree_, bestRoot * groups_ + dstGroup, start + 1, flits);
  }
  start = reserve(downTerminal_, dst, start + 1, flits);

  ledger_.onHeaderInjected(nodeOf(src), nodeOf(dst), injected);
  scheduled_.push(Delivery{start + static_cast<std::uint64_t>(flits), src,
                           dst});
  ++queued_[static_cast<std::size_t>(src)];
}

void SpinFatTree::attachTraffic(const noc::TrafficConfig& traffic,
                                noc::MeshShape logicalShape) {
  if (trafficAttached_) throw std::logic_error("traffic already attached");
  if (logicalShape.nodes() != terminals_)
    throw std::invalid_argument("logical shape must match terminal count");
  const noc::MeshTopology logical(logicalShape);
  noc::validateTraffic(traffic, logical);
  trafficAttached_ = true;
  traffic_ = traffic;
  logical_ = logical;
  packetProbability_ =
      traffic.offeredLoad / static_cast<double>(traffic.packetFlits());
  rngs_.clear();
  for (int i = 0; i < terminals_; ++i)
    rngs_.emplace_back(traffic.seed * 7919 + static_cast<std::uint64_t>(i) +
                       1);
}

void SpinFatTree::generateTraffic() {
  if (!trafficAttached_) return;
  for (int i = 0; i < terminals_; ++i) {
    auto& rng = rngs_[static_cast<std::size_t>(i)];
    if (!rng.chance(packetProbability_)) continue;
    if (queued_[static_cast<std::size_t>(i)] >= traffic_.maxQueuedPackets)
      continue;
    const noc::NodeId src = nodeOf(i);
    const noc::NodeId dst = noc::destinationFor(traffic_.pattern, src,
                                                logical_, rng, traffic_);
    if (dst == src) continue;
    send(i, logical_.indexOf(dst), traffic_.packetFlits());
  }
}

void SpinFatTree::clockEdge() {
  generateTraffic();
  while (!scheduled_.empty() && scheduled_.top().cycle <= cycle_) {
    const Delivery d = scheduled_.top();
    scheduled_.pop();
    ledger_.onDelivered(nodeOf(d.src), nodeOf(d.dst), cycle_);
    --queued_[static_cast<std::size_t>(d.src)];
  }
  ++cycle_;
}

}  // namespace rasoc::baseline
