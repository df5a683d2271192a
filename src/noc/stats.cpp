#include "noc/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace rasoc::noc {

void LatencyStats::record(double sample) { samples_.push_back(sample); }

double LatencyStats::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double LatencyStats::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double LatencyStats::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double LatencyStats::percentile(double q) const {
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("percentile q in [0,1]");
  if (samples_.empty()) return 0.0;
  if (sortedCount_ < samples_.size()) {
    const auto mergedEnd =
        static_cast<std::vector<double>::difference_type>(sorted_.size());
    sorted_.insert(sorted_.end(),
                   samples_.begin() +
                       static_cast<std::vector<double>::difference_type>(
                           sortedCount_),
                   samples_.end());
    std::sort(sorted_.begin() + mergedEnd, sorted_.end());
    std::inplace_merge(sorted_.begin(), sorted_.begin() + mergedEnd,
                       sorted_.end());
    sortedCount_ = samples_.size();
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())));
  return sorted_[rank == 0 ? 0 : rank - 1];
}

std::string LatencyStats::histogram(int bins, int barWidth) const {
  if (bins < 1 || barWidth < 1)
    throw std::invalid_argument("histogram needs >= 1 bin and bar width");
  std::ostringstream out;
  if (samples_.empty()) {
    out << "(no samples)\n";
    return out.str();
  }
  const double lo = min();
  const double hi = max();
  const double width = hi > lo ? (hi - lo) / bins : 1.0;
  std::vector<std::size_t> counts(static_cast<std::size_t>(bins), 0);
  for (double s : samples_) {
    auto bin = static_cast<std::size_t>((s - lo) / width);
    if (bin >= counts.size()) bin = counts.size() - 1;
    ++counts[bin];
  }
  const std::size_t peak = *std::max_element(counts.begin(), counts.end());
  for (int b = 0; b < bins; ++b) {
    const double binLo = lo + b * width;
    const double binHi = binLo + width;
    const std::size_t count = counts[static_cast<std::size_t>(b)];
    const auto bar = static_cast<std::size_t>(
        peak == 0 ? 0
                  : (count * static_cast<std::size_t>(barWidth)) / peak);
    char label[64];
    std::snprintf(label, sizeof label, "[%8.1f, %8.1f) %8zu ", binLo, binHi,
                  count);
    out << label << std::string(bar, '#') << '\n';
  }
  return out.str();
}

void DeliveryLedger::onQueued(PacketRecord record) {
  const FlowKey key = flowKey(record.src, record.dst, record.trafficClass);
  flows_[key].push_back(record);
  ++queuedCount_;
  if (record.trafficClass >= 0)
    ++classQueued_[static_cast<std::size_t>(record.trafficClass)];
}

void DeliveryLedger::onHeaderInjected(NodeId src, NodeId dst,
                                      std::uint64_t cycle,
                                      int trafficClass) {
  const FlowKey key = flowKey(src, dst, trafficClass);
  auto it = flows_.find(key);
  if (it == flows_.end() || it->second.empty())
    throw std::logic_error("header injected for an unknown flow");
  for (PacketRecord& record : it->second) {
    if (!record.injected) {
      record.injected = true;
      record.injectedCycle = cycle;
      return;
    }
  }
  throw std::logic_error("header injected but every packet already in flight");
}

PacketRecord DeliveryLedger::onDelivered(NodeId src, NodeId dst,
                                         std::uint64_t cycle,
                                         int trafficClass) {
  const FlowKey key = flowKey(src, dst, trafficClass);
  auto it = flows_.find(key);
  if (it == flows_.end() || it->second.empty())
    throw std::logic_error("delivery for a flow with no open packets");
  PacketRecord record = it->second.front();
  it->second.pop_front();
  if (!record.injected)
    throw std::logic_error("packet delivered before its header was injected");
  ++deliveredCount_;
  flitsDelivered_ += static_cast<std::uint64_t>(record.flits);
  if (record.trafficClass >= 0)
    ++classDelivered_[static_cast<std::size_t>(record.trafficClass)];
  if (record.createdCycle >= warmup_) {
    const auto packetLat = static_cast<double>(cycle - record.createdCycle);
    const auto networkLat = static_cast<double>(cycle - record.injectedCycle);
    packetLatency_.record(packetLat);
    networkLatency_.record(networkLat);
    if (record.trafficClass >= 0) {
      const auto cls = static_cast<std::size_t>(record.trafficClass);
      classPacketLatency_[cls].record(packetLat);
      classNetworkLatency_[cls].record(networkLat);
    }
    flitsDeliveredAfterWarmup_ += static_cast<std::uint64_t>(record.flits);
  }
  return record;
}

bool DeliveryLedger::tryDeliver(NodeId src, NodeId dst, std::uint64_t cycle,
                                int trafficClass) {
  const FlowKey key = flowKey(src, dst, trafficClass);
  auto it = flows_.find(key);
  if (it == flows_.end() || it->second.empty() ||
      !it->second.front().injected)
    return false;
  onDelivered(src, dst, cycle, trafficClass);
  return true;
}

double DeliveryLedger::throughputFlitsPerCyclePerNode(std::uint64_t cycles,
                                                      int nodes) const {
  if (cycles == 0 || nodes == 0) return 0.0;
  return static_cast<double>(flitsDeliveredAfterWarmup_) /
         static_cast<double>(cycles) / static_cast<double>(nodes);
}

}  // namespace rasoc::noc
