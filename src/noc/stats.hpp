// Measurement support: latency distributions and the delivery ledger that
// matches injected packets to delivered ones.
//
// Packets carry only n-bit payload words, so the simulator keeps timestamps
// out of band: each source NI registers a packet with the ledger when it is
// queued, stamps it when the header enters the network, and the destination
// NI closes it when the trailer arrives.  Deterministic XY routing +
// wormhole switching deliver each (src, dst) flow in FIFO order, so the
// front of the per-flow queue is always the packet being closed.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "noc/topology.hpp"
#include "router/params.hpp"

namespace rasoc::noc {

class LatencyStats {
 public:
  void record(double sample);

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  // Nearest-rank on the sorted samples, 0 on an empty set.  A q outside
  // [0,1], NaN included, throws std::invalid_argument, empty set or not.
  double percentile(double q) const;

  const std::vector<double>& samples() const { return samples_; }

  // Text histogram: `bins` equal-width buckets between min and max, one
  // line each, bar lengths normalized to `barWidth` characters.
  std::string histogram(int bins = 10, int barWidth = 40) const;

 private:
  // Sorted view maintained incrementally: only samples recorded since the
  // last percentile() call are sorted and merged in, so interleaving
  // record() and percentile() costs O(new log new + n) per query instead of
  // re-sorting the whole vector.
  mutable std::vector<double> sorted_;
  mutable std::size_t sortedCount_ = 0;  // samples_ prefix already merged

  std::vector<double> samples_;
};

struct PacketRecord {
  NodeId src;
  NodeId dst;
  std::uint64_t createdCycle = 0;    // queued at the source NI
  std::uint64_t injectedCycle = 0;   // header flit entered the router
  bool injected = false;
  int flits = 0;                     // total flits including header
  // QoS traffic class the packet was tagged with, or -1 on non-QoS
  // networks.  Part of the flow key: priority scheduling deliberately
  // reorders classes within one (src, dst) pair, so only packets of one
  // class form a FIFO flow.
  int trafficClass = -1;
};

class DeliveryLedger {
 public:
  // Latency samples are only recorded for packets created at or after this
  // cycle (warm-up exclusion).
  void setWarmupCycles(std::uint64_t cycles) { warmup_ = cycles; }

  void onQueued(PacketRecord record);
  // `trafficClass` selects the flow (pass the record's value; -1 = untagged).
  void onHeaderInjected(NodeId src, NodeId dst, std::uint64_t cycle,
                        int trafficClass = -1);
  // Returns the closed record; throws if no packet of that flow is open.
  PacketRecord onDelivered(NodeId src, NodeId dst, std::uint64_t cycle,
                           int trafficClass = -1);
  // Non-throwing variant for receivers whose source attribution may be
  // corrupted (fault injection): returns false if no such flow is open.
  bool tryDeliver(NodeId src, NodeId dst, std::uint64_t cycle,
                  int trafficClass = -1);

  std::uint64_t queued() const { return queuedCount_; }
  std::uint64_t delivered() const { return deliveredCount_; }
  std::uint64_t flitsDelivered() const { return flitsDelivered_; }
  std::uint64_t inFlight() const { return queuedCount_ - deliveredCount_; }

  // End-to-end: creation to trailer delivery (includes source queueing).
  const LatencyStats& packetLatency() const { return packetLatency_; }
  // Network-only: header injection to trailer delivery.
  const LatencyStats& networkLatency() const { return networkLatency_; }

  // Per-class views (QoS networks; empty/zero for classes never tagged).
  const LatencyStats& packetLatency(router::TrafficClass cls) const {
    return classPacketLatency_[static_cast<std::size_t>(cls)];
  }
  const LatencyStats& networkLatency(router::TrafficClass cls) const {
    return classNetworkLatency_[static_cast<std::size_t>(cls)];
  }
  std::uint64_t delivered(router::TrafficClass cls) const {
    return classDelivered_[static_cast<std::size_t>(cls)];
  }
  std::uint64_t queued(router::TrafficClass cls) const {
    return classQueued_[static_cast<std::size_t>(cls)];
  }

  // Delivered flits per cycle per node over the measured window.
  double throughputFlitsPerCyclePerNode(std::uint64_t cycles,
                                        int nodes) const;

 private:
  // Flow keys are raw endpoint coordinates (so the ledger works for any
  // topology's node space without knowing its extent) plus the traffic
  // class (-1 when untagged).
  using FlowKey = std::tuple<int, int, int, int, int>;
  static FlowKey flowKey(NodeId src, NodeId dst, int trafficClass) {
    return {src.x, src.y, dst.x, dst.y, trafficClass};
  }
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const {
      std::uint64_t h = 0;
      for (const int v : {std::get<0>(k), std::get<1>(k), std::get<2>(k),
                          std::get<3>(k), std::get<4>(k)})
        h = (h ^ static_cast<std::uint32_t>(v)) * 0x9e3779b97f4a7c15ull;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  // Only ever looked up by key, never iterated, so hash order is harmless.
  std::unordered_map<FlowKey, std::deque<PacketRecord>, FlowKeyHash> flows_;
  LatencyStats packetLatency_;
  LatencyStats networkLatency_;
  std::array<LatencyStats, router::kNumTrafficClasses> classPacketLatency_;
  std::array<LatencyStats, router::kNumTrafficClasses> classNetworkLatency_;
  std::array<std::uint64_t, router::kNumTrafficClasses> classDelivered_{};
  std::array<std::uint64_t, router::kNumTrafficClasses> classQueued_{};
  std::uint64_t warmup_ = 0;
  std::uint64_t queuedCount_ = 0;
  std::uint64_t deliveredCount_ = 0;
  std::uint64_t flitsDelivered_ = 0;
  std::uint64_t flitsDeliveredAfterWarmup_ = 0;
};

}  // namespace rasoc::noc
