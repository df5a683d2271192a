// Ideal-crossbar reference: an upper bound on interconnect performance.
//
// Every source can talk to every destination through a non-blocking
// crossbar with zero switch latency; the only contention is at the
// endpoints (one packet sent per source and one received per destination
// at a time, one flit per cycle).  No real interconnect beats this, so the
// mesh benches report it as the headroom line.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/module.hpp"
#include "sim/rng.hpp"

#include "noc/stats.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"

namespace rasoc::baseline {

class IdealCrossbar : public sim::Module {
 public:
  IdealCrossbar(std::string name, noc::MeshShape shape);

  void send(noc::NodeId src, noc::NodeId dst, int flits);
  void attachTraffic(const noc::TrafficConfig& traffic);

  noc::DeliveryLedger& ledger() { return ledger_; }
  std::uint64_t cycle() const { return cycle_; }
  bool idle() const;

 protected:
  void onReset() override;
  void clockEdge() override;

 private:
  struct Transaction {
    noc::NodeId src;
    noc::NodeId dst;
    int flits = 0;
    int sent = 0;
    bool started = false;
  };

  void generateTraffic();

  noc::MeshTopology topology_;
  noc::DeliveryLedger ledger_;
  std::vector<std::deque<Transaction>> queues_;  // per source
  std::vector<int> dstBusyUntilFlits_;           // flits left at each sink

  bool trafficAttached_ = false;
  noc::TrafficConfig traffic_;
  std::vector<sim::Xoshiro256> rngs_;
  double packetProbability_ = 0.0;

  std::uint64_t cycle_ = 0;
};

}  // namespace rasoc::baseline
