// PI-Bus-style shared bus baseline.
//
// The paper's conclusion announces a comparison of RASoC-based NoCs
// "with the ones of SPIN [2] and PI-Bus [8], by using the methodology
// applied in [9]".  This module provides the PI-Bus side: a single shared
// interconnect where one master at a time owns the bus, modelled at
// transaction level with cycle resolution:
//
//   * nodes share one n-bit data path; a packet occupies the bus for
//     (arbitration + address phase + one cycle per flit) cycles;
//   * round-robin arbitration among nodes with pending packets;
//   * the same traffic patterns, packet format accounting and latency
//     bookkeeping as the mesh, so load sweeps are directly comparable.
//
// The shared medium saturates at ~1 flit/cycle aggregate, while a W x H
// mesh scales with bisection bandwidth - the crossover the NoC literature
// (and the paper's motivation) predicts.
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

struct BusConfig {
  noc::MeshShape shape{4, 4};  // logical node grid (for traffic patterns)
  int arbitrationCycles = 1;   // grant decision
  int addressCycles = 1;       // PI-Bus address/select phase per transfer
};

class SharedBus : public sim::Module {
 public:
  SharedBus(std::string name, BusConfig config);

  // Queues a packet of `flits` link flits from src to dst.
  void send(noc::NodeId src, noc::NodeId dst, int flits);

  // Attaches Bernoulli traffic with the same config semantics as the mesh.
  void attachTraffic(const noc::TrafficConfig& traffic);

  noc::DeliveryLedger& ledger() { return ledger_; }
  std::uint64_t cycle() const { return cycle_; }
  bool idle() const;

  // Fraction of cycles the data path carried a flit.
  double busUtilization() const;

 protected:
  void onReset() override;
  void clockEdge() override;

 private:
  struct Transaction {
    noc::NodeId src;
    noc::NodeId dst;
    int flits = 0;
  };

  void generateTraffic();
  void arbitrate();

  BusConfig config_;
  noc::MeshTopology topology_;  // of config_.shape
  noc::DeliveryLedger ledger_;

  std::vector<std::deque<Transaction>> queues_;  // per master
  int rrPtr_ = 0;

  // Bus occupancy state.
  bool busy_ = false;
  Transaction current_;
  int remainingCycles_ = 0;   // cycles left in the current transaction
  int overheadCycles_ = 0;    // non-data cycles left (arb + address)

  // Traffic generation.
  bool trafficAttached_ = false;
  noc::TrafficConfig traffic_;
  std::vector<sim::Xoshiro256> rngs_;
  double packetProbability_ = 0.0;

  std::uint64_t cycle_ = 0;
  std::uint64_t dataCycles_ = 0;
};

}  // namespace rasoc::baseline
