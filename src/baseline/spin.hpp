// SPIN-like fat-tree baseline.
//
// The paper's conclusion announces a performance comparison of RASoC-based
// NoCs "with the ones of SPIN [2] and PI-Bus [8]".  SPIN (Guerrier &
// Greiner, DATE 2000) is a 4-ary fat-tree of packet-switched routers:
// every level-1 router serves four terminals and reaches four level-2
// routers, giving full bisection bandwidth for 16 terminals.
//
// Model (transaction level, cycle resolution): each unidirectional link is
// a calendar resource carrying one flit per cycle.  A packet cuts through:
// on each successive link it starts one cycle after it started on the
// previous one, or when the link frees, whichever is later, and holds the
// link for `flits` cycles.  Up-route picks the least-loaded level-2 root
// (SPIN's adaptive up-routing).  Backpressure between links is not
// modelled (buffers are assumed deep enough), which makes this a slightly
// optimistic baseline - documented in DESIGN.md.
//
// Paths: within a level-1 group, terminal -> L1 -> terminal (one router,
// two links); across groups, terminal -> L1 -> L2 -> L1' -> terminal
// (three routers, four links).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/module.hpp"
#include "sim/rng.hpp"

#include "noc/stats.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"

namespace rasoc::baseline {

class SpinFatTree : public sim::Module {
 public:
  // `terminals` must be a multiple of 4 (4-ary level-1 routers), max 64.
  SpinFatTree(std::string name, int terminals);

  void send(int src, int dst, int flits);
  void attachTraffic(const noc::TrafficConfig& traffic,
                     noc::MeshShape logicalShape);

  noc::DeliveryLedger& ledger() { return ledger_; }
  std::uint64_t cycle() const { return cycle_; }
  int terminals() const { return terminals_; }
  bool idle() const { return scheduled_.empty(); }

 protected:
  void onReset() override;
  void clockEdge() override;

 private:
  struct Delivery {
    std::uint64_t cycle;
    int src;
    int dst;
    bool operator>(const Delivery& o) const { return cycle > o.cycle; }
  };

  // Link calendars.  Terminal links are indexed by terminal; L1<->L2 links
  // by (l1 * roots + l2).
  int groupOf(int terminal) const { return terminal / 4; }

  void generateTraffic();
  std::uint64_t reserve(std::vector<std::uint64_t>& calendar, int index,
                        std::uint64_t earliest, int flits);

  noc::NodeId nodeOf(int terminal) const {
    return logical_.nodeAt(terminal);
  }

  int terminals_;
  int groups_;
  int roots_;
  noc::DeliveryLedger ledger_;
  noc::MeshTopology logical_{4, 4};

  std::vector<std::uint64_t> upTerminal_;    // terminal -> L1
  std::vector<std::uint64_t> downTerminal_;  // L1 -> terminal
  std::vector<std::uint64_t> upTree_;        // L1 -> L2
  std::vector<std::uint64_t> downTree_;      // L2 -> L1

  std::priority_queue<Delivery, std::vector<Delivery>, std::greater<>>
      scheduled_;

  bool trafficAttached_ = false;
  noc::TrafficConfig traffic_;
  std::vector<sim::Xoshiro256> rngs_;
  double packetProbability_ = 0.0;
  std::vector<std::size_t> queued_;  // per-terminal in-flight cap

  std::uint64_t cycle_ = 0;
};

}  // namespace rasoc::baseline
