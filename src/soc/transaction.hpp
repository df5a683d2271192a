// Transaction layer: memory-mapped request/response traffic over the NoC.
//
// The paper's introduction frames the NoC as the interconnect for
// "processing cores ... (i.e. scalar processors, DSPs, controllers,
// memories, and others)"; this layer provides those endpoints for
// platform-level simulation (the CASS-style core-based co-simulation the
// paper cites as its evaluation vehicle):
//
//   * MemoryTarget  - a memory core behind an NI: serves read/write
//     request packets after a fixed access latency and returns response
//     packets;
//   * Initiator     - a CPU/DMA-style core: issues a scripted stream of
//     reads and writes with bounded outstanding transactions, matches
//     responses by transaction id, checks read data against a shadow
//     model, and records round-trip latencies.
//
// Wire format (payload words after the NI's source-index flit):
//   request :  txnId, kind (0 = read, 1 = write), replyTo, addr, data
//   response:  txnId, kind | 2, replyTo(target), addr, data
// All fields are single n-bit words, so n >= 8 supports 256-word address
// spaces per target and 256 outstanding ids; n = 16 is typical.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "noc/ni.hpp"
#include "noc/stats.hpp"
#include "noc/topology.hpp"

namespace rasoc::soc {

enum class TxnKind : std::uint32_t {
  Read = 0,
  Write = 1,
  ReadResponse = 2,
  WriteResponse = 3,
};

struct TxnPacket {
  std::uint32_t txnId = 0;
  TxnKind kind = TxnKind::Read;
  std::uint32_t replyTo = 0;  // node index to answer to
  std::uint32_t addr = 0;
  std::uint32_t data = 0;

  std::vector<std::uint32_t> encode() const;
  static TxnPacket decode(const std::vector<std::uint32_t>& payload);
};

// A memory core served through the NoC.
class MemoryTarget : public sim::Module {
 public:
  MemoryTarget(std::string name, noc::NetworkInterface& ni,
               noc::MeshShape shape, int accessLatency, std::size_t words);

  std::uint64_t readsServed() const { return readsServed_; }
  std::uint64_t writesServed() const { return writesServed_; }
  std::uint32_t peek(std::uint32_t addr) const;

  // Compiled-kernel lowering: purely sequential (no evaluate()), so the
  // module contributes only its clockEdge() to the edge tape.
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;
  void clockEdge() override;

 private:
  struct Pending {
    std::uint64_t readyCycle;
    TxnPacket request;
  };

  noc::NetworkInterface* ni_;
  noc::MeshShape shape_;
  int accessLatency_;
  std::vector<std::uint32_t> mem_;
  std::size_t consumed_ = 0;  // packets taken from the NI's receive log
  std::deque<Pending> pending_;
  std::uint64_t cycle_ = 0;
  std::uint64_t readsServed_ = 0;
  std::uint64_t writesServed_ = 0;
};

// A scripted CPU/DMA-style initiator.
class Initiator : public sim::Module {
 public:
  struct Op {
    bool write = false;
    noc::NodeId target;
    std::uint32_t addr = 0;
    std::uint32_t data = 0;  // writes only
  };

  Initiator(std::string name, noc::NetworkInterface& ni,
            noc::MeshShape shape, noc::NodeId self, int maxOutstanding = 4);

  void queue(Op op) { script_.push_back(op); }

  bool done() const { return script_.empty() && outstanding_.empty(); }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t dataErrors() const { return dataErrors_; }
  const noc::LatencyStats& roundTrip() const { return roundTrip_; }

  // Compiled-kernel lowering: purely sequential (no evaluate()), so the
  // module contributes only its clockEdge() to the edge tape.
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;
  void clockEdge() override;

 private:
  struct Outstanding {
    Op op;
    std::uint64_t issuedCycle;
  };

  noc::NetworkInterface* ni_;
  noc::MeshShape shape_;
  noc::NodeId self_;
  int maxOutstanding_;
  std::deque<Op> script_;
  std::map<std::uint32_t, Outstanding> outstanding_;
  std::map<std::uint64_t, std::uint32_t> shadow_;  // (targetIdx, addr) -> data
  std::size_t consumed_ = 0;
  std::uint32_t nextTxnId_ = 1;
  std::uint64_t cycle_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dataErrors_ = 0;
  noc::LatencyStats roundTrip_;
};

}  // namespace rasoc::soc
