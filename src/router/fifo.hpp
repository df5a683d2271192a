// IB - Input Buffer (paper Figure 5): a p-deep, (n+2)-bit-wide FIFO.
//
// Two microarchitectures are modelled, matching the paper's Section 3:
//
//  * FfFifo  - "p-deep, (n+2)-wide shift registers with an output
//    multiplexer to select the FIFO head" (Figure 9).  Data always enters
//    at stage 0 and older flits sit at higher stages; a head counter drives
//    the output mux.
//  * EabFifo - ring buffer mapped onto Altera Embedded Array Blocks;
//    read/write pointers plus an occupancy counter, data bits in RAM.
//
// Both implement the same FIFO contract (and a property test asserts their
// behavioural equivalence): wok = not full, rok = not empty, dout = oldest
// flit, synchronous write on wr, synchronous read on rd, simultaneous
// read+write supported at any occupancy in (0, p].
//
// The EAB read is modelled flow-through (the head flit is visible
// combinationally); the extra EAB access delay shows up in the timing
// model (tech::fifoReadLevels), not as a protocol difference.
#pragma once

#include <memory>
#include <vector>

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/channel.hpp"
#include "router/flit.hpp"
#include "router/params.hpp"

namespace rasoc::router {

class InputBuffer : public sim::Module {
 public:
  InputBuffer(std::string name, const RouterParams& params,
              const FlitWires& din, const sim::Wire<bool>& wr,
              const sim::Wire<bool>& rd, FlitWires& dout,
              sim::Wire<bool>& wok, sim::Wire<bool>& rok);

  ~InputBuffer() override = default;

  int occupancy() const { return count_; }
  int depth() const { return depth_; }
  bool full() const { return count_ >= depth_; }
  bool empty() const { return count_ == 0; }

  // Sticky flag: a write arrived while the buffer was full (protocol
  // violation under credit-based flow control; impossible under handshake).
  bool overflowDetected() const { return overflow_; }

  // The combinational body and the clock edge, written over a signal
  // accessor: WireIo below (evaluate() / clockEdge()) or the input
  // channel's arena accessor (its compiled ops).
  template <class Io>
  void publish(const Io& io) const {
    io.putWok(!full());
    io.putRok(!empty());
    io.putDout(empty() ? Flit{} : head());
  }

  // A simultaneous read frees the slot the write needs, so write-while-full
  // is legal exactly when a read drains this edge (as on real FIFOs).
  template <class Io>
  void edge(const Io& io) {
    const bool wr = io.wr();
    const bool doRead = io.rd() && !empty();
    const bool doWrite = wr && (!full() || doRead);
    if (wr && full() && !doRead) overflow_ = true;
    Flit incoming;
    if (doWrite) {
      incoming = io.inFlit();
      incoming.data &= mask_;
    }
    commit(doWrite ? &incoming : nullptr, doRead);
  }

  // Builds the implementation selected by params.fifoImpl.
  static std::unique_ptr<InputBuffer> create(
      std::string name, const RouterParams& params, const FlitWires& din,
      const sim::Wire<bool>& wr, const sim::Wire<bool>& rd, FlitWires& dout,
      sim::Wire<bool>& wok, sim::Wire<bool>& rok);

 protected:
  void evaluate() override { publish(WireIo{*this}); }
  void clockEdge() override { edge(WireIo{*this}); }

  // Oldest stored flit; only meaningful when !empty().
  virtual Flit head() const = 0;

  // Commits one edge: push `write` if engaged, pop the head if `read`.
  virtual void commit(const Flit* write, bool read) = 0;

  std::uint32_t mask_;
  int depth_;
  int count_ = 0;

 private:
  struct WireIo {
    const InputBuffer& b;
    bool wr() const { return b.wr_->get(); }
    bool rd() const { return b.rd_->get(); }
    Flit inFlit() const { return readFlit(*b.din_); }
    void putWok(bool v) const { b.wok_->set(v); }
    void putRok(bool v) const { b.rok_->set(v); }
    void putDout(const Flit& f) const { driveFlit(*b.dout_, f); }
  };

  const FlitWires* din_;
  const sim::Wire<bool>* wr_;
  const sim::Wire<bool>* rd_;
  FlitWires* dout_;
  sim::Wire<bool>* wok_;
  sim::Wire<bool>* rok_;
  bool overflow_ = false;
};

// Shift-register FIFO (Figure 9).
class FfFifo final : public InputBuffer {
 public:
  using InputBuffer::InputBuffer;

 protected:
  void onReset() override;
  Flit head() const override;
  void commit(const Flit* write, bool read) override;

 private:
  std::vector<Flit> stages_;  // stage 0 = newest
};

// Ring-buffer FIFO mapped onto embedded memory.
class EabFifo final : public InputBuffer {
 public:
  using InputBuffer::InputBuffer;

 protected:
  void onReset() override;
  Flit head() const override;
  void commit(const Flit* write, bool read) override;

 private:
  std::vector<Flit> mem_;
  int rptr_ = 0;
  int wptr_ = 0;
};

}  // namespace rasoc::router
