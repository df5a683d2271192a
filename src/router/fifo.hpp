// IB - Input Buffer (paper Figure 5): a p-deep, (n+2)-bit-wide FIFO.
//
// The paper gives the buffer two microarchitectures (Section 3): a shift
// register with an output multiplexer selecting the head (Figure 9), and a
// ring buffer mapped onto Altera Embedded Array Blocks.  They differ in
// cost, not in behaviour, so RouterParams::fifoImpl selects between them
// only in the cost model (softcore, tech, the VHDL writer).  The simulator
// has one FIFO storage for every buffer: FlitRings, fixed-depth rings of
// packed flit words (flit.hpp, flitBits), one ring per virtual channel.
// InputBuffer is the paper's block on one such ring; VcInputChannel keeps
// one ring per VC.
//
// The FIFO contract: wok = not full, rok = not empty, dout = oldest flit,
// synchronous write on wr, synchronous read on rd, simultaneous read+write
// supported at any occupancy in (0, p].  The read is modelled flow-through
// (the head flit is visible combinationally); the EAB's extra access delay
// shows up in the timing model (tech::fifoReadLevels), not as a protocol
// difference.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/channel.hpp"
#include "router/flit.hpp"
#include "router/params.hpp"

namespace rasoc::router {

/// Registered FIFO storage: one fixed-depth ring per virtual channel.
/// Flits are held as packed words (flit.hpp, flitBits), so a buffered flit
/// moves as one word; the compiled ops read the rings in place.
class FlitRings {
 public:
  FlitRings(int numVCs, int depth)
      : depth_(depth),
        slots_(static_cast<std::size_t>(numVCs) *
               static_cast<std::size_t>(depth)) {}

  int depth() const { return depth_; }
  int size(int v) const { return count_[static_cast<std::size_t>(v)]; }
  bool full(int v) const { return size(v) >= depth_; }
  /// Bit v set: VC v holds a flit / is full.
  unsigned occupied() const { return occupied_; }
  unsigned fullVcs() const { return full_; }
  /// Oldest flit of VC v; a stale slot (but readable) when size(v) == 0.
  std::uint64_t head(int v) const {
    return slots_[base(v) + static_cast<std::size_t>(
                                head_[static_cast<std::size_t>(v)])];
  }
  /// Appends a flit to VC v; the caller guarantees !full(v).
  void push(int v, std::uint64_t flit) {
    const auto vi = static_cast<std::size_t>(v);
    int tail = head_[vi] + count_[vi];
    if (tail >= depth_) tail -= depth_;
    slots_[base(v) + static_cast<std::size_t>(tail)] = flit;
    occupied_ |= 1u << v;
    if (++count_[vi] == depth_) full_ |= 1u << v;
  }
  /// Drops VC v's head; the caller guarantees size(v) > 0.
  void pop(int v) {
    const auto vi = static_cast<std::size_t>(v);
    if (++head_[vi] == depth_) head_[vi] = 0;
    full_ &= ~(1u << v);
    if (--count_[vi] == 0) occupied_ &= ~(1u << v);
  }
  void clear() {
    head_.fill(0);
    count_.fill(0);
    occupied_ = 0;
    full_ = 0;
  }

 private:
  std::size_t base(int v) const {
    return static_cast<std::size_t>(v) * static_cast<std::size_t>(depth_);
  }

  int depth_;
  std::array<int, kMaxVCs> head_{};
  std::array<int, kMaxVCs> count_{};
  unsigned occupied_ = 0;
  unsigned full_ = 0;
  std::vector<std::uint64_t> slots_;  // VC v's ring at [v * depth, +depth)
};

/// The paper's input buffer: one ring of depth p.
class InputBuffer final : public sim::Module {
 public:
  InputBuffer(std::string name, const RouterParams& params,
              const FlitWires& din, const sim::Wire<bool>& wr,
              const sim::Wire<bool>& rd, FlitWires& dout,
              sim::Wire<bool>& wok, sim::Wire<bool>& rok);

  int occupancy() const { return ring_.size(0); }
  int depth() const { return ring_.depth(); }
  bool full() const { return ring_.full(0); }
  bool empty() const { return ring_.occupied() == 0; }

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

 protected:
  void onReset() override {
    ring_.clear();
    overflow_ = false;
  }
  void evaluate() override { publish(WireIo{*this}); }
  void clockEdge() override { edge(WireIo{*this}); }

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

  // Oldest stored flit; only meaningful when !empty().
  Flit head() const { return bitsFlit(ring_.head(0)); }

  // Commits one edge: pop the head if `read`, then push `write` if
  // engaged (the pop frees the slot a write-while-full needs).
  void commit(const Flit* write, bool read) {
    if (read) ring_.pop(0);
    if (write != nullptr) ring_.push(0, flitBits(*write));
  }

  std::uint32_t mask_;
  FlitRings ring_;
  const FlitWires* din_;
  const sim::Wire<bool>* wr_;
  const sim::Wire<bool>* rd_;
  FlitWires* dout_;
  sim::Wire<bool>* wok_;
  sim::Wire<bool>* rok_;
  bool overflow_ = false;
};

}  // namespace rasoc::router
