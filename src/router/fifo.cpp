#include "router/fifo.hpp"

namespace rasoc::router {

InputBuffer::InputBuffer(std::string name, const RouterParams& params,
                         const FlitWires& din, const sim::Wire<bool>& wr,
                         const sim::Wire<bool>& rd, FlitWires& dout,
                         sim::Wire<bool>& wok, sim::Wire<bool>& rok)
    : Module(std::move(name)),
      mask_(dataMask(params.n)),
      depth_(params.p),
      din_(&din),
      wr_(&wr),
      rd_(&rd),
      dout_(&dout),
      wok_(&wok),
      rok_(&rok) {}

std::unique_ptr<InputBuffer> InputBuffer::create(
    std::string name, const RouterParams& params, const FlitWires& din,
    const sim::Wire<bool>& wr, const sim::Wire<bool>& rd, FlitWires& dout,
    sim::Wire<bool>& wok, sim::Wire<bool>& rok) {
  if (params.fifoImpl == FifoImpl::FlipFlop) {
    return std::make_unique<FfFifo>(std::move(name), params, din, wr, rd,
                                    dout, wok, rok);
  }
  return std::make_unique<EabFifo>(std::move(name), params, din, wr, rd,
                                   dout, wok, rok);
}

// --- FfFifo -----------------------------------------------------------

void FfFifo::onReset() {
  stages_.assign(static_cast<std::size_t>(depth_), Flit{});
  count_ = 0;
}

Flit FfFifo::head() const {
  return stages_[static_cast<std::size_t>(count_ - 1)];
}

void FfFifo::commit(const Flit* write, bool read) {
  if (write != nullptr) {
    // Shift toward the head; stage 0 takes the incoming flit.
    for (int i = depth_ - 1; i > 0; --i)
      stages_[static_cast<std::size_t>(i)] =
          stages_[static_cast<std::size_t>(i - 1)];
    stages_[0] = *write;
    ++count_;
  }
  if (read) --count_;
}

// --- EabFifo ----------------------------------------------------------

void EabFifo::onReset() {
  mem_.assign(static_cast<std::size_t>(depth_), Flit{});
  rptr_ = 0;
  wptr_ = 0;
  count_ = 0;
}

Flit EabFifo::head() const { return mem_[static_cast<std::size_t>(rptr_)]; }

void EabFifo::commit(const Flit* write, bool read) {
  if (write != nullptr) {
    mem_[static_cast<std::size_t>(wptr_)] = *write;
    wptr_ = (wptr_ + 1) % depth_;
    ++count_;
  }
  if (read) {
    rptr_ = (rptr_ + 1) % depth_;
    --count_;
  }
}

}  // namespace rasoc::router
