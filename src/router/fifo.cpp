#include "router/fifo.hpp"

namespace rasoc::router {

InputBuffer::InputBuffer(std::string name, const RouterParams& params,
                         const FlitWires& din, const sim::Wire<bool>& wr,
                         const sim::Wire<bool>& rd, FlitWires& dout,
                         sim::Wire<bool>& wok, sim::Wire<bool>& rok)
    : Module(std::move(name)),
      mask_(dataMask(params.n)),
      ring_(1, params.p),
      din_(&din),
      wr_(&wr),
      rd_(&rd),
      dout_(&dout),
      wok_(&wok),
      rok_(&rok) {}

}  // namespace rasoc::router
