/// \file
/// Progress watchdog: detects global stalls (deadlock/livelock symptoms).
///
/// XY routing on a mesh is provably deadlock-free, so a healthy RASoC NoC
/// must keep delivering packets whenever any are in flight.  The watchdog
/// observes the delivery ledger each cycle and raises a sticky flag if no
/// packet completes for `timeout` consecutive cycles while at least one is
/// outstanding — the invariant saturation tests assert.
///
/// Beyond the sticky flag it captures a diagnostic snapshot for run
/// reports: the cycle of the last observed delivery, the cycle the stall
/// flag was raised, how many packets were in flight at that moment, and —
/// when a diagnostics callback is supplied — the names of the links
/// blocked at that instant (wire Network::blockedLinkNames in), so a
/// fault-campaign hang names the wedged link instead of just the cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/compile.hpp"
#include "sim/module.hpp"

#include "noc/stats.hpp"

namespace rasoc::noc {

struct WatchdogSnapshot {
  bool stalled = false;
  std::uint64_t longestStall = 0;
  /// Watchdog-local cycle of the last delivery it observed (0 when none).
  std::uint64_t lastDeliveryCycle = 0;
  /// State captured when the stall flag was first raised; zero until then.
  std::uint64_t stallCycle = 0;
  std::uint64_t inFlightAtStall = 0;
  /// Links offering a flit nobody accepted, at the stall instant (empty
  /// without a diagnostics callback).
  std::vector<std::string> blockedLinks;
  /// With a trace-dump callback: for each blocked link, the last few flit
  /// lifecycle events that touched it, rendered one per line (wire
  /// Network::blockedLinkTraceDump in).  Shows *what* each wedged link was
  /// doing when the network stopped, not just its name.
  std::vector<std::string> recentEvents;
};

class Watchdog : public sim::Module {
 public:
  /// Invoked once, at the cycle the stall flag rises, to capture what is
  /// blocked; e.g. `[&net] { return net.blockedLinkNames(); }`.
  using Diagnostics = std::function<std::vector<std::string>()>;

  /// Invoked once alongside Diagnostics to capture the trace history of the
  /// blocked links; e.g. `[&net] { return net.blockedLinkTraceDump(); }`.
  using TraceDump = std::function<std::vector<std::string>()>;

  Watchdog(std::string name, const DeliveryLedger& ledger,
           std::uint64_t timeout, Diagnostics diagnostics = {},
           TraceDump traceDump = {})
      : Module(std::move(name)),
        ledger_(&ledger),
        timeout_(timeout),
        diagnostics_(std::move(diagnostics)),
        traceDump_(std::move(traceDump)) {}

  bool stallDetected() const { return snapshot_.stalled; }
  std::uint64_t longestStall() const { return snapshot_.longestStall; }
  const WatchdogSnapshot& snapshot() const { return snapshot_; }

  // Lowering: purely sequential (no evaluate()), so the
  // module contributes only its clockEdge() to the edge tape.
  bool describe(sim::Lowering& lw) override {
    lw.edgeCall(*this);
    return true;
  }

 protected:
  void onReset() override {
    lastDelivered_ = 0;
    idleCycles_ = 0;
    cycle_ = 0;
    snapshot_ = {};
  }

  void clockEdge() override {
    ++cycle_;
    const std::uint64_t delivered = ledger_->delivered();
    if (delivered != lastDelivered_ || ledger_->inFlight() == 0) {
      if (delivered != lastDelivered_) snapshot_.lastDeliveryCycle = cycle_;
      lastDelivered_ = delivered;
      idleCycles_ = 0;
      return;
    }
    ++idleCycles_;
    if (idleCycles_ > snapshot_.longestStall)
      snapshot_.longestStall = idleCycles_;
    if (idleCycles_ >= timeout_ && !snapshot_.stalled) {
      snapshot_.stalled = true;
      snapshot_.stallCycle = cycle_;
      snapshot_.inFlightAtStall = ledger_->inFlight();
      if (diagnostics_) snapshot_.blockedLinks = diagnostics_();
      if (traceDump_) snapshot_.recentEvents = traceDump_();
    }
  }

 private:
  const DeliveryLedger* ledger_;
  std::uint64_t timeout_;
  Diagnostics diagnostics_;
  TraceDump traceDump_;
  std::uint64_t lastDelivered_ = 0;
  std::uint64_t idleCycles_ = 0;
  std::uint64_t cycle_ = 0;
  WatchdogSnapshot snapshot_;
};

}  // namespace rasoc::noc
