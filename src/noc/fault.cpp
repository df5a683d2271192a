#include "noc/fault.hpp"

#include <stdexcept>

#include "sim/rng.hpp"

namespace rasoc::noc {

namespace {

std::string linkName(const LinkId& link) {
  return "link(" + std::to_string(link.from.x) + "," +
         std::to_string(link.from.y) + ")" +
         std::string(router::name(link.port));
}

}  // namespace

std::string_view name(FaultKind kind) {
  switch (kind) {
    case FaultKind::Corrupt:
      return "corrupt";
    case FaultKind::StuckAck:
      return "stuck_ack";
    case FaultKind::LinkDown:
      return "link_down";
  }
  return "?";
}

std::string describe(const FaultEvent& event) {
  std::string out = std::string(name(event.kind)) + " " +
                    linkName(event.link) + " [" +
                    std::to_string(event.start) + "," +
                    std::to_string(event.start + event.duration) + ")";
  if (event.kind == FaultKind::Corrupt)
    out += " rate=" + std::to_string(event.rate);
  return out;
}

bool FaultPlan::touches(const LinkId& link) const {
  for (const FaultEvent& e : events)
    if (e.link == link) return true;
  return false;
}

std::vector<router::FaultWindow> FaultPlan::windowsFor(
    const LinkId& link) const {
  std::vector<router::FaultWindow> windows;
  for (const FaultEvent& e : events) {
    if (!(e.link == link)) continue;
    router::FaultWindow w;
    switch (e.kind) {
      case FaultKind::Corrupt:
        w.kind = router::FaultWindow::Kind::Corrupt;
        break;
      case FaultKind::StuckAck:
        w.kind = router::FaultWindow::Kind::StuckAck;
        break;
      case FaultKind::LinkDown:
        w.kind = router::FaultWindow::Kind::LinkDown;
        break;
    }
    w.start = e.start;
    w.duration = e.duration;
    w.rate = e.rate;
    windows.push_back(w);
  }
  return windows;
}

std::size_t FaultPlan::count(FaultKind kind) const {
  std::size_t n = 0;
  for (const FaultEvent& e : events)
    if (e.kind == kind) ++n;
  return n;
}

void FaultPlan::validate(const Topology& topology) const {
  for (const FaultEvent& e : events) {
    if (!topology.contains(e.link.from))
      throw std::invalid_argument("fault plan: " + describe(e) +
                                  " names a node outside the topology");
    if (e.link.port == router::Port::Local ||
        !topology.neighbor(e.link.from, e.link.port))
      throw std::invalid_argument("fault plan: " + describe(e) +
                                  " names a link the topology lacks");
    if (e.duration == 0)
      throw std::invalid_argument("fault plan: " + describe(e) +
                                  " has zero duration");
    if (!(e.rate >= 0.0 && e.rate <= 1.0))
      throw std::invalid_argument("fault plan: " + describe(e) +
                                  " rate outside [0,1]");
  }
}

std::vector<LinkId> allLinks(const Topology& topology) {
  std::vector<LinkId> links;
  for (int i = 0; i < topology.nodes(); ++i) {
    const NodeId from = topology.nodeAt(i);
    for (router::Port port : router::kAllPorts) {
      if (port == router::Port::Local) continue;
      if (topology.neighbor(from, port)) links.push_back({from, port});
    }
  }
  return links;
}

FaultPlan makeFaultPlan(const Topology& topology,
                        const CampaignConfig& config) {
  if (!(config.corruptRate >= 0.0 && config.corruptRate <= 1.0))
    throw std::invalid_argument("campaign: corruptRate outside [0,1]");
  if (!(config.corruptLinkFraction >= 0.0 &&
        config.corruptLinkFraction <= 1.0))
    throw std::invalid_argument(
        "campaign: corruptLinkFraction outside [0,1]");
  if (config.stallEvents < 0 || config.dropEvents < 0)
    throw std::invalid_argument("campaign: negative event count");
  if (config.minDuration == 0 || config.maxDuration < config.minDuration)
    throw std::invalid_argument("campaign: bad duration bounds");
  if (config.horizon == 0)
    throw std::invalid_argument("campaign: zero horizon");

  const std::vector<LinkId> links = allLinks(topology);
  FaultPlan plan;
  sim::Xoshiro256 rng(config.seed);

  if (config.corruptRate > 0.0) {
    for (const LinkId& link : links) {
      if (!rng.chance(config.corruptLinkFraction)) continue;
      plan.events.push_back(
          {link, FaultKind::Corrupt, 0, config.horizon, config.corruptRate});
    }
  }

  const auto scatter = [&](FaultKind kind, int count) {
    for (int i = 0; i < count && !links.empty(); ++i) {
      const LinkId& link =
          links[static_cast<std::size_t>(rng.below(links.size()))];
      const std::uint64_t duration =
          config.minDuration +
          rng.below(config.maxDuration - config.minDuration + 1);
      const std::uint64_t span =
          config.horizon > duration ? config.horizon - duration : 1;
      plan.events.push_back({link, kind, rng.below(span), duration, 1.0});
    }
  };
  scatter(FaultKind::StuckAck, config.stallEvents);
  scatter(FaultKind::LinkDown, config.dropEvents);
  return plan;
}

}  // namespace rasoc::noc
