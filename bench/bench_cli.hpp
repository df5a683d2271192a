// Command line shared by the sweep benches (bench_noc_loadsweep,
// bench_noc_faultsweep): the flags, their checks and error messages, the
// 16-node topology and kernel they select, the QoS flow builder, the
// table number format, and the Perfetto export.
//
//   --topology=mesh|torus|ring   16 nodes each (4x4 grid, or a ring of 16)
//   --kernel=naive|compiled      settle kernel (default compiled)
//   --vcs=1|2|4                  virtual channels per port (default 1)
//   --qos                        the bench's QoS experiment, at 4 VCs
//   --trace=<path>               flit-trace one run, write Perfetto JSON
//   --trace-sample=K             keep every K-th flow in the trace (K >= 1)
//   <path>                       the RunReport JSON artifact
//
// Numeric flags must be whole numbers with nothing after them, and any
// other `--` argument is rejected by name, so a typo fails instead of
// becoming the artifact path.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "noc/network.hpp"
#include "telemetry/trace_event.hpp"

namespace rasoc::bench {

struct SweepCli {
  std::string topology = "mesh";
  std::string kernel = "compiled";
  int vcs = 1;
  bool qos = false;
  bool quick = false;     // bench_noc_faultsweep's reduced CI grid
  std::string tracePath;  // empty = flit tracing off
  std::uint64_t traceSample = 1;
  std::string path;       // empty = the bench's default artifact name
};

// Parses a whole decimal number; false on an empty value, a sign where
// T is unsigned, trailing characters or overflow.
template <class T>
bool parseWhole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && !text.empty();
}

// Fills `cli` from argv and checks it; on a bad flag prints why and
// returns false.  `allowQuick` admits --quick (bench_noc_faultsweep).
// --qos forces 4 VCs: the experiment needs the escape layer plus the
// per-class adaptive lanes.
inline bool parseSweepCli(int argc, char** argv, bool allowQuick,
                          SweepCli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](std::string_view flag) -> const char* {
      return arg.substr(0, flag.size()) == flag ? argv[i] + flag.size()
                                                : nullptr;
    };
    if (const char* v = value("--topology=")) {
      cli.topology = v;
    } else if (const char* v = value("--kernel=")) {
      cli.kernel = v;
    } else if (const char* v = value("--vcs=")) {
      if (!parseWhole(v, cli.vcs)) {
        std::printf("--vcs=%s is not a whole number\n", v);
        return false;
      }
    } else if (arg == "--qos") {
      cli.qos = true;
    } else if (allowQuick && arg == "--quick") {
      cli.quick = true;
    } else if (const char* v = value("--trace-sample=")) {
      if (!parseWhole(v, cli.traceSample)) {
        std::printf("--trace-sample=%s is not a whole number\n", v);
        return false;
      }
    } else if (const char* v = value("--trace=")) {
      cli.tracePath = v;
    } else if (arg.substr(0, 2) == "--") {
      std::printf("unknown flag %s\n", argv[i]);
      return false;
    } else {
      cli.path = arg;
    }
  }
  if (cli.traceSample < 1) {
    std::printf("--trace-sample=%llu must be >= 1\n",
                static_cast<unsigned long long>(cli.traceSample));
    return false;
  }
  if (cli.topology != "mesh" && cli.topology != "torus" &&
      cli.topology != "ring") {
    std::printf("unknown --topology=%s (mesh|torus|ring)\n",
                cli.topology.c_str());
    return false;
  }
  if (cli.kernel != "naive" && cli.kernel != "compiled") {
    std::printf("unknown --kernel=%s (naive|compiled)\n",
                cli.kernel.c_str());
    return false;
  }
  if (cli.vcs != 1 && cli.vcs != 2 && cli.vcs != 4) {
    std::printf("--vcs=%d must be 1, 2 or 4\n", cli.vcs);
    return false;
  }
  if (cli.vcs > 1 && !cli.tracePath.empty()) {
    std::printf("--trace is incompatible with --vcs>1 (flit tracing does "
                "not support virtual channels)\n");
    return false;
  }
  if (cli.qos) {
    if (cli.vcs != 1 && cli.vcs != 4) {
      std::printf("--qos needs 4 VCs (escape layer + per-class adaptive "
                  "lanes); drop --vcs or pass --vcs=4\n");
      return false;
    }
    if (!cli.tracePath.empty()) {
      std::printf("--trace is incompatible with --qos (QoS runs at 4 "
                  "VCs)\n");
      return false;
    }
    cli.vcs = 4;
  }
  return true;
}

// 4x4 grid for mesh/torus, the same 16 nodes as a ring.
inline std::shared_ptr<const noc::Topology> makeBenchTopology(
    const SweepCli& cli) {
  return noc::makeTopology(cli.topology, 4, 4);
}

// parseSweepCli rejects every --kernel value but these two.
inline sim::Simulator::Kernel benchKernel(const SweepCli& cli) {
  return cli.kernel == "naive" ? sim::Simulator::Kernel::Naive
                               : sim::Simulator::Kernel::Compiled;
}

inline noc::FlowSpec qosFlow(router::TrafficClass cls, double load,
                             int payload, std::uint64_t seed) {
  noc::FlowSpec flow;
  flow.trafficClass = cls;
  flow.traffic.pattern = noc::TrafficPattern::UniformRandom;
  flow.traffic.offeredLoad = load;
  flow.traffic.payloadFlits = payload;
  flow.traffic.seed = seed;
  return flow;
}

inline std::string fmt(double v, const char* f = "%.2f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// Schema-validates the Perfetto export, then writes it to cli.tracePath;
// on either failure prints why and returns false.
inline bool writePerfettoTrace(const std::string& traceJson,
                               const SweepCli& cli) {
  std::string error;
  if (!telemetry::validatePerfettoJson(traceJson, &error)) {
    std::printf("!! Perfetto trace failed schema validation: %s\n",
                error.c_str());
    return false;
  }
  std::FILE* out = std::fopen(cli.tracePath.c_str(), "w");
  if (!out) {
    std::printf("!! cannot write %s\n", cli.tracePath.c_str());
    return false;
  }
  std::fputs(traceJson.c_str(), out);
  std::fclose(out);
  std::printf("Perfetto trace written to %s (%zu bytes, sample=%llu)\n",
              cli.tracePath.c_str(), traceJson.size(),
              static_cast<unsigned long long>(cli.traceSample));
  return true;
}

}  // namespace rasoc::bench
