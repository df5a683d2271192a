/// \file
/// Flit-level trace primitives: the span-style event record, a bounded
/// deterministic ring sink, and a Chrome/Perfetto `trace_events` JSON
/// writer plus the schema validator CI smoke tests run in-process.
///
/// Design constraints mirror telemetry/metrics.hpp — the trace layer must
/// never distort what it traces:
///  * recording is a bounds check plus a struct copy into a preallocated
///    ring; no allocation on the hot path after construction;
///  * everything is opt-in: an untraced network holds no sink and pays
///    nothing (noc/flow_trace.hpp reconstructs events from settled wires
///    and lifetime counters, so the router blocks are not instrumented at
///    all);
///  * output is deterministic: events are recorded in a fixed scan order
///    and serialized through the RunReport number formatter, so two runs of
///    the same seeded simulation produce byte-identical traces.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rasoc::telemetry {

/// What happened to a flit/packet at one clock edge.  The lifecycle of an
/// unfaulted packet reads: PacketQueued → FlitInjected (HeaderInjected for
/// the first) → per hop {FifoEnqueue → ArbGrant/ArbConflict → FifoDequeue →
/// LinkTransfer} → HeaderEjected → PacketEjected.  Fault and protocol
/// events (Link*, RetransmitQueued, Ack/NackQueued) interleave as they
/// occur.
enum class TraceEventKind : std::uint8_t {
  PacketQueued,      ///< NI accepted a packet for the wire (value = flits)
  RetransmitQueued,  ///< reliable transport re-queued a DATA frame
  AckQueued,         ///< reliable transport queued an ACK control frame
  NackQueued,        ///< reliable transport queued a NACK control frame
  FlitInjected,      ///< a flit crossed the NI→router wire (value = seq)
  HeaderInjected,    ///< the bop flit crossed the NI→router wire
  FifoEnqueue,       ///< input channel accepted a flit off its link
  FifoDequeue,       ///< buffer head read out (value = residency cycles)
  ArbGrant,          ///< output channel granted input port `value`
  ArbConflict,       ///< input port `value` left waiting for this output
  LinkTransfer,      ///< a flit crossed an inter-router link
  LinkCorrupt,       ///< faulty link flipped a payload bit in transit
  LinkDrop,          ///< faulty link silently consumed a body flit
  LinkStall,         ///< faulty link blocked an offered flit this cycle
  HeaderEjected,     ///< bop flit reached the destination NI
  PacketEjected,     ///< eop flit reached the destination NI (span closed)
};

std::string_view name(TraceEventKind kind);

/// One trace record.  `packet` is the flow tracer's per-wire-packet id
/// (1-based; 0 marks an event whose packet was not sampled — such events
/// are never recorded, the zero only appears in scratch state).  `node` /
/// `port` locate the router channel the event touched (-1 when the event
/// is not tied to one); `src`/`dst` are topology node indices of the flow.
struct TraceEvent {
  std::uint64_t cycle = 0;
  std::uint64_t packet = 0;
  std::int32_t node = -1;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::int32_t value = 0;
  std::int8_t port = -1;
  TraceEventKind kind = TraceEventKind::PacketQueued;

  bool operator==(const TraceEvent&) const = default;
};

/// Render an event as one human-readable line (watchdog stall dumps and
/// test diagnostics): `c123 fifo_dequeue r5.E pkt7 flow 0->12 v2`.
std::string describe(const TraceEvent& event);

/// Bounded ring of trace events.  Recording overwrites the oldest entry
/// once full; `dropped()` counts the overwrites so reports can say how much
/// history the window kept.
class TraceSink {
 public:
  /// `capacity` is clamped to at least 1.
  explicit TraceSink(std::size_t capacity);

  void record(const TraceEvent& event) {
    if (size_ < ring_.size()) {
      // head_ stays 0 until the ring first fills (only clear() shrinks it).
      ring_[size_++] = event;
    } else {
      ring_[head_] = event;
      if (++head_ == ring_.size()) head_ = 0;
    }
    ++recorded_;
  }

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  /// Lifetime events offered to record().
  std::uint64_t recorded() const { return recorded_; }
  /// Events overwritten by newer ones (recorded() - size()).
  std::uint64_t dropped() const { return recorded_ - size_; }

  /// The i-th retained event, oldest first; i must be < size().
  const TraceEvent& at(std::size_t i) const;

  /// Retained events oldest→newest (copies; for tests and small dumps).
  std::vector<TraceEvent> snapshot() const;

  void clear();

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // index of the oldest retained event
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
};

/// Streaming builder for the Chrome/Perfetto `trace_events` JSON format
/// (the "JSON Array Format" ui.perfetto.dev and chrome://tracing load
/// directly).  Timestamps are in microseconds; the flow tracer maps one
/// simulated cycle to 1 µs.  Events render in emission order, so a caller
/// that emits in a deterministic order gets byte-identical JSON.
class PerfettoWriter {
 public:
  /// Metadata: names the track group ("process") `pid`.
  void processName(int pid, const std::string& name);
  /// Metadata: names track ("thread") `tid` inside group `pid`.
  void threadName(int pid, int tid, const std::string& name);

  /// A complete span ("ph":"X").  `args` values are emitted as JSON
  /// strings.
  void complete(int pid, int tid, std::uint64_t ts, std::uint64_t dur,
                const std::string& name,
                const std::vector<std::pair<std::string, std::string>>&
                    args = {});

  /// A thread-scoped instant event ("ph":"i").
  void instant(int pid, int tid, std::uint64_t ts, const std::string& name);

  std::size_t events() const { return events_.size(); }

  /// `{"displayTimeUnit":"ms","traceEvents":[...]}`.
  std::string toJson() const;

 private:
  std::vector<std::string> events_;  // pre-rendered JSON objects
};

/// Minimal structural validator for the Perfetto JSON emitted above: full
/// JSON parse (objects, arrays, strings, numbers, literals), then a schema
/// check — root object with a "traceEvents" array whose entries carry a
/// one-char "ph" from {X,i,C,M}, integer "pid", a string "name", a numeric
/// "ts" (except metadata), and a numeric "dur" on every "X" span.  Lives in
/// the library so the CI smoke check needs no Python; returns false and
/// fills `error` (when non-null) on the first violation.
bool validatePerfettoJson(const std::string& json,
                          std::string* error = nullptr);

}  // namespace rasoc::telemetry
