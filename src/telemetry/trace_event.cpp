#include "telemetry/trace_event.hpp"

#include <cctype>
#include <sstream>
#include <stdexcept>

#include "telemetry/report.hpp"

namespace rasoc::telemetry {

std::string_view name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::PacketQueued: return "packet_queued";
    case TraceEventKind::RetransmitQueued: return "retransmit_queued";
    case TraceEventKind::AckQueued: return "ack_queued";
    case TraceEventKind::NackQueued: return "nack_queued";
    case TraceEventKind::FlitInjected: return "flit_injected";
    case TraceEventKind::HeaderInjected: return "header_injected";
    case TraceEventKind::FifoEnqueue: return "fifo_enqueue";
    case TraceEventKind::FifoDequeue: return "fifo_dequeue";
    case TraceEventKind::ArbGrant: return "arb_grant";
    case TraceEventKind::ArbConflict: return "arb_conflict";
    case TraceEventKind::LinkTransfer: return "link_transfer";
    case TraceEventKind::LinkCorrupt: return "link_corrupt";
    case TraceEventKind::LinkDrop: return "link_drop";
    case TraceEventKind::LinkStall: return "link_stall";
    case TraceEventKind::HeaderEjected: return "header_ejected";
    case TraceEventKind::PacketEjected: return "packet_ejected";
  }
  return "unknown";
}

namespace {

// Port index → compass letter, matching the telemetry naming convention
// (router/params.hpp Port order: Local, North, East, South, West).
const char* portLetter(int port) {
  switch (port) {
    case 0: return "L";
    case 1: return "N";
    case 2: return "E";
    case 3: return "S";
    case 4: return "W";
    default: return "?";
  }
}

}  // namespace

std::string describe(const TraceEvent& event) {
  std::ostringstream os;
  os << 'c' << event.cycle << ' ' << name(event.kind);
  if (event.node >= 0) {
    os << " r" << event.node;
    if (event.port >= 0) os << '.' << portLetter(event.port);
  }
  if (event.packet != 0) os << " pkt" << event.packet;
  if (event.src >= 0 && event.dst >= 0)
    os << " flow " << event.src << "->" << event.dst;
  if (event.value != 0) os << " v" << event.value;
  return os.str();
}

TraceSink::TraceSink(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

const TraceEvent& TraceSink::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("TraceSink::at");
  return ring_[(head_ + i) % ring_.size()];
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(at(i));
  return out;
}

void TraceSink::clear() {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
}

// --- PerfettoWriter ---------------------------------------------------------

void PerfettoWriter::processName(int pid, const std::string& name) {
  std::ostringstream os;
  os << "{\"ph\":\"M\",\"pid\":" << pid
     << ",\"name\":\"process_name\",\"args\":{\"name\":\""
     << RunReport::escape(name) << "\"}}";
  events_.push_back(os.str());
}

void PerfettoWriter::threadName(int pid, int tid, const std::string& name) {
  std::ostringstream os;
  os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
     << RunReport::escape(name) << "\"}}";
  events_.push_back(os.str());
}

void PerfettoWriter::complete(
    int pid, int tid, std::uint64_t ts, std::uint64_t dur,
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& args) {
  std::ostringstream os;
  os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"name\":\""
     << RunReport::escape(name) << '"';
  if (!args.empty()) {
    os << ",\"args\":{";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i) os << ',';
      os << '"' << RunReport::escape(args[i].first) << "\":\""
         << RunReport::escape(args[i].second) << '"';
    }
    os << '}';
  }
  os << '}';
  events_.push_back(os.str());
}

void PerfettoWriter::instant(int pid, int tid, std::uint64_t ts,
                             const std::string& name) {
  std::ostringstream os;
  os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"ts\":" << ts << ",\"name\":\"" << RunReport::escape(name)
     << "\"}";
  events_.push_back(os.str());
}

std::string PerfettoWriter::toJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::size_t total = out.size() + 3;
  for (const std::string& e : events_) total += e.size() + 2;
  out.reserve(total);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i) out += ',';
    out += '\n';
    out += events_[i];
  }
  out += "\n]}\n";
  return out;
}

// --- validatePerfettoJson ---------------------------------------------------

namespace {

// Tiny recursive-descent JSON parser producing just enough structure to
// schema-check a trace: values are tagged variants, objects keep their
// members in a flat vector (traces are small enough that linear lookup is
// fine and it keeps the parser allocation-light).
struct JsonValue;
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind =
      Kind::Null;
  bool b = false;
  double num = 0.0;
  bool numIsIntegral = false;
  std::string str;
  std::vector<JsonValue> items;    // Array
  JsonMembers members;             // Object

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    try {
      skipWs();
      out = value();
      skipWs();
      if (pos_ != text_.size()) fail("trailing data after JSON value");
      return true;
    } catch (const std::runtime_error& e) {
      if (error) *error = e.what();
      return false;
    }
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + " at offset " + std::to_string(pos_));
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.str = string();
        return v;
      }
      case 't': return literal("true", [] {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.b = true;
        return v;
      }());
      case 'f': return literal("false", [] {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        return v;
      }());
      case 'n': return literal("null", JsonValue{});
      default: return number();
    }
  }

  JsonValue literal(std::string_view word, JsonValue result) {
    for (const char c : word)
      if (take() != c) fail("bad literal");
    return result;
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      std::string key = string();
      skipWs();
      expect(':');
      skipWs();
      v.members.emplace_back(std::move(key), value());
      skipWs();
      const char c = take();
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      v.items.push_back(value());
      skipWs();
      const char c = take();
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Schema checking only needs the string to parse; a lossy
          // substitution keeps the validator free of UTF-8 encoding.
          out += (code < 0x80) ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("bad number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("bad number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.num = std::stod(text_.substr(start, pos_ - start));
    v.numIsIntegral = integral;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool schemaFail(std::string* error, std::size_t index,
                const std::string& what) {
  if (error)
    *error = "traceEvents[" + std::to_string(index) + "]: " + what;
  return false;
}

}  // namespace

bool validatePerfettoJson(const std::string& json, std::string* error) {
  JsonValue root;
  if (!JsonParser(json).parse(root, error)) return false;
  if (root.kind != JsonValue::Kind::Object) {
    if (error) *error = "root is not an object";
    return false;
  }
  const JsonValue* events = root.find("traceEvents");
  if (!events || events->kind != JsonValue::Kind::Array) {
    if (error) *error = "missing \"traceEvents\" array";
    return false;
  }
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& e = events->items[i];
    if (e.kind != JsonValue::Kind::Object)
      return schemaFail(error, i, "event is not an object");
    const JsonValue* ph = e.find("ph");
    if (!ph || ph->kind != JsonValue::Kind::String || ph->str.size() != 1)
      return schemaFail(error, i, "missing one-char \"ph\"");
    const char phase = ph->str[0];
    if (phase != 'X' && phase != 'i' && phase != 'C' && phase != 'M')
      return schemaFail(error, i,
                        std::string("unsupported phase '") + phase + "'");
    const JsonValue* pid = e.find("pid");
    if (!pid || pid->kind != JsonValue::Kind::Number || !pid->numIsIntegral)
      return schemaFail(error, i, "missing integer \"pid\"");
    const JsonValue* name = e.find("name");
    if (!name || name->kind != JsonValue::Kind::String || name->str.empty())
      return schemaFail(error, i, "missing non-empty string \"name\"");
    if (phase != 'M') {
      const JsonValue* ts = e.find("ts");
      if (!ts || ts->kind != JsonValue::Kind::Number)
        return schemaFail(error, i, "missing numeric \"ts\"");
    }
    if (phase == 'X') {
      const JsonValue* dur = e.find("dur");
      if (!dur || dur->kind != JsonValue::Kind::Number)
        return schemaFail(error, i, "\"X\" span without numeric \"dur\"");
      const JsonValue* tid = e.find("tid");
      if (!tid || tid->kind != JsonValue::Kind::Number ||
          !tid->numIsIntegral)
        return schemaFail(error, i, "\"X\" span without integer \"tid\"");
    }
    if (phase == 'C') {
      const JsonValue* args = e.find("args");
      if (!args || args->kind != JsonValue::Kind::Object ||
          args->members.empty())
        return schemaFail(error, i, "counter without args series");
      for (const auto& [k, v] : args->members)
        if (v.kind != JsonValue::Kind::Number)
          return schemaFail(error, i,
                            "counter series \"" + k + "\" not numeric");
    }
  }
  if (error) error->clear();
  return true;
}

}  // namespace rasoc::telemetry
