#include "sim/compile.hpp"

#include <algorithm>
#include <cstddef>

#include "sim/module.hpp"

namespace rasoc::sim {

// --- Lowering ---------------------------------------------------------------

void Lowering::beginModule(Module& m) {
  current_ = &m;
  descend_ = false;
}

std::optional<std::uint32_t> Lowering::placedWord(const WireBase& w) const {
  const std::size_t b = prog_.bindingOf(&w);
  if (b == CompiledProgram::kUnplaced) return std::nullopt;
  return prog_.bindings_[b].word;
}

std::uint32_t Lowering::packedWord(std::span<const WordField> fields) {
  auto& bindings = prog_.bindings_;
  if (fields.empty())
    throw std::logic_error("Lowering::packedWord: no fields");
  const std::size_t first = prog_.bindingOf(fields.front().wire);
  if (first != CompiledProgram::kUnplaced) {
    // Placed before: by this same layout, whose bindings were appended
    // consecutively, so the check is a linear scan.
    const std::uint32_t word = bindings[first].word;
    bool same = first + fields.size() <= bindings.size();
    for (std::size_t k = 0; same && k < fields.size(); ++k) {
      const CompiledProgram::Binding& b = bindings[first + k];
      same = b.wire == fields[k].wire && b.word == word &&
             b.shift == fields[k].shift && b.width == fields[k].width;
    }
    if (!same)
      throw std::logic_error(
          "Lowering::packedWord: wires previously placed with a different "
          "layout");
    return word;
  }
  const std::uint32_t word = prog_.newWord();
  std::uint64_t used = 0;
  for (const WordField& f : fields) {
    const std::uint64_t mask = fieldMask(f.width) << f.shift;
    if (f.width == 0 || f.width > 32 || f.shift + f.width > 64 ||
        (used & mask) != 0)
      throw std::logic_error(
          "Lowering::packedWord: fields overlap or leave the word");
    used |= mask;
    if (prog_.bindingOf(f.wire) != CompiledProgram::kUnplaced)
      throw std::logic_error(
          "Lowering::packedWord: wire already placed outside this word");
    prog_.addBinding({f.wire, f.value, word, f.shift, f.width, f.store});
  }
  return word;
}

void* Lowering::allocCtx(std::size_t size, std::size_t align) {
  return prog_.allocCtx(size, align);
}

void* CompiledProgram::allocCtx(std::size_t size, std::size_t align) {
  ctxChunkUsed_ = (ctxChunkUsed_ + align - 1) & ~(align - 1);
  if (ctxChunks_.empty() || ctxChunkUsed_ + size > ctxChunkCap_) {
    ctxChunkCap_ = std::max<std::size_t>(size, std::size_t{1} << 16);
    ctxChunks_.push_back(std::make_unique<unsigned char[]>(ctxChunkCap_));
    ctxChunkUsed_ = 0;
  }
  void* p = ctxChunks_.back().get() + ctxChunkUsed_;
  ctxChunkUsed_ += size;
  ctxSize_.emplace(p, static_cast<std::uint32_t>(size));
  return p;
}

void Lowering::op(OpFn fn, void* ctx, std::vector<const WireBase*> reads,
                  std::vector<const WireBase*> writes) {
  CompiledProgram::UnitDraft d;
  d.fn = fn;
  d.ctx = ctx;
  d.module = current_;
  d.reads = std::move(reads);
  d.writes = std::move(writes);
  prog_.drafts_.push_back(std::move(d));
}

void Lowering::thunk(Module& m, std::vector<const WireBase*> reads,
                     std::vector<const WireBase*> writes) {
  CompiledProgram::UnitDraft d;
  d.module = &m;
  d.reads = std::move(reads);
  d.writes = std::move(writes);
  prog_.drafts_.push_back(std::move(d));
}

void Lowering::edgeOp(OpFn fn, void* ctx) {
  prog_.edges_.push_back({fn, ctx, nullptr});
}

void Lowering::edgeCall(Module& m) {
  prog_.edges_.push_back({nullptr, nullptr, &m});
}

// --- build ------------------------------------------------------------------

void CompiledProgram::walk(Lowering& lw, Module& m) {
  lw.beginModule(m);
  if (!m.describe(lw))
    throw std::logic_error(
        "Kernel::Compiled: module '" + m.name() +
        "' has no lowering; override Module::describe() to declare its "
        "settle units and clock edge");
  if (lw.descendRequested())
    for (Module* child : m.children()) walk(lw, *child);
}

std::unique_ptr<CompiledProgram> CompiledProgram::build(
    const std::vector<Module*>& tops) {
  std::unique_ptr<CompiledProgram> prog(new CompiledProgram());
  Lowering lw(*prog);
  for (Module* m : tops) prog->walk(lw, *m);
  prog->finalize();
  return prog;
}

void CompiledProgram::finalize() {
  scheduleUnits();  // throws on a cycle, before any wire is bound
  cur_.assign(wordCount_, 0);
  // Point every wire at its slice and import the current wire values so
  // the arena starts coherent; write-through (set/force) and read-through
  // (get) keep the two views coherent from here on.
  for (const Binding& b : bindings_) {
    b.wire->bindArena(&cur_[b.word], b.shift, b.width);
    b.store(b.wire);
  }

  packContexts();
  buildRuns();
  drafts_.clear();
  drafts_.shrink_to_fit();
}

// Re-copies every unit's context into one arena laid out in execution
// order (settle tape first, then the edge tape).  Contexts are immutable
// once built, so shared contexts are simply duplicated; the win is that
// the interpreter's context loads become a sequential stream the hardware
// prefetcher covers, instead of describe-order hops.
void CompiledProgram::packContexts() {
  constexpr std::size_t kAlign = alignof(std::max_align_t);
  auto alignedSize = [&](std::uint32_t size) {
    return (static_cast<std::size_t>(size) + kAlign - 1) & ~(kAlign - 1);
  };
  std::size_t total = 0;
  auto measure = [&](void* ctx) {
    auto it = ctxSize_.find(ctx);
    if (it != ctxSize_.end()) total += alignedSize(it->second);
  };
  for (const ExecUnit& u : units_) measure(u.ctx);
  for (const EdgeItem& e : edges_) measure(e.ctx);

  std::vector<std::unique_ptr<unsigned char[]>> packed;
  packed.push_back(std::make_unique<unsigned char[]>(std::max<std::size_t>(
      total, 1)));
  unsigned char* base = packed.front().get();
  std::size_t used = 0;
  auto repack = [&](void*& ctx) {
    auto it = ctxSize_.find(ctx);
    if (it == ctxSize_.end()) return;
    std::memcpy(base + used, ctx, it->second);
    ctx = base + used;
    used += alignedSize(it->second);
  };
  for (ExecUnit& u : units_) repack(u.ctx);
  for (EdgeItem& e : edges_) repack(e.ctx);
  ctxChunks_ = std::move(packed);
  ctxChunkUsed_ = ctxChunkCap_ = 0;
  ctxSize_.clear();
}

// Collapse the unit and edge tapes into batched runs.  After packContexts()
// the contexts of a same-fn stretch sit at a constant positive stride, so
// the stretch executes as one hoisted-dispatch loop.  Detection is by raw
// pointer arithmetic — anything irregular just stays a count-1 run.
void CompiledProgram::buildRuns() {
  auto batch = [](std::vector<Run>& out, OpFn fn, void* ctx, Module* m) {
    if (fn != nullptr && !out.empty() && out.back().fn == fn) {
      Run& r = out.back();
      auto* prev = static_cast<unsigned char*>(r.ctx) +
                   static_cast<std::size_t>(r.stride) * (r.count - 1);
      const std::ptrdiff_t diff = static_cast<unsigned char*>(ctx) - prev;
      if (diff > 0 &&
          (r.count == 1 || diff == static_cast<std::ptrdiff_t>(r.stride))) {
        r.stride = static_cast<std::uint32_t>(diff);
        ++r.count;
        return;
      }
    }
    out.push_back({fn, ctx, m, 0, 1});
  };
  runs_.clear();
  for (const ExecUnit& u : units_) batch(runs_, u.fn, u.ctx, u.thunk);
  edgeRuns_.clear();
  for (const EdgeItem& e : edges_) batch(edgeRuns_, e.fn, e.ctx, e.call);
}

void CompiledProgram::scheduleUnits() {
  const std::uint32_t n = static_cast<std::uint32_t>(drafts_.size());

  // Wire -> writer units, then reader edges writer -> reader.  The writer
  // index is a flat open-addressing table over the wire pointers (linear
  // probing, power-of-two capacity, at most half full) whose slots head
  // per-wire chains in `chain`: two allocations in all, where a node-based
  // map spent two per written wire and dominated compile time.
  constexpr std::uint32_t kEnd = 0xffffffffu;
  struct WriterSlot {
    const WireBase* wire = nullptr;
    std::uint32_t head = kEnd;
  };
  struct WriterLink {
    std::uint32_t unit;
    std::uint32_t next;
  };
  std::size_t totalWrites = 0;
  for (const UnitDraft& d : drafts_) totalWrites += d.writes.size();
  unsigned tableBits = 4;
  while ((std::size_t{1} << tableBits) < 2 * totalWrites) ++tableBits;
  std::vector<WriterSlot> table(std::size_t{1} << tableBits);
  std::vector<WriterLink> chain;
  chain.reserve(totalWrites);
  const auto slotOf = [&](const WireBase* w) -> WriterSlot& {
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(w)) *
         0x9e3779b97f4a7c15ull) >>
        (64 - tableBits));
    while (table[i].wire != nullptr && table[i].wire != w)
      i = (i + 1) & (table.size() - 1);
    return table[i];
  };
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const WireBase* w : drafts_[u].writes) {
      WriterSlot& slot = slotOf(w);
      slot.wire = w;
      chain.push_back({u, slot.head});
      slot.head = static_cast<std::uint32_t>(chain.size() - 1);
    }
  }
  // A unit reading its own write keeps a self edge, so it never leaves
  // Kahn's queue below and is reported as a cycle.
  std::vector<std::vector<std::uint32_t>> succ(n);
  for (std::uint32_t u = 0; u < n; ++u)
    for (const WireBase* r : drafts_[u].reads)
      for (std::uint32_t k = slotOf(r).head; k != kEnd; k = chain[k].next)
        succ[chain[k].unit].push_back(u);
  std::vector<std::uint32_t> indegree(n, 0);
  for (auto& s : succ) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    for (std::uint32_t v : s) ++indegree[v];
  }

  // Kahn's algorithm: `order` collects the units whose writers have all
  // been placed, and level[u] becomes the longest writer->reader path from
  // a source.  Units left over sit on or behind a cycle.
  std::vector<std::uint32_t> order, level(n, 0);
  order.reserve(n);
  for (std::uint32_t u = 0; u < n; ++u)
    if (indegree[u] == 0) order.push_back(u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t u = order[i];
    for (std::uint32_t v : succ[u]) {
      level[v] = std::max(level[v], level[u] + 1);
      if (--indegree[v] == 0) order.push_back(v);
    }
  }
  if (order.size() != n) throwCycle(succ, indegree);

  // Any topological order settles in one pass, so pick the one that
  // interprets fastest: by level, then by op function, then by lowering
  // order.  Long same-target runs make the indirect calls perfectly
  // predicted and keep each op body hot in the I-cache; results do not
  // depend on the choice because every writer->reader edge climbs a level.
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (level[a] != level[b]) return level[a] < level[b];
    const auto fa = reinterpret_cast<std::uintptr_t>(drafts_[a].fn);
    const auto fb = reinterpret_cast<std::uintptr_t>(drafts_[b].fn);
    if (fa != fb) return fa < fb;
    return a < b;
  });
  units_.reserve(n);
  for (std::uint32_t u : order) {
    const UnitDraft& d = drafts_[u];
    units_.push_back({d.fn, d.ctx, d.fn ? nullptr : d.module});
    if (d.fn) ++opCount_;
  }
}

// Names the modules on one cycle among the units Kahn's algorithm left
// over.  Each leftover unit has a leftover writer (that is why its
// in-degree never reached zero), so walking writers from any of them must
// revisit a unit: the walk's tail from that unit is the cycle.
void CompiledProgram::throwCycle(
    const std::vector<std::vector<std::uint32_t>>& succ,
    const std::vector<std::uint32_t>& indegree) const {
  constexpr std::uint32_t kNone = 0xffffffffu;
  const auto n = static_cast<std::uint32_t>(succ.size());
  std::vector<std::uint32_t> writer(n, kNone);
  std::uint32_t start = kNone;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (indegree[u] == 0) continue;
    start = u;
    for (std::uint32_t v : succ[u])
      if (indegree[v] != 0) writer[v] = u;
  }
  std::vector<std::uint32_t> step(n, kNone), walk;
  std::uint32_t u = start;
  while (step[u] == kNone) {
    step[u] = static_cast<std::uint32_t>(walk.size());
    walk.push_back(u);
    u = writer[u];
  }
  std::string names;
  std::vector<const Module*> named;
  for (std::size_t i = step[u]; i < walk.size(); ++i) {
    const Module* m = drafts_[walk[i]].module;
    if (std::find(named.begin(), named.end(), m) != named.end()) continue;
    named.push_back(m);
    names += (names.empty() ? "" : ", ") + m->name();
  }
  throw std::runtime_error(
      "Kernel::Compiled: combinational cycle through " + names +
      " (a unit's declared reads depend on its own writes)");
}

// --- run --------------------------------------------------------------------

std::uint64_t CompiledProgram::settle() {
  // Runs the units in schedule order, with the dispatch hoisted out of
  // each same-fn stretch.
  for (const Run& r : runs_) {
    if (r.fn == nullptr) {
      r.behavioural->evaluateOne();  // wire reads refresh from the arena
      continue;
    }
    auto* c = static_cast<unsigned char*>(r.ctx);
    for (std::uint32_t k = 0; k != r.count; ++k) {
      r.fn(cur_.data(), c);
      c += r.stride;
    }
  }
  return units_.size();
}

void CompiledProgram::edge() {
  for (const Run& r : edgeRuns_) {
    if (r.fn == nullptr) {
      r.behavioural->clockEdgeOne();
      continue;
    }
    auto* c = static_cast<unsigned char*>(r.ctx);
    for (std::uint32_t k = 0; k != r.count; ++k) {
      r.fn(cur_.data(), c);
      c += r.stride;
    }
  }
}

void CompiledProgram::unbindWires() const {
  // Materialize the final arena value into each wire before detaching:
  // once unbound, get() serves the cached value with no arena to consult.
  for (const Binding& b : bindings_) {
    const std::uint64_t bits = (cur_[b.word] >> b.shift) & fieldMask(b.width);
    if (b.width == 1) {
      *static_cast<bool*>(b.value) = bits != 0;
    } else {
      const std::uint32_t v = static_cast<std::uint32_t>(bits);
      std::memcpy(b.value, &v, sizeof(v));
    }
    b.wire->unbindArena();
  }
}

}  // namespace rasoc::sim
