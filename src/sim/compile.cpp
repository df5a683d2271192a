#include "sim/compile.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "sim/module.hpp"

namespace rasoc::sim {

// --- Lowering ---------------------------------------------------------------

void Lowering::beginModule(Module& m) {
  current_ = &m;
  currentIndex_ = static_cast<std::uint32_t>(m.moduleIndex());
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
  d.reads = std::move(reads);
  d.writes = std::move(writes);
  d.moduleIndex = currentIndex_;
  prog_.drafts_.push_back(std::move(d));
}

void Lowering::thunk(Module& m) {
  // Discover the write set by running evaluate() once under the write
  // recorder (stable-write-set contract: evaluate() must drive the same
  // wires on every call).  The recorder is disarmed even if evaluate()
  // throws, so it never outlives `writes`.
  std::vector<const WireBase*> writes;
  struct Disarm {
    ~Disarm() { SettleContext::armWriteRecorder(nullptr); }
  } disarm;
  SettleContext::armWriteRecorder(&writes);
  m.evaluateOne();
  prog_.discovered_.push_back(&m);
  std::sort(writes.begin(), writes.end());
  writes.erase(std::unique(writes.begin(), writes.end()), writes.end());
  thunkDeclared(m, m.sensitivities(), std::move(writes));
}

void Lowering::thunkDeclared(Module& m, std::vector<const WireBase*> reads,
                             std::vector<const WireBase*> writes) {
  CompiledProgram::UnitDraft d;
  d.thunk = &m;
  d.reads = std::move(reads);
  d.writes = std::move(writes);
  d.moduleIndex = static_cast<std::uint32_t>(m.moduleIndex());
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
  const bool described = m.describe(lw);
  if (!described) {
    lw.thunk(m);
    lw.edgeCall(m);
    for (Module* child : m.children()) walk(lw, *child);
  } else if (lw.descendRequested()) {
    for (Module* child : m.children()) walk(lw, *child);
  }
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
  cur_.assign(wordCount_, 0);
  // Point every wire at its slice and import the current wire values so
  // the arena starts coherent; write-through (set/force) and read-through
  // (get) keep the two views coherent from here on.
  for (const Binding& b : bindings_) {
    b.wire->bindArena(&cur_[b.word], b.shift, b.width);
    b.store(b.wire);
  }

  scheduleUnits();
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
  segRuns_.clear();
  for (const Segment& s : segments_) {
    const std::uint32_t begin = static_cast<std::uint32_t>(runs_.size());
    if (!s.iterate)
      for (std::uint32_t i = s.begin; i != s.end; ++i)
        batch(runs_, units_[i].fn, units_[i].ctx, units_[i].thunk);
    segRuns_.emplace_back(begin, static_cast<std::uint32_t>(runs_.size()));
  }
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
  std::vector<std::vector<std::uint32_t>> succ(n);
  std::vector<bool> selfLoop(n, false);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const WireBase* r : drafts_[u].reads) {
      for (std::uint32_t k = slotOf(r).head; k != kEnd; k = chain[k].next) {
        const std::uint32_t w = chain[k].unit;
        if (w == u)
          selfLoop[u] = true;
        else
          succ[w].push_back(u);
      }
    }
  }
  for (auto& s : succ) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }

  // Iterative Tarjan.  Components are emitted sinks-first, so reading the
  // emission list backwards yields a topological order of the condensation.
  constexpr std::uint32_t kUnvisited = 0xffffffffu;
  std::vector<std::uint32_t> index(n, kUnvisited), lowlink(n, 0);
  std::vector<bool> onStack(n, false);
  std::vector<std::uint32_t> stack;
  std::vector<std::vector<std::uint32_t>> comps;
  std::uint32_t nextIndex = 0;
  struct Frame {
    std::uint32_t v;
    std::size_t edge;
  };
  std::vector<Frame> frames;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = nextIndex++;
    stack.push_back(root);
    onStack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge < succ[f.v].size()) {
        const std::uint32_t w = succ[f.v][f.edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = nextIndex++;
          stack.push_back(w);
          onStack[w] = true;
          frames.push_back({w, 0});
        } else if (onStack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        const std::uint32_t v = f.v;
        frames.pop_back();
        if (!frames.empty())
          lowlink[frames.back().v] = std::min(lowlink[frames.back().v],
                                              lowlink[v]);
        if (lowlink[v] == index[v]) {
          comps.emplace_back();
          for (;;) {
            const std::uint32_t w = stack.back();
            stack.pop_back();
            onStack[w] = false;
            comps.back().push_back(w);
            if (w == v) break;
          }
        }
      }
    }
  }

  // Dependency level per draft (longest path from a source), computed by
  // pushing levels forward in topological order of the condensation.
  // Members of a cyclic component share a level for scheduling purposes;
  // intra-component edges may bump it imprecisely, which is harmless
  // because iterate segments are never reordered.
  std::vector<std::uint32_t> level(n, 0);
  for (auto comp = comps.rbegin(); comp != comps.rend(); ++comp)
    for (std::uint32_t u : *comp)
      for (std::uint32_t s : succ[u])
        level[s] = std::max(level[s], level[u] + 1);
  std::vector<std::uint32_t> unitDraft;  // unit index -> draft index

  // Emit the schedule: singleton acyclic components extend the current
  // linear segment; genuine cycles get their own iterate segment.  Units
  // within a component run in emission (lowering) order, which tracks the
  // behavioural module walk and keeps the schedule deterministic.
  auto openSegment = [&](bool iterate) {
    Segment s;
    s.begin = s.end = static_cast<std::uint32_t>(units_.size());
    s.watchBegin = s.watchEnd = static_cast<std::uint32_t>(watchWords_.size());
    s.iterate = iterate;
    segments_.push_back(s);
  };
  auto appendUnit = [&](std::uint32_t u) {
    unitDraft.push_back(u);
    const UnitDraft& d = drafts_[u];
    ExecUnit e{};
    e.fn = d.fn;
    e.ctx = d.ctx;
    e.thunk = d.thunk;
    e.moduleIndex = d.moduleIndex;
    if (!d.thunk) ++opCount_;
    units_.push_back(e);
    segments_.back().end = static_cast<std::uint32_t>(units_.size());
    if (segments_.back().iterate) {
      // Watch the arena words this unit's op writes land in; thunk writes
      // are tracked through SettleContext instead.
      for (const WireBase* w : d.writes) {
        const std::size_t b = bindingOf(w);
        if (b != kUnplaced) watchWords_.push_back(bindings_[b].word);
      }
    }
  };

  bool linearOpen = false;
  for (auto comp = comps.rbegin(); comp != comps.rend(); ++comp) {
    std::sort(comp->begin(), comp->end());
    const bool iterate = comp->size() > 1 || selfLoop[comp->front()];
    if (iterate) {
      openSegment(true);
      ++iterateSegments_;
      for (std::uint32_t u : *comp) appendUnit(u);
      auto& seg = segments_.back();
      std::sort(watchWords_.begin() + seg.watchBegin, watchWords_.end());
      watchWords_.erase(std::unique(watchWords_.begin() + seg.watchBegin,
                                    watchWords_.end()),
                        watchWords_.end());
      seg.watchEnd = static_cast<std::uint32_t>(watchWords_.size());
      linearOpen = false;
    } else {
      if (!linearOpen) {
        openSegment(false);
        linearOpen = true;
      }
      appendUnit(comp->front());
    }
  }
  // Level-sort each linear segment: any topological order of an acyclic
  // segment reaches the same fixpoint in a single pass, so we are free to
  // pick the order that interprets fastest — by dependency level, then by
  // op function.  Long same-target runs make the indirect calls perfectly
  // predicted and keep each op body hot in the I-cache; results are
  // bit-identical because level order respects every writer->reader edge.
  for (const Segment& s : segments_) {
    if (s.iterate || s.end - s.begin < 2) continue;
    std::vector<std::uint32_t> order(s.end - s.begin);
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = s.begin + i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       const std::uint32_t la = level[unitDraft[a]];
                       const std::uint32_t lb = level[unitDraft[b]];
                       if (la != lb) return la < lb;
                       return reinterpret_cast<std::uintptr_t>(units_[a].fn) <
                              reinterpret_cast<std::uintptr_t>(units_[b].fn);
                     });
    std::vector<ExecUnit> sorted(order.size());
    for (std::uint32_t i = 0; i < order.size(); ++i)
      sorted[i] = units_[order[i]];
    std::copy(sorted.begin(), sorted.end(),
              units_.begin() + s.begin);
  }

  std::size_t maxWatch = 0;
  for (const Segment& s : segments_)
    maxWatch = std::max<std::size_t>(maxWatch, s.watchEnd - s.watchBegin);
  watchScratch_.resize(maxWatch);
}

// --- run --------------------------------------------------------------------

inline void CompiledProgram::runUnit(const ExecUnit& u,
                                     std::uint64_t* profileBase) {
  if (u.fn)
    u.fn(cur_.data(), u.ctx);
  else
    u.thunk->evaluateOne();  // wire reads refresh from the arena in get()
  if (profileBase) ++profileBase[u.moduleIndex];
}

void CompiledProgram::throwUnsettled(std::uint64_t bound) const {
  throw std::runtime_error(
      "Kernel::Compiled: cyclic segment failed to settle within " +
      std::to_string(bound) +
      " iterations - combinational loop (raise "
      "Simulator::setMaxSettleIterations if the design is legitimately "
      "deep)");
}

std::uint64_t CompiledProgram::settle(std::uint64_t maxIterationsPerSegment,
                                      std::uint64_t* profileBase) {
  std::uint64_t executed = 0;
  for (std::size_t si = 0; si < segments_.size(); ++si) {
    const Segment& seg = segments_[si];
    if (!seg.iterate) {
      if (profileBase == nullptr) {
        // Batched fast path: identical order and calls as the per-unit
        // walk, with the dispatch hoisted out of each same-fn stretch.
        const auto [rb, re] = segRuns_[si];
        for (std::uint32_t ri = rb; ri != re; ++ri) {
          const Run& r = runs_[ri];
          if (r.fn == nullptr) {
            r.behavioural->evaluateOne();
            continue;
          }
          auto* c = static_cast<unsigned char*>(r.ctx);
          for (std::uint32_t k = 0; k != r.count; ++k) {
            r.fn(cur_.data(), c);
            c += r.stride;
          }
        }
      } else {
        for (std::uint32_t i = seg.begin; i != seg.end; ++i)
          runUnit(units_[i], profileBase);
      }
      executed += seg.end - seg.begin;
      continue;
    }
    const std::uint32_t nWatch = seg.watchEnd - seg.watchBegin;
    std::uint64_t iterations = 0;
    for (;;) {
      for (std::uint32_t k = 0; k < nWatch; ++k)
        watchScratch_[k] = cur_[watchWords_[seg.watchBegin + k]];
      SettleContext::clearChanged();
      for (std::uint32_t i = seg.begin; i != seg.end; ++i)
        runUnit(units_[i], profileBase);
      executed += seg.end - seg.begin;
      bool changed = SettleContext::changed();
      if (!changed) {
        for (std::uint32_t k = 0; k < nWatch; ++k) {
          if (watchScratch_[k] != cur_[watchWords_[seg.watchBegin + k]]) {
            changed = true;
            break;
          }
        }
      }
      if (!changed) break;
      if (++iterations >= maxIterationsPerSegment)
        throwUnsettled(maxIterationsPerSegment);
    }
  }
  return executed;
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
