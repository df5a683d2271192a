#include "sim/compile.hpp"

#include <algorithm>
#include <cstddef>
#include <string>

#include "sim/module.hpp"

namespace rasoc::sim {

// --- Lowering ---------------------------------------------------------------

void Lowering::beginModule(Module& m) {
  current_ = &m;
  descend_ = false;
}

bool Lowering::levelized() const {
  return prog_.kernel_ == Simulator::Kernel::Compiled;
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
    prog_.addBinding({f.wire, f.value, word, f.shift, f.width});
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
  return p;
}

void Lowering::op(OpFn fn, void* ctx, WordBitsList reads,
                  WordBitsList writes) {
  // Appends a list's non-empty masks; returns the end of the list.
  auto& bits = prog_.draftBits_;
  const auto add = [&](WordBitsList list) {
    for (const WordBits& b : list) {
      if (b.word >= prog_.wordCount_)
        throw std::logic_error("Lowering::op: '" + current_->name() +
                               "' declares a word that was never placed");
      if (b.mask != 0) bits.push_back(b);
    }
    return static_cast<std::uint32_t>(bits.size());
  };
  const auto first = static_cast<std::uint32_t>(bits.size());
  const std::uint32_t firstWrite = add(reads);
  prog_.drafts_.push_back({fn, ctx, current_, first, firstWrite, add(writes)});
}

void Lowering::edgeOp(OpFn fn, void* ctx) {
  prog_.edges_.push_back({fn, ctx});
}

void Lowering::edgeCall(Module& m) {
  struct EdgeCallCtx {
    Module* module;
  };
  edgeOp([](std::uint64_t*, void* c) {
           static_cast<EdgeCallCtx*>(c)->module->clockEdgeOne();
         },
         ctx(EdgeCallCtx{&m}));
}

// --- build ------------------------------------------------------------------

void CompiledProgram::walk(Lowering& lw, Module& m) {
  lw.beginModule(m);
  if (!m.describe(lw)) {
    if (lw.levelized())
      throw std::logic_error(
          "Kernel::Compiled: module '" + m.name() +
          "' has no lowering; override Module::describe() to declare its "
          "settle units and clock edge");
    // The fixpoint schedule needs no declared bits: the module's own
    // evaluate() and clockEdge(), then its children.
    struct ModuleCtx {
      Module* module;
    };
    lw.op([](std::uint64_t*,
             void* c) { static_cast<ModuleCtx*>(c)->module->evaluateOne(); },
          lw.ctx(ModuleCtx{&m}), {}, {});
    lw.edgeCall(m);
    lw.descendChildren();
  }
  if (lw.descendRequested())
    for (Module* child : m.children()) walk(lw, *child);
}

std::unique_ptr<CompiledProgram> CompiledProgram::build(
    const std::vector<Module*>& tops, Simulator::Kernel kernel) {
  std::unique_ptr<CompiledProgram> prog(new CompiledProgram());
  prog->kernel_ = kernel;
  Lowering lw(*prog);
  for (Module* m : tops) prog->walk(lw, *m);
  prog->finalize();
  return prog;
}

void CompiledProgram::finalize() {
  if (kernel_ == Simulator::Kernel::Compiled) {
    scheduleUnits();  // throws on a cycle, before any wire is bound
  } else {
    units_.reserve(drafts_.size());
    unitModules_.reserve(drafts_.size());
    for (const UnitDraft& d : drafts_) {
      units_.push_back({d.fn, d.ctx});
      unitModules_.push_back(d.module);
    }
    before_.assign(wordCount_, 0);
  }
  cur_.assign(wordCount_, 0);
  // Import the current wire values so the arena starts coherent (the
  // mirror of unbindWires()), then point every wire at its slice;
  // write-through (set/force) and read-through (get) keep the two views
  // coherent from here on.
  for (const Binding& b : bindings_) {
    std::uint64_t bits;
    if (b.width == 1) {
      bits = *static_cast<const bool*>(b.value) ? 1 : 0;
    } else {
      std::uint32_t v;
      std::memcpy(&v, b.value, sizeof(v));
      bits = v & fieldMask(b.width);
    }
    cur_[b.word] |= bits << b.shift;
    b.wire->bindArena(&cur_[b.word], b.shift, b.width);
  }

  drafts_.clear();
  drafts_.shrink_to_fit();
  draftBits_.clear();
  draftBits_.shrink_to_fit();
}

void CompiledProgram::scheduleUnits() {
  const std::uint32_t n = static_cast<std::uint32_t>(drafts_.size());

  // Per-word writer index: the writers of word w are
  // writers[first[w], first[w + 1]), in unit order.  One counting pass
  // sizes the flat array, a backwards pass fills it.
  struct Writer {
    std::uint32_t unit;
    std::uint64_t mask;
  };
  std::vector<std::uint32_t> first(std::size_t{wordCount_} + 1, 0);
  for (const UnitDraft& d : drafts_)
    for (std::uint32_t k = d.writes; k < d.end; ++k)
      ++first[draftBits_[k].word];
  for (std::uint32_t w = 1; w <= wordCount_; ++w) first[w] += first[w - 1];
  std::vector<Writer> writers(first[wordCount_]);
  for (std::uint32_t u = n; u-- > 0;) {
    const UnitDraft& d = drafts_[u];
    for (std::uint32_t k = d.end; k-- > d.writes;)
      writers[--first[draftBits_[k].word]] = {u, draftBits_[k].mask};
  }

  // Writer -> reader edges, as writer << 32 | reader, sorted: each unit's
  // successors are one ascending stretch, starting at succFirst[unit].  A
  // unit reading its own write keeps a self edge, so it never leaves
  // Kahn's queue below and is reported as a cycle.
  std::vector<std::uint64_t> edges;
  for (std::uint32_t u = 0; u < n; ++u)
    for (std::uint32_t k = drafts_[u].reads; k < drafts_[u].writes; ++k) {
      const WordBits& r = draftBits_[k];
      for (std::uint32_t i = first[r.word]; i < first[r.word + 1]; ++i)
        if ((writers[i].mask & r.mask) != 0)
          edges.push_back(std::uint64_t{writers[i].unit} << 32 | u);
    }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<std::uint32_t> succFirst(std::size_t{n} + 1, 0);
  std::vector<std::uint32_t> indegree(n, 0);
  for (const std::uint64_t e : edges) {
    ++succFirst[(e >> 32) + 1];
    ++indegree[static_cast<std::uint32_t>(e)];
  }
  for (std::uint32_t u = 1; u <= n; ++u) succFirst[u] += succFirst[u - 1];

  // Kahn's algorithm: `order` collects the units whose writers have all
  // been placed, and level[u] becomes the longest writer->reader path from
  // a source.  Units left over sit on or behind a cycle.
  std::vector<std::uint32_t> order, level(n, 0);
  order.reserve(n);
  for (std::uint32_t u = 0; u < n; ++u)
    if (indegree[u] == 0) order.push_back(u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t u = order[i];
    for (std::uint32_t k = succFirst[u]; k < succFirst[u + 1]; ++k) {
      const auto v = static_cast<std::uint32_t>(edges[k]);
      level[v] = std::max(level[v], level[u] + 1);
      if (--indegree[v] == 0) order.push_back(v);
    }
  }
  if (order.size() != n) throwCycle(edges, indegree);

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
  for (std::uint32_t u : order)
    units_.push_back({drafts_[u].fn, drafts_[u].ctx});
}

// Names the modules on one cycle among the units Kahn's algorithm left
// over.  Each leftover unit has a leftover writer (that is why its
// in-degree never reached zero), so walking writers from any of them must
// revisit a unit: the walk's tail from that unit is the cycle.
void CompiledProgram::throwCycle(
    const std::vector<std::uint64_t>& edges,
    const std::vector<std::uint32_t>& indegree) const {
  constexpr std::uint32_t kNone = 0xffffffffu;
  const auto n = static_cast<std::uint32_t>(indegree.size());
  std::vector<std::uint32_t> writer(n, kNone);
  std::uint32_t start = kNone;
  for (std::uint32_t u = 0; u < n; ++u)
    if (indegree[u] != 0) start = u;
  for (const std::uint64_t e : edges) {
    const auto u = static_cast<std::uint32_t>(e >> 32);
    const auto v = static_cast<std::uint32_t>(e);
    if (indegree[u] != 0 && indegree[v] != 0) writer[v] = u;
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

std::uint64_t CompiledProgram::settle(int maxPasses) {
  if (kernel_ == Simulator::Kernel::Compiled) {
    runTape(units_);
    return units_.size();
  }
  for (int pass = 1; pass <= maxPasses; ++pass)
    if (!changes([&] { runTape(units_); }))
      return static_cast<std::uint64_t>(pass) * units_.size();
  throwNoFixpoint(maxPasses);
}

// Wire::set marks the SettleContext flag, which covers wires no program
// placed; arena ops leave their trace in the words alone, so the check
// adds nothing to an op.
template <class Body>
bool CompiledProgram::changes(Body&& run) {
  SettleContext::clearChanged();
  std::copy(cur_.begin(), cur_.end(), before_.begin());
  run();
  return SettleContext::changed() || before_ != cur_;
}

// One more pass, unit by unit, names every module whose units still change
// state.  A module that appears alone has a non-idempotent evaluate() -
// typically a wire driven low and then raised within one pass, which trips
// the change flag on every pass.
void CompiledProgram::throwNoFixpoint(int maxPasses) {
  std::string culprits;
  std::vector<const Module*> named;
  for (std::size_t k = 0; k < units_.size(); ++k) {
    const Module* m = unitModules_[k];
    if (!changes([&] { units_[k].fn(cur_.data(), units_[k].ctx); }) ||
        std::find(named.begin(), named.end(), m) != named.end())
      continue;
    named.push_back(m);
    culprits += (culprits.empty() ? "" : ", ") + m->name();
  }
  throw std::runtime_error(
      "Simulator::settle: no combinational fixpoint after " +
      std::to_string(maxPasses) +
      " passes (combinational loop?); still changing: " + culprits);
}

void CompiledProgram::runTape(const std::vector<Op>& tape) {
  for (const Op& op : tape) op.fn(cur_.data(), op.ctx);
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
