// The settle program both kernels run: a one-time lowering of the
// elaborated module tree into a word-packed state arena plus an op tape,
// run under one of two schedules.
//
// A single lowering pass builds the program:
//
//  * every wire an op touches is assigned a fixed field of a word of a
//    contiguous std::uint64_t arena, which describe() packs with a group
//    of related wires (packedWord), so moving the group is one masked word
//    copy;
//  * every module contributes, via Module::describe(), ops (plain function
//    pointers over the arena, no virtual dispatch), each with the bits it
//    reads and drives, as masks over arena words.
//
// Kernel::Compiled levelizes the units over the bit-level writer/reader
// relation (a reader depends on every writer whose mask meets its own in
// the same word; Kahn's algorithm) into one linear tape that runs exactly
// once per settle.  RASoC blocks talk through val/ack nets that end at
// registers, so a network has no combinational cycle; a cycle in the
// declared units is a build error (std::runtime_error naming its modules),
// and so is a module without a lowering (std::logic_error naming it).
//
// Kernel::Naive keeps the units in lowering order and re-runs the whole
// tape until a pass changes no arena word and sets no SettleContext flag,
// so it never reads the declared masks.  A module without a lowering
// becomes one unit calling its evaluate() and one edge entry calling its
// clockEdge(), and its children are walked in turn.
//
// The clock edge lowers the same way under both schedules: an edge tape of
// ops in preorder (a module, then each child's subtree), word/member-level
// or clockEdgeOne() calls (Lowering::edgeCall).  Edge ops mutate
// registered state and counters only, never wires, so tick listeners and
// FlowTracer observe the pre-edge settled wires.
//
// Wire<->arena coherence: bound wires write through to their slice on
// set()/force() (the poke window keeps working) and read through on get()
// (Wire::refreshFromArena), so every reader of wire state - telemetry,
// tracers, testbenches - sees settled values with no kernel-specific code
// and the settle loop never pays a flush pass for wires nobody reads.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/module.hpp"
#include "sim/simulator.hpp"
#include "sim/wire.hpp"

namespace rasoc::sim {

// Op functions are plain function pointers over the raw arena.  `ctx`
// points at a context struct owned by the describing module (word
// indices, parameters, raw pointers to registered state); it must stay
// valid until the program is rebuilt, which the module guarantees by
// owning it.
using OpFn = void (*)(std::uint64_t* words, void* ctx);

// --- arena accessors for op functions --------------------------------------

// Whole-field access to words laid out by Lowering::packedWord: replace the
// bits under `mask` (`bits` must already sit at their shifts).
inline void opPutBits(std::uint64_t* words, std::uint32_t w,
                      std::uint64_t mask, std::uint64_t bits) {
  words[w] = (words[w] & ~mask) | (bits & mask);
}

// Low `width` bits set (width <= 64).
constexpr std::uint64_t fieldMask(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

// One wire's fixed place in a word packed by Lowering::packedWord: `width`
// bits at `shift` (default: 1 for bools, 32 for integers).  A narrow
// integer field must be wide enough for every value the wire carries: the
// arena keeps only the low `width` bits.
struct WordField {
  template <typename T>
  WordField(const Wire<T>& w, unsigned shift,
            unsigned width = std::is_same_v<T, bool> ? 1u : 32u)
      : wire(&w),
        value(w.arenaValueSlot()),
        shift(static_cast<std::uint8_t>(shift)),
        width(static_cast<std::uint8_t>(width)) {
    static_assert(std::is_integral_v<T> &&
                      (std::is_same_v<T, bool> || sizeof(T) == 4),
                  "bindings store bools or raw 4-byte integrals");
    // Width 1 is how the bind-time import and the unbind-time flush
    // recognise a bool slot.
    if (std::is_same_v<T, bool> != (width == 1))
      throw std::logic_error("WordField: bools take width 1, integers >= 2");
  }

  const WireBase* wire;
  void* value;
  std::uint8_t shift;
  std::uint8_t width;
};

// The bits under `mask` of arena word `word` (an index from packedWord).
struct WordBits {
  std::uint32_t word;
  std::uint64_t mask;
};

// An op's read or write declaration: a braced list of WordBits or any
// contiguous container of them.
struct WordBitsList : std::span<const WordBits> {
  using span::span;
  WordBitsList(std::initializer_list<WordBits> bits)
      : span(bits.begin(), bits.size()) {}
};

class CompiledProgram;

// The interface Module::describe() implementations program against.
// Placement is idempotent per layout: the first packedWord() call
// allocates, later calls with the same fields get the same word, so
// producer and consumer modules agree on placement without coordination.
class Lowering {
 public:
  // Co-allocates `fields` in one fresh word at their fixed shifts and
  // returns the word index; unlisted bits stay unbound.  Idempotent per
  // layout: a later call with the same fields in the same order returns the
  // same word.  Throws std::logic_error when fields overlap or leave the
  // word, or when some field wire was placed before by a different layout.
  std::uint32_t packedWord(std::span<const WordField> fields);
  std::uint32_t packedWord(std::initializer_list<WordField> fields) {
    return packedWord(std::span<const WordField>(fields.begin(),
                                                 fields.size()));
  }

  // Word index of an already placed wire: lets a helper that always places
  // a group whole skip rebuilding the group's field list.
  std::optional<std::uint32_t> placedWord(const WireBase& w) const;

  // --- settle-phase units -----------------------------------------------
  //
  // The read/write lists drive levelization only; they must cover every
  // placed bit the op reads or writes, through the arena or through the
  // Wire objects (whose get()/set() read and write through).  Registered
  // state read through raw pointers needs no declaration (it only changes
  // at edges).  Throws std::logic_error for a word that was never placed.
  void op(OpFn fn, void* ctx, WordBitsList reads, WordBitsList writes);

  // --- edge tape --------------------------------------------------------
  //
  // Emitted in call order; the build walks the tree in preorder (a module,
  // then each child's subtree) so fused edge ops land exactly where the
  // modules' own clockEdge() calls would.  Edge ops must not write wires
  // or the arena's combinational slices.
  void edgeOp(OpFn fn, void* ctx);
  void edgeCall(Module& m);

  // Requests recursion into the current module's children even though
  // describe() returns true (structural shells like the router top).
  void descendChildren() { descend_ = true; }

  // True under Kernel::Compiled.  A module whose children can either
  // be fused into its own ops or run as themselves (the single-VC
  // channels' paper blocks) fuses them only then.
  bool levelized() const;

  // Copies a trivially-copyable op context into program-owned storage and
  // returns a stable pointer, which every op given it runs on.  Contexts
  // live exactly as long as the program, so describe() implementations
  // need not keep their own copy alive.
  template <typename T>
  T* ctx(const T& proto) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    void* p = allocCtx(sizeof(T), alignof(T));
    std::memcpy(p, &proto, sizeof(T));
    return static_cast<T*>(p);
  }

 private:
  friend class CompiledProgram;
  explicit Lowering(CompiledProgram& prog) : prog_(prog) {}

  void* allocCtx(std::size_t size, std::size_t align);
  bool descendRequested() const { return descend_; }
  void beginModule(Module& m);

  CompiledProgram& prog_;
  Module* current_ = nullptr;
  bool descend_ = false;
};

class CompiledProgram {
 public:
  // Lowers `tops` (the simulator's top-level modules, in registration
  // order) into a runnable program for `kernel`.  Under Compiled, throws
  // std::logic_error when a module has no lowering (describe() returns
  // false) and std::runtime_error when the declared units form a
  // combinational cycle; no wire is bound to an arena then.
  static std::unique_ptr<CompiledProgram> build(
      const std::vector<Module*>& tops,
      Simulator::Kernel kernel = Simulator::Kernel::Compiled);

  ~CompiledProgram() = default;
  CompiledProgram(const CompiledProgram&) = delete;
  CompiledProgram& operator=(const CompiledProgram&) = delete;

  // One settle: Compiled runs every op once in schedule order; Naive
  // runs the whole tape until a pass changes no arena word and sets no
  // SettleContext flag, at most `maxPasses` times, and otherwise throws
  // std::runtime_error naming the modules whose units still change state.
  // Returns the number of ops executed (opCount() per pass).
  std::uint64_t settle(int maxPasses = 1);

  // One clock edge: runs the edge tape (registered state and counters
  // only; wires are untouched, matching the clockEdge() contract).
  void edge() { runTape(edges_); }

  // Materializes every bound wire's final arena value into the wire, then
  // detaches it from the arena (get() reads the cached value once the
  // binding is gone).  Call before rebuilding or switching kernels,
  // while the wires are still alive; the destructor deliberately does not
  // touch wires (they may already be gone when the simulator is torn down).
  void unbindWires() const;

  // --- introspection (tests, stats, docs) -------------------------------
  std::size_t wordCount() const { return wordCount_; }
  std::size_t opCount() const { return units_.size(); }
  std::size_t edgeItemCount() const { return edges_.size(); }
  // Always 0; perfbench/driver.cpp still reads them.
  std::size_t thunkCount() const { return 0; }
  std::size_t iterateSegmentCount() const { return 0; }

 private:
  friend class Lowering;
  CompiledProgram() = default;

  // A wire's slice of the arena.  `value` points at the wire's stored
  // value (bool for width-1 slices, a 4-byte integral otherwise), so the
  // bind-time import and the unbind-time materialization are direct loads
  // and stores of the slice's bits - no per-wire call.
  struct Binding {
    const WireBase* wire;
    void* value;                       // Wire<T>::arenaValueSlot()
    std::uint32_t word;
    std::uint8_t shift;
    std::uint8_t width;                // 1..32
  };

  // Pre-schedule settle op as emitted by Lowering, with the describing
  // module (named in cycle errors).  Its reads are draftBits_[reads,
  // writes), its writes draftBits_[writes, end).
  struct UnitDraft {
    OpFn fn;
    void* ctx;
    Module* module;
    std::uint32_t reads;
    std::uint32_t writes;
    std::uint32_t end;
  };

  // One entry of the settle or edge tape: the function and the context
  // Lowering::ctx allocated for it (a module's ops may share one).
  struct Op {
    OpFn fn;
    void* ctx;
  };

  std::uint32_t newWord() { return wordCount_++; }
  void* allocCtx(std::size_t size, std::size_t align);
  void walk(Lowering& lw, Module& m);
  void finalize();
  void scheduleUnits();
  [[noreturn]] void throwCycle(
      const std::vector<std::uint64_t>& edges,
      const std::vector<std::uint32_t>& indegree) const;
  // Naive schedule: runs `run` and reports whether it changed an arena
  // word or set the SettleContext flag; and the no-fixpoint diagnostic.
  template <class Body>
  bool changes(Body&& run);
  [[noreturn]] void throwNoFixpoint(int maxPasses);

  Simulator::Kernel kernel_ = Simulator::Kernel::Compiled;

  // Arena: the authoritative packed signal state while the program is
  // bound (wires read through to it, see wire.hpp).
  std::vector<std::uint64_t> cur_;
  std::uint32_t wordCount_ = 0;

  // Every placed wire, in placement order; a wire's index here is its
  // binding slot (WireBase::bindingSlot).
  std::vector<Binding> bindings_;
  static constexpr std::size_t kUnplaced = ~std::size_t{0};
  // bindings_ index of `w`, or kUnplaced.
  std::size_t bindingOf(const WireBase* w) const {
    const std::uint32_t slot = w->bindingSlot();
    return slot < bindings_.size() && bindings_[slot].wire == w ? slot
                                                                : kUnplaced;
  }
  void addBinding(const Binding& b) {
    b.wire->setBindingSlot(static_cast<std::uint32_t>(bindings_.size()));
    bindings_.push_back(b);
  }

  std::vector<UnitDraft> drafts_;
  std::vector<WordBits> draftBits_;
  std::vector<Op> units_;
  std::vector<Op> edges_;
  // Naive schedule only: each unit's describing module (named when no
  // fixpoint is reached), and the arena as it was before the running pass.
  std::vector<const Module*> unitModules_;
  std::vector<std::uint64_t> before_;

  void runTape(const std::vector<Op>& tape);

  // Op context arena (Lowering::ctx): chunked so pointers stay stable as
  // it grows; freed wholesale with the program.
  std::vector<std::unique_ptr<unsigned char[]>> ctxChunks_;
  std::size_t ctxChunkUsed_ = 0;
  std::size_t ctxChunkCap_ = 0;
};

}  // namespace rasoc::sim
