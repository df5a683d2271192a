// Combinational nets for the two-phase clocked simulator.
//
// A Wire<T> models a combinational net: any module may drive it during the
// settle phase, and the simulator brings the network to a fixpoint.  Both
// kernels mirror the integral wires their program places into its
// word-packed arena (see WireBase::bindArena); SettleContext carries the
// per-thread "did this pass change anything" flag with which the naive
// kernel also sees changes to wires no program placed.
//
// Legal poke window: testbenches may set()/force() wires only *between*
// cycles - after step()/settle() returns and before the next settle phase
// begins.  A force() during the settle phase would bypass change tracking
// and leave a stale "fixpoint", so it throws std::logic_error.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace rasoc::sim {

// Global (per-thread) change flag used by the naive settle loop, plus the
// in-settle marker that guards the poke window.  The simulator is
// single-threaded by design; thread_locals keep independent simulators on
// different threads from interfering.
//
// Beside them, the poke count: changes set()/force() made to a wire
// outside a settle phase.  A compiled op that skips a settle while its
// inputs and registered state are at rest (QuietMark) runs in full once
// the count moved, so every driven wire a poke overwrote is re-derived on
// the next settle.  It is process-wide, so a network handed to another
// thread still sees every poke; a poke elsewhere only costs a full run.
class SettleContext {
 public:
  static void clearChanged() { changed_ = false; }
  static void markChanged() {
    changed_ = true;
    if (!inSettle_) markPoked();
  }
  static bool changed() { return changed_; }

  static void enterSettle() { inSettle_ = true; }
  static void exitSettle() { inSettle_ = false; }
  static bool inSettle() { return inSettle_; }

  static void markPoked() { ++pokes_; }
  static std::uint64_t pokes() { return pokes_.load(); }

 private:
  // constinit: every field is constant-initialized, so no access goes
  // through a lazy-init wrapper call.
  static inline constinit thread_local bool changed_ = false;
  static inline constinit thread_local bool inSettle_ = false;
  static inline constinit std::atomic<std::uint64_t> pokes_{0};
};

// A compiled op's memo of its last full run, for an exact early-out: the
// key (everything combinational or registered its outputs depend on,
// packed) and the poke count at that run.  While both are unchanged the
// op may skip: each bit it drives has no other driver and edges write no
// combinational bit, so its outputs still sit in the arena.  An op whose
// key leaves out registered state has the module invalidate() the mark at
// every edge that may change that state.
class QuietMark {
 public:
  // True when the key and the poke count are those of the last full run;
  // otherwise records them, and the caller runs in full.
  bool unchanged(std::uint64_t key) {
    const std::uint64_t pokes = SettleContext::pokes();
    if (pokes == pokes_ && key == key_) return true;
    pokes_ = pokes;
    key_ = key;
    return false;
  }
  // The next unchanged() is false (the count never reaches kNever).
  void invalidate() { pokes_ = kNever; }

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::uint64_t pokes_ = kNever;
  std::uint64_t key_ = 0;
};

// Type-erased base: identity for placement plus the program's arena
// binding.
class WireBase {
 public:
  // --- arena binding (sim/compile.hpp) --------------------------------------
  //
  // While a program (either kernel's) places the wire, its value is
  // mirrored into a (word, shift) slice of the word-packed state arena.
  // set()/force() write through to the slice, so the arena never goes
  // stale between settles even when a testbench pokes wires or host-side
  // code drives them; reads refresh from the slice (Wire::get), so settled
  // op results are visible without any flush pass.
  //
  // Binding is const because the lowering reaches read-only wires through
  // const references: it is kernel bookkeeping layered onto the net, not
  // value state.  Lifetime contract: the CompiledProgram unbinds wires
  // when it is rebuilt or the simulator switches kernels; a wire
  // destroyed together with its simulator may keep a dangling binding,
  // which is only ever dereferenced by set()/force() on that wire.  The
  // slice is `width` bits (at most 32) at `shift` of *word.
  void bindArena(std::uint64_t* word, unsigned shift, unsigned width) const {
    arenaWord_ = word;
    arenaShift_ = static_cast<std::uint8_t>(shift);
    arenaMask_ = width >= 32 ? ~std::uint32_t{0}
                             : (std::uint32_t{1} << width) - 1;
  }
  void unbindArena() const { arenaWord_ = nullptr; }
  bool arenaBound() const { return arenaWord_ != nullptr; }

  // Index of this wire's binding in the program last placing it: a lookup
  // hint for Lowering::packedWord, which confirms it against its own
  // binding table (a stale hint from an older program simply misses).
  std::uint32_t bindingSlot() const { return bindingSlot_; }
  void setBindingSlot(std::uint32_t slot) const { bindingSlot_ = slot; }

 protected:
  void storeArenaBits(std::uint64_t bits) const {
    const std::uint64_t mask = std::uint64_t{arenaMask_} << arenaShift_;
    *arenaWord_ = (*arenaWord_ & ~mask) | ((bits << arenaShift_) & mask);
  }
  std::uint64_t loadArenaBits() const {
    return (*arenaWord_ >> arenaShift_) & arenaMask_;
  }

 private:
  // Arena slice (null word pointer = unbound) and the binding-slot hint.
  // Mutable: see bindArena().  Packed so a Wire's value still fits the
  // base's tail padding.
  mutable std::uint64_t* arenaWord_ = nullptr;
  mutable std::uint32_t arenaMask_ = 0;  // low `width` bits, unshifted
  mutable std::uint32_t bindingSlot_ = ~std::uint32_t{0};
  mutable std::uint8_t arenaShift_ = 0;
};

// A combinational net holding a value of type T.  T must be equality
// comparable.  set() records a change in the SettleContext and writes
// through to the arena slice when bound.
template <typename T>
class Wire : public WireBase {
 public:
  Wire() = default;
  explicit Wire(T initial) : value_(std::move(initial)) {}

  // While bound, the arena is authoritative between settles; a bound wire
  // refreshes its cached value from its slice on every read, so observers
  // (edge calls, tick listeners, telemetry, testbenches) see settled state
  // without the kernel ever flushing wires it computed.  Unbound wires (no
  // program placed them) pay one predictable null check.
  const T& get() const {
    refreshFromArena();
    return value_;
  }

  void set(const T& v) {
    refreshFromArena();
    if (!(value_ == v)) {
      value_ = v;
      syncArena();
      SettleContext::markChanged();
    }
  }

  // Forces a value without raising the settle context's change flag (it
  // counts as a poke); used by testbenches between cycles (the legal poke
  // window, see the header comment).  Both kernels re-derive every driven
  // wire on the next settle, so only undriven wires keep a forced value.
  // Throws std::logic_error when called during a settle phase: such a
  // force would corrupt the fixpoint.
  void force(const T& v) {
    if (SettleContext::inSettle())
      throw std::logic_error(
          "Wire::force during the settle phase: poke wires only between "
          "cycles (after step()/settle() returns)");
    refreshFromArena();
    if (!(value_ == v)) {
      value_ = v;
      syncArena();
      SettleContext::markPoked();
    }
  }

  // Raw pointer to the stored value, through which a program imports the
  // wire's value into its arena slice at bind time and stores the final
  // arena bits at unbind time (so get() stays correct once the binding is
  // gone).  Same bookkeeping-on-a-const-net rationale as bindArena().
  T* arenaValueSlot() const { return const_cast<T*>(&value_); }

 private:
  // Copies the current value into the bound arena slice (no-op when
  // unbound), so set()/force() keep the slice fresh.
  void syncArena() const {
    if constexpr (std::is_integral_v<T>) {
      if (arenaBound()) storeArenaBits(toBits(value_));
    }
  }

  // Adopts the arena value when bound (no-op otherwise).  Only integral
  // wires are ever bound.
  void refreshFromArena() const {
    if constexpr (std::is_integral_v<T>) {
      if (arenaBound()) value_ = fromBits(loadArenaBits());
    }
  }

  static std::uint64_t toBits(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return v ? 1u : 0u;
    } else if constexpr (std::is_integral_v<T>) {
      // 32-bit slices store the zero-extended two's-complement pattern.
      return static_cast<std::uint32_t>(v);
    } else {
      return 0;
    }
  }
  static T fromBits(std::uint64_t bits) {
    if constexpr (std::is_same_v<T, bool>) {
      return bits != 0;
    } else if constexpr (std::is_integral_v<T>) {
      return static_cast<T>(static_cast<std::uint32_t>(bits));
    } else {
      return T{};
    }
  }

  // Mutable: a bound wire's authoritative state lives in the arena and
  // value_ is a read-through cache refreshed inside const get().
  mutable T value_{};
};

}  // namespace rasoc::sim
