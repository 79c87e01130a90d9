//===- bpf/AbstractState.h - Per-point analyzer state -----------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract machine state the analyzer tracks at every program point:
/// one AbsReg per architectural register, where a register is either
/// uninitialized, a scalar (tracked by the RegValue reduced product whose
/// bit-level component is the paper's tnum domain), or a pointer into one
/// of the two memory regions with an abstract offset. This miniaturizes the
/// kernel's bpf_reg_state / bpf_verifier_state pair.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_BPF_ABSTRACTSTATE_H
#define TNUMS_BPF_ABSTRACTSTATE_H

#include "bpf/Insn.h"
#include "domain/RegValue.h"

#include <array>
#include <string>
#include <vector>

namespace tnums {
namespace bpf {

/// What a register holds. Uninit/Invalid are unusable; using one is a
/// verifier violation (not an analysis error).
enum class RegKind : uint8_t {
  Uninit,     ///< Never written on some path.
  Invalid,    ///< Join of incompatible kinds; contents unusable.
  Scalar,     ///< A number, tracked by the reduced-product RegValue.
  PtrToMem,   ///< Context pointer + abstract byte offset.
  PtrToStack, ///< Frame pointer + abstract (signed) byte offset.
};

const char *regKindName(RegKind Kind);

/// One register's abstract contents: a kind plus a RegValue that holds the
/// scalar value (Scalar) or the pointer offset (PtrTo*).
class AbsReg {
public:
  /// Uninitialized (entry state of the scratch registers).
  AbsReg() : Kind(RegKind::Uninit), Val(RegValue::makeBottom()) {}

  static AbsReg makeUninit() { return AbsReg(); }
  static AbsReg makeInvalid() {
    return AbsReg(RegKind::Invalid, RegValue::makeTop());
  }
  static AbsReg makeScalar(RegValue V) {
    return AbsReg(RegKind::Scalar, std::move(V));
  }
  static AbsReg makePointer(RegKind PtrKind, RegValue Offset) {
    assert((PtrKind == RegKind::PtrToMem || PtrKind == RegKind::PtrToStack) &&
           "not a pointer kind");
    return AbsReg(PtrKind, std::move(Offset));
  }

  RegKind kind() const { return Kind; }
  bool isScalar() const { return Kind == RegKind::Scalar; }
  bool isPointer() const {
    return Kind == RegKind::PtrToMem || Kind == RegKind::PtrToStack;
  }
  /// Usable as an operand (reading it is not a violation).
  bool isUsable() const { return isScalar() || isPointer(); }

  /// The scalar value or pointer offset; only valid when usable.
  const RegValue &value() const {
    assert(isUsable() && "value of unusable register");
    return Val;
  }

  /// Least upper bound. Same kinds join their values; incompatible kinds
  /// collapse to Invalid (two Uninits stay Uninit).
  AbsReg joinWith(const AbsReg &Q) const {
    if (Kind == Q.Kind) {
      if (!isUsable())
        return *this; // Uninit ∨ Uninit, Invalid ∨ Invalid.
      return AbsReg(Kind, Val.joinWith(Q.Val));
    }
    return makeInvalid();
  }

  /// Partial order consistent with joinWith.
  bool isSubsetOf(const AbsReg &Q) const {
    if (Q.Kind == RegKind::Invalid)
      return true; // Invalid is the top of the kind lattice.
    if (Kind != Q.Kind)
      return false;
    if (!isUsable())
      return true;
    return Val.isSubsetOf(Q.Val);
  }

  std::string toString() const;

  friend bool operator==(const AbsReg &A, const AbsReg &B) {
    if (A.Kind != B.Kind)
      return false;
    if (!A.isUsable())
      return true;
    return A.Val == B.Val;
  }
  friend bool operator!=(const AbsReg &A, const AbsReg &B) {
    return !(A == B);
  }

private:
  AbsReg(RegKind KindV, RegValue ValV) : Kind(KindV), Val(std::move(ValV)) {}

  RegKind Kind;
  RegValue Val;
};

/// The full abstract machine state at one program point. Unreachable
/// states are the analysis bottom. Besides the register file, the state
/// tracks the 64 8-byte stack slots so that spill/fill round trips (store
/// to r10-k, load back) preserve abstract values, as the kernel verifier
/// does. Slot i covers frame offsets [-8(i+1), -8i); slot contents reuse
/// AbsReg: Uninit = never written, Invalid = corrupted spill, Scalar and
/// PtrTo* = precisely tracked 8-byte spills or "misc" byte data
/// (Scalar top).
///
/// Like the kernel's bpf_func_state (allocated_stack), the stack is stored
/// only down to the deepest slot written so far; every slot past that
/// depth reads Uninit. The depth is representation, not meaning: states
/// that differ only in trailing Uninit slots compare equal. Copies, joins,
/// order tests and equality touch the registers and the stored slots only.
struct AbstractState {
  bool Reachable = false;
  std::array<AbsReg, NumRegs> Regs;

  /// The slot index covering frame offset \p Offset (which must be in
  /// [-StackSize, -1]).
  static unsigned slotIndex(int64_t Offset) {
    assert(Offset < 0 && Offset >= -static_cast<int64_t>(StackSize) &&
           "offset outside the frame");
    return static_cast<unsigned>((-Offset - 1) / 8);
  }

  /// The state on entry to a program run against a \p MemSize-byte context
  /// region: R1 = mem pointer (offset 0), R2 = MemSize, R10 = stack
  /// pointer (offset 0), everything else uninitialized.
  static AbstractState makeEntry(uint64_t MemSize);

  static AbstractState makeUnreachable() { return AbstractState(); }

  /// Stack slot \p Index (< NumStackSlots); Uninit past the stored depth.
  const AbsReg &slot(unsigned Index) const {
    assert(Index < NumStackSlots && "slot outside the frame");
    return Index < Stack.size() ? Stack[Index] : uninitSlot();
  }

  /// Writes stack slot \p Index, growing the stored stack to cover it.
  void setSlot(unsigned Index, AbsReg Value) {
    assert(Index < NumStackSlots && "slot outside the frame");
    if (Index >= Stack.size())
      Stack.resize(Index + 1);
    Stack[Index] = std::move(Value);
  }

  /// Number of stored stack slots (deepest written slot + 1).
  unsigned stackDepth() const { return static_cast<unsigned>(Stack.size()); }

  /// Pointwise join; unreachable is the identity.
  AbstractState joinWith(const AbstractState &Q) const;

  /// Joins reachable \p Q into this reachable state in place and returns
  /// whether anything changed. An entry of Q already below this state's
  /// is skipped, since joining it would return the entry unchanged. Every
  /// other entry becomes Grow(Old ∨ New), where \p Grow is the caller's
  /// widening hook (the identity in joinWith).
  template <typename GrowFn>
  bool joinInPlace(const AbstractState &Q, GrowFn Grow);

  /// Pointwise order; unreachable below everything.
  bool isSubsetOf(const AbstractState &Q) const;

  std::string toString() const;

  friend bool operator==(const AbstractState &A, const AbstractState &B);
  friend bool operator!=(const AbstractState &A, const AbstractState &B) {
    return !(A == B);
  }

private:
  static const AbsReg &uninitSlot();

  /// Slots 0 .. stackDepth()-1; deeper slots are Uninit.
  std::vector<AbsReg> Stack;
};

bool operator==(const AbstractState &A, const AbstractState &B);

template <typename GrowFn>
bool AbstractState::joinInPlace(const AbstractState &Q, GrowFn Grow) {
  assert(Reachable && Q.Reachable && "in-place join of unreachable states");
  bool Changed = false;
  auto JoinEntry = [&](AbsReg &Old, const AbsReg &New) {
    if (New.isSubsetOf(Old))
      return;
    AbsReg Grown = Grow(Old.joinWith(New));
    if (Grown == Old)
      return;
    Old = std::move(Grown);
    Changed = true;
  };
  for (unsigned I = 0; I != NumRegs; ++I)
    JoinEntry(Regs[I], Q.Regs[I]);
  if (Stack.size() < Q.Stack.size())
    Stack.resize(Q.Stack.size());
  for (unsigned I = 0; I != Stack.size(); ++I)
    JoinEntry(Stack[I], Q.slot(I));
  return Changed;
}

} // namespace bpf
} // namespace tnums

#endif // TNUMS_BPF_ABSTRACTSTATE_H
