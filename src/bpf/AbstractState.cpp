//===- bpf/AbstractState.cpp - Per-point analyzer state -------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "bpf/AbstractState.h"

#include "support/Table.h"

#include <algorithm>

using namespace tnums;
using namespace tnums::bpf;

const char *tnums::bpf::regKindName(RegKind Kind) {
  switch (Kind) {
  case RegKind::Uninit:
    return "uninit";
  case RegKind::Invalid:
    return "invalid";
  case RegKind::Scalar:
    return "scalar";
  case RegKind::PtrToMem:
    return "ptr_to_mem";
  case RegKind::PtrToStack:
    return "ptr_to_stack";
  }
  assert(false && "unknown reg kind");
  return "unknown";
}

std::string AbsReg::toString() const {
  if (!isUsable())
    return regKindName(Kind);
  if (isScalar())
    return Val.toString();
  return formatString("%s+%s", regKindName(Kind), Val.toString().c_str());
}

AbstractState AbstractState::makeEntry(uint64_t MemSize) {
  AbstractState State;
  State.Reachable = true;
  State.Regs[R1] =
      AbsReg::makePointer(RegKind::PtrToMem, RegValue::makeConstant(0));
  State.Regs[R2] = AbsReg::makeScalar(RegValue::makeConstant(MemSize));
  State.Regs[R10] =
      AbsReg::makePointer(RegKind::PtrToStack, RegValue::makeConstant(0));
  return State;
}

// Every program point holds one state, and every visit copies one.
static_assert(sizeof(AbstractState) < 1024,
              "the stack belongs in the lazily grown vector, not inline");

const AbsReg &AbstractState::uninitSlot() {
  static const AbsReg Uninit;
  return Uninit;
}

AbstractState AbstractState::joinWith(const AbstractState &Q) const {
  if (!Reachable)
    return Q;
  if (!Q.Reachable)
    return *this;
  AbstractState Out = *this;
  Out.joinInPlace(Q, [](AbsReg Joined) { return Joined; });
  return Out;
}

bool AbstractState::isSubsetOf(const AbstractState &Q) const {
  if (!Reachable)
    return true;
  if (!Q.Reachable)
    return false;
  for (unsigned I = 0; I != NumRegs; ++I)
    if (!Regs[I].isSubsetOf(Q.Regs[I]))
      return false;
  for (unsigned I = 0, E = std::max(stackDepth(), Q.stackDepth()); I != E; ++I)
    if (!slot(I).isSubsetOf(Q.slot(I)))
      return false;
  return true;
}

bool tnums::bpf::operator==(const AbstractState &A, const AbstractState &B) {
  if (A.Reachable != B.Reachable)
    return false;
  if (!A.Reachable)
    return true;
  if (A.Regs != B.Regs)
    return false;
  for (unsigned I = 0, E = std::max(A.stackDepth(), B.stackDepth()); I != E;
       ++I)
    if (A.slot(I) != B.slot(I))
      return false;
  return true;
}

std::string AbstractState::toString() const {
  if (!Reachable)
    return "<unreachable>";
  std::string Text;
  for (unsigned I = 0; I != NumRegs; ++I) {
    if (Regs[I].kind() == RegKind::Uninit)
      continue; // Keep dumps focused on live registers.
    Text += formatString("%sr%u=%s", Text.empty() ? "" : " ", I,
                         Regs[I].toString().c_str());
  }
  for (unsigned I = 0; I != stackDepth(); ++I) {
    if (Stack[I].kind() == RegKind::Uninit)
      continue;
    Text += formatString("%sfp-%u=%s", Text.empty() ? "" : " ", 8 * (I + 1),
                         Stack[I].toString().c_str());
  }
  return Text.empty() ? "<no live regs>" : Text;
}
