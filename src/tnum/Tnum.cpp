//===- tnum/Tnum.cpp - Tristate numbers (the tnum abstract domain) --------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "tnum/Tnum.h"

#include "support/Table.h"

#include <bit>

using namespace tnums;

Tnum Tnum::makeRange(uint64_t Min, uint64_t Max) {
  assert(Min <= Max && "empty range");
  // Kernel tnum_range(): keep the bits shared by every value in [Min, Max]
  // (the common prefix above the highest bit where Min and Max differ) and
  // mark everything below as unknown.
  uint64_t Chi = Min ^ Max;
  unsigned Bits = MaxBitWidth - static_cast<unsigned>(std::countl_zero(Chi));
  if (Bits > 63)
    return makeUnknown();
  uint64_t Delta = (uint64_t(1) << Bits) - 1;
  return Tnum(Min & ~Delta, Delta);
}

std::optional<Tnum> Tnum::parse(const std::string &Text) {
  if (Text.empty() || Text.size() > MaxBitWidth)
    return std::nullopt;
  uint64_t Value = 0;
  uint64_t Mask = 0;
  for (char C : Text) {
    Value <<= 1;
    Mask <<= 1;
    switch (C) {
    case '0':
      break;
    case '1':
      Value |= 1;
      break;
    case 'u':
    case 'U':
    case 'x':
    case 'X':
      Mask |= 1;
      break;
    default:
      return std::nullopt;
    }
  }
  return Tnum(Value, Mask);
}

uint64_t Tnum::concretizationSize() const {
  if (isBottom())
    return 0;
  unsigned UnknownBits = numUnknownBits();
  if (UnknownBits >= MaxBitWidth)
    return ~uint64_t(0); // Saturate: the true size 2^64 is unrepresentable.
  return uint64_t(1) << UnknownBits;
}

Tnum Tnum::joinWith(const Tnum &Q) const {
  if (isBottom())
    return Q.isBottom() ? makeBottom() : Q;
  if (Q.isBottom())
    return *this;
  // A trit stays known only if both sides know it and agree on it.
  uint64_t NewMask = Mask | Q.Mask | (Value ^ Q.Value);
  return Tnum(Value & ~NewMask, NewMask);
}

Tnum Tnum::meetWith(const Tnum &Q) const {
  if (isBottom() || Q.isBottom())
    return makeBottom();
  // A contradiction (some bit known 0 on one side and known 1 on the other)
  // makes the intersection empty.
  if (((Value ^ Q.Value) & ~Mask & ~Q.Mask) != 0)
    return makeBottom();
  uint64_t NewValue = Value | Q.Value;
  uint64_t NewMask = Mask & Q.Mask;
  return Tnum(NewValue & ~NewMask, NewMask);
}

std::string Tnum::toString(unsigned Width, char UnknownChar) const {
  assert(Width >= 1 && Width <= MaxBitWidth && "width out of range");
  if (isBottom())
    return "<bottom>";
  std::string Text;
  Text.reserve(Width);
  for (unsigned I = Width; I != 0; --I) {
    switch (tritAt(I - 1)) {
    case Trit::Zero:
      Text += '0';
      break;
    case Trit::One:
      Text += '1';
      break;
    case Trit::Unknown:
      Text += UnknownChar;
      break;
    }
  }
  return Text;
}

std::string Tnum::toVmString() const {
  return formatString("(v=0x%016llx, m=0x%016llx)",
                      static_cast<unsigned long long>(Value),
                      static_cast<unsigned long long>(Mask));
}
