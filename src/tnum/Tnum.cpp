//===- tnum/Tnum.cpp - Tristate numbers (the tnum abstract domain) --------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "tnum/Tnum.h"

#include "support/Table.h"

using namespace tnums;

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
