//===- tnum/TnumMembers.cpp - Batched concretization enumeration ----------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "tnum/TnumMembers.h"

using namespace tnums;

MemberTable::MemberTable(const std::vector<Tnum> &Universe) {
  uint64_t Total = 0;
  for (const Tnum &T : Universe)
    Total += T.isBottom() ? 0 : uint64_t(1) << T.numUnknownBits();
  Flat.reserve(Total);
  Offsets.reserve(Universe.size() + 1);
  Offsets.push_back(0);
  for (const Tnum &T : Universe) {
    appendMembers(T, Flat);
    Offsets.push_back(Flat.size());
  }
}

uint64_t tnums::memberTableBytes(unsigned Width) {
  // Sigma_{k} C(Width, k) 2^(Width-k) 2^k = 4^Width members of 2^3 bytes;
  // the offset index adds 3^Width + 1 words on top, which the shift below
  // dominates. 2^(2 Width + 3) needs a 65th bit from Width 31 on.
  if (2 * uint64_t(Width) + 3 >= 64)
    return UINT64_MAX;
  return uint64_t(1) << (2 * Width + 3);
}

void tnums::materializeMembers(const Tnum &P, std::vector<uint64_t> &Out) {
  Out.clear();
  appendMembers(P, Out);
}

void tnums::appendMembers(const Tnum &P, std::vector<uint64_t> &Out) {
  if (P.isBottom())
    return;
  assert(P.numUnknownBits() <= 30 && "member materialization infeasible");
  uint64_t Value = P.value();
  uint64_t Mask = P.mask();
  uint64_t Subset = 0;
  for (;;) {
    Out.push_back(Value | Subset);
    if (Subset == Mask)
      break;
    Subset = (Subset - Mask) & Mask;
  }
}
