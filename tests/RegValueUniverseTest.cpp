//===- tests/RegValueUniverseTest.cpp - The reduced product, exhaustively -===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what the reduced product (domain/RegValue.h) computes over its whole
/// small universe: the distinct non-bottom values
/// fromTnum(T).refineUnsigned(I).refineSigned(S) over every well-formed
/// tnum T, unsigned interval I and signed range S of a width (38 values at
/// width 2, 1,244 at width 3). Each test hashes the results of the lattice
/// operations, applyBinary and refineByComparison over pairs of universe
/// values and compares the digests with recorded ones. Results are hashed
/// through the accessors, never as raw bytes, so a change of layout that
/// keeps every result keeps every digest; a change of any result does not.
///
/// Width 2 covers every op on every pair. Width 3 covers the lattice ops on
/// every pair, and the binary ops and refinements on every 61st pair; set
/// TNUMS_SLOW_TESTS=1 to also check them on every pair (seconds of CPU in
/// an optimized build). The shift operators need a power-of-two width, so
/// width 3 leaves them out.
///
//===----------------------------------------------------------------------===//

#include "domain/RegValue.h"
#include "support/Checkpoint.h"
#include "support/Table.h"
#include "tnum/TnumEnum.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <set>
#include <span>
#include <vector>

using namespace tnums;

namespace {

constexpr CompareOp EveryCompareOp[] = {
    CompareOp::Eq,  CompareOp::Ne,  CompareOp::Lt,  CompareOp::Le,
    CompareOp::Gt,  CompareOp::Ge,  CompareOp::SLt, CompareOp::SLe,
    CompareOp::SGt, CompareOp::SGe, CompareOp::Set};

constexpr BinaryOp NonShiftOps[] = {
    BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div,
    BinaryOp::Mod, BinaryOp::And, BinaryOp::Or,  BinaryOp::Xor};

/// The components of \p V as read through its accessors.
std::array<uint64_t, 6> components(const RegValue &V) {
  return {V.tnum().value(),
          V.tnum().mask(),
          V.unsignedBounds().min(),
          V.unsignedBounds().max(),
          static_cast<uint64_t>(V.signedBounds().min()),
          static_cast<uint64_t>(V.signedBounds().max())};
}

void mixValue(Fnv1a &Hash, const RegValue &V) {
  Hash.mixU64(V.width());
  Hash.mixU64(V.isBottom());
  if (V.isBottom())
    return;
  for (uint64_t Word : components(V))
    Hash.mixU64(Word);
}

/// The distinct non-bottom fromTnum(T).refineUnsigned(I).refineSigned(S)
/// at \p Width, in the order the nested loops first reach them.
std::vector<RegValue> regValueUniverse(unsigned Width) {
  uint64_t UTop = lowBitsMask(Width);
  SignedRange STop = SignedRange::makeTop(Width);
  std::vector<RegValue> Values;
  std::set<std::array<uint64_t, 6>> Seen;
  for (const Tnum &T : allWellFormedTnums(Width)) {
    RegValue FromT = RegValue::fromTnum(T, Width);
    for (uint64_t UMin = 0; UMin <= UTop; ++UMin)
      for (uint64_t UMax = UMin; UMax <= UTop; ++UMax) {
        RegValue FromU = FromT.refineUnsigned(Interval(UMin, UMax));
        for (int64_t SMin = STop.min(); SMin <= STop.max(); ++SMin)
          for (int64_t SMax = SMin; SMax <= STop.max(); ++SMax) {
            RegValue V = FromU.refineSigned(SignedRange(SMin, SMax));
            if (!V.isBottom() && Seen.insert(components(V)).second)
              Values.push_back(V);
          }
      }
  }
  return Values;
}

struct Digests {
  uint64_t Values = 0;
  uint64_t Lattice = 0;
  uint64_t Binary = 0;
  uint64_t Refine = 0;
};

/// Hashes the universe \p U itself and the lattice ops over every ordered
/// pair of it; then \p Ops through applyBinary and every comparison both
/// ways through refineByComparison, over every \p Stride-th pair.
Digests universeDigests(const std::vector<RegValue> &U,
                        std::span<const BinaryOp> Ops, uint64_t Stride) {
  Digests Out;
  Fnv1a Values;
  for (const RegValue &V : U)
    mixValue(Values, V);
  Out.Values = Values.digest();

  Fnv1a Lattice;
  for (const RegValue &A : U)
    for (const RegValue &B : U) {
      mixValue(Lattice, A.joinWith(B));
      mixValue(Lattice, A.meetWith(B));
      Lattice.mixU64(A.isSubsetOf(B));
      Lattice.mixU64(A == B);
    }
  Out.Lattice = Lattice.digest();

  Fnv1a Binary;
  Fnv1a Refine;
  uint64_t Pairs = U.size() * U.size();
  for (uint64_t K = 0; K < Pairs; K += Stride) {
    const RegValue &A = U[K / U.size()];
    const RegValue &B = U[K % U.size()];
    for (BinaryOp Op : Ops)
      mixValue(Binary, applyBinary(Op, A, B));
    for (CompareOp Op : EveryCompareOp)
      for (bool Taken : {false, true}) {
        RegValue L = A;
        RegValue R = B;
        refineByComparison(Op, Taken, L, R);
        mixValue(Refine, L);
        mixValue(Refine, R);
      }
  }
  Out.Binary = Binary.digest();
  Out.Refine = Refine.digest();
  return Out;
}

std::string hex(uint64_t Digest) {
  return formatString("%016llx", static_cast<unsigned long long>(Digest));
}

TEST(RegValueUniverse, Width2EveryOpMatchesRecordedDigests) {
  std::vector<RegValue> U = regValueUniverse(2);
  ASSERT_EQ(U.size(), 38u);
  Digests D = universeDigests(U, AllBinaryOps, /*Stride=*/1);
  EXPECT_EQ(hex(D.Values), "a010dbcf9c97b3b1") << "universe";
  EXPECT_EQ(hex(D.Lattice), "055dcf225712bdf2") << "join/meet/order/==";
  EXPECT_EQ(hex(D.Binary), "28f9c766bf9f379a") << "applyBinary";
  EXPECT_EQ(hex(D.Refine), "d37e94e0e8569b10") << "refineByComparison";
}

TEST(RegValueUniverse, Width3MatchesRecordedDigests) {
  std::vector<RegValue> U = regValueUniverse(3);
  ASSERT_EQ(U.size(), 1244u);
  Digests D = universeDigests(U, NonShiftOps, /*Stride=*/61);
  EXPECT_EQ(hex(D.Values), "8faae43ec89f55e3") << "universe";
  EXPECT_EQ(hex(D.Lattice), "6c1b9d2afba27123") << "join/meet/order/==";
  EXPECT_EQ(hex(D.Binary), "9700c66ec671a8a6") << "applyBinary, stride 61";
  EXPECT_EQ(hex(D.Refine), "d43d9bf04fb667ca")
      << "refineByComparison, stride 61";

  const char *Slow = std::getenv("TNUMS_SLOW_TESTS");
  if (!Slow || Slow[0] == '0')
    return;
  Digests Full = universeDigests(U, NonShiftOps, /*Stride=*/1);
  EXPECT_EQ(hex(Full.Binary), "47ea2e49ab51cdda") << "applyBinary";
  EXPECT_EQ(hex(Full.Refine), "c3e6fc1e9b4879d7") << "refineByComparison";
}

} // namespace
