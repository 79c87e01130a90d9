//===- tests/DomainTest.cpp - Interval/SignedRange/RegValue tests ---------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "domain/RegValue.h"

#include "support/Random.h"
#include "tnum/TnumEnum.h"
#include "verify/SoundnessChecker.h"

#include <gtest/gtest.h>

#include <vector>

using namespace tnums;

namespace {

//===----------------------------------------------------------------------===//
// Interval
//===----------------------------------------------------------------------===//

TEST(Interval, BasicLattice) {
  Interval A(2, 5);
  Interval B(4, 9);
  EXPECT_EQ(A.joinWith(B), Interval(2, 9));
  EXPECT_EQ(A.meetWith(B), Interval(4, 5));
  EXPECT_TRUE(Interval(4, 5).isSubsetOf(A.joinWith(B)));
  EXPECT_TRUE(Interval(2, 1000).meetWith(Interval(2000, 3000)).isBottom());
  EXPECT_TRUE(Interval::makeBottom().isSubsetOf(A));
  EXPECT_FALSE(A.isSubsetOf(Interval::makeBottom()));
}

TEST(Interval, SizeAndContains) {
  Interval A(10, 13);
  EXPECT_EQ(A.size(), 4u);
  EXPECT_TRUE(A.contains(10));
  EXPECT_TRUE(A.contains(13));
  EXPECT_FALSE(A.contains(14));
  EXPECT_EQ(Interval::makeTop(64).size(), ~uint64_t(0));
  EXPECT_EQ(Interval::makeBottom().size(), 0u);
}

TEST(Interval, AddNoOverflow) {
  EXPECT_EQ(intervalAdd(Interval(1, 2), Interval(10, 20), 8),
            Interval(11, 22));
}

TEST(Interval, AddOverflowGoesTop) {
  EXPECT_EQ(intervalAdd(Interval(200, 250), Interval(10, 60), 8),
            Interval::makeTop(8));
}

TEST(Interval, SubUnderflowGoesTop) {
  EXPECT_EQ(intervalSub(Interval(5, 10), Interval(3, 4), 8), Interval(1, 7));
  EXPECT_EQ(intervalSub(Interval(5, 10), Interval(6, 7), 8),
            Interval::makeTop(8));
}

TEST(Interval, MulAndShift) {
  EXPECT_EQ(intervalMul(Interval(3, 5), Interval(2, 4), 8), Interval(6, 20));
  EXPECT_EQ(intervalMul(Interval(100, 200), Interval(2, 3), 8),
            Interval::makeTop(8));
  EXPECT_EQ(intervalShl(Interval(1, 3), 2, 8), Interval(4, 12));
  EXPECT_EQ(intervalShl(Interval(100, 200), 2, 8), Interval::makeTop(8));
  EXPECT_EQ(intervalShr(Interval(8, 64), 3), Interval(1, 8));
}

TEST(Interval, DivConventions) {
  EXPECT_EQ(intervalDiv(Interval(10, 20), Interval::makeConstant(2), 8),
            Interval(5, 10));
  // Divisor range including zero: result may be 0 (BPF x/0) or tiny.
  Interval R = intervalDiv(Interval(10, 20), Interval(0, 3), 8);
  EXPECT_TRUE(R.contains(0));
  EXPECT_TRUE(R.contains(20));
}

TEST(Interval, RandomizedSoundness) {
  // Sampled soundness of every interval op at width 8.
  Xoshiro256 Rng(101);
  for (int I = 0; I != 3000; ++I) {
    uint64_t AMin = Rng.nextBelow(256), ASpan = Rng.nextBelow(256 - AMin);
    uint64_t BMin = Rng.nextBelow(256), BSpan = Rng.nextBelow(256 - BMin);
    Interval A(AMin, AMin + ASpan);
    Interval B(BMin, BMin + BSpan);
    uint64_t X = AMin + Rng.nextBelow(ASpan + 1);
    uint64_t Y = BMin + Rng.nextBelow(BSpan + 1);
    EXPECT_TRUE(intervalAdd(A, B, 8).contains((X + Y) & 0xff));
    EXPECT_TRUE(intervalSub(A, B, 8).contains((X - Y) & 0xff));
    EXPECT_TRUE(intervalMul(A, B, 8).contains((X * Y) & 0xff));
    EXPECT_TRUE(intervalAnd(A, B).contains(X & Y));
    EXPECT_TRUE(intervalOr(A, B, 8).contains(X | Y));
    EXPECT_TRUE(
        intervalDiv(A, B, 8).contains(Y == 0 ? 0 : X / Y));
  }
}

//===----------------------------------------------------------------------===//
// SignedRange
//===----------------------------------------------------------------------===//

TEST(SignedRange, TopPerWidth) {
  EXPECT_EQ(SignedRange::makeTop(8), SignedRange(-128, 127));
  EXPECT_EQ(SignedRange::makeTop(64), SignedRange(INT64_MIN, INT64_MAX));
}

TEST(SignedRange, Lattice) {
  SignedRange A(-5, 3);
  SignedRange B(0, 9);
  EXPECT_EQ(A.joinWith(B), SignedRange(-5, 9));
  EXPECT_EQ(A.meetWith(B), SignedRange(0, 3));
  EXPECT_TRUE(SignedRange(4, 9).meetWith(SignedRange(-3, 2)).isBottom());
}

TEST(SignedRange, ArithmeticOverflowGoesTop) {
  EXPECT_EQ(signedAdd(SignedRange(-5, 3), SignedRange(2, 4), 8),
            SignedRange(-3, 7));
  EXPECT_EQ(signedAdd(SignedRange(100, 120), SignedRange(20, 30), 8),
            SignedRange::makeTop(8));
  EXPECT_EQ(signedSub(SignedRange(-100, -90), SignedRange(50, 60), 8),
            SignedRange::makeTop(8));
  EXPECT_EQ(signedNeg(SignedRange(-3, 7), 8), SignedRange(-7, 3));
  EXPECT_EQ(signedNeg(SignedRange(-128, 0), 8), SignedRange::makeTop(8));
  EXPECT_EQ(signedArshift(SignedRange(-16, 8), 2), SignedRange(-4, 2));
}

//===----------------------------------------------------------------------===//
// Bottom encoding: an empty range is Min > Max, with no flag, and every
// empty result is the canonical makeBottom() = (1, 0).
//===----------------------------------------------------------------------===//

/// Every range [Lo, Hi] with Lo <= Hi in [\p Min, \p Max], plus bottom.
template <typename Range, typename T>
std::vector<Range> rangesWithBottom(T Min, T Max) {
  std::vector<Range> Values = {Range::makeBottom()};
  for (T Lo = Min; Lo <= Max; ++Lo)
    for (T Hi = Lo; Hi <= Max; ++Hi)
      Values.emplace_back(Lo, Hi);
  return Values;
}

/// Checks the bottom laws over \p Values; \p Probes are the points tried
/// for membership.
template <typename Range, typename T>
void checkBottomEncoding(const std::vector<Range> &Values,
                         const std::vector<T> &Probes) {
  const Range Bottom = Range::makeBottom();
  EXPECT_TRUE(Bottom.isBottom());
  EXPECT_FALSE(Bottom.isConstant());
  EXPECT_EQ(Bottom.toString(), "<bottom>");
  for (T P : Probes)
    EXPECT_FALSE(Bottom.contains(P)) << P;
  for (const Range &A : Values) {
    EXPECT_TRUE(Bottom.isSubsetOf(A)) << A.toString();
    EXPECT_EQ(A.isSubsetOf(Bottom), A.isBottom()) << A.toString();
    EXPECT_EQ(Bottom.joinWith(A), A) << A.toString();
    EXPECT_EQ(A.joinWith(Bottom), A) << A.toString();
    for (const Range &B : Values) {
      bool Disjoint = A.isBottom() || B.isBottom() || A.max() < B.min() ||
                      B.max() < A.min();
      Range Meet = A.meetWith(B);
      EXPECT_EQ(Meet.isBottom(), Disjoint)
          << A.toString() << " meet " << B.toString();
      if (Disjoint)
        EXPECT_EQ(Meet, Bottom) << A.toString() << " meet " << B.toString();
      else
        EXPECT_NE(Meet, Bottom) << A.toString() << " meet " << B.toString();
    }
  }
}

TEST(Interval, EmptyMeetsAreTheCanonicalBottom) {
  checkBottomEncoding(rangesWithBottom<Interval, uint64_t>(0, 7),
                      std::vector<uint64_t>{0, 1, 2, 7, 8, UINT64_MAX});
  EXPECT_EQ(Interval::makeBottom().size(), 0u);
}

TEST(SignedRange, EmptyMeetsAreTheCanonicalBottom) {
  checkBottomEncoding(
      rangesWithBottom<SignedRange, int64_t>(-4, 3),
      std::vector<int64_t>{INT64_MIN, -4, -1, 0, 1, 3, INT64_MAX});
  EXPECT_FALSE(SignedRange::makeBottom().isNonNegative());
}

TEST(RegValue, BottomsCompareEqualAndContainNothing) {
  RegValue Bottom = RegValue::makeBottom(8);
  RegValue Emptied =
      RegValue::makeConstant(1, 8).meetWith(RegValue::makeConstant(2, 8));
  RegValue Refined = RegValue::fromUnsignedRange(0, 9, 8).refineUnsigned(
      Interval(10, 20));
  for (const RegValue &V : {Emptied, Refined}) {
    EXPECT_TRUE(V.isBottom());
    EXPECT_EQ(V, Bottom);
    EXPECT_TRUE(V.unsignedBounds().isBottom());
    EXPECT_TRUE(V.signedBounds().isBottom());
  }
  EXPECT_NE(Bottom, RegValue::makeBottom(16));
  for (uint64_t C : {uint64_t(0), uint64_t(1), uint64_t(255)}) {
    EXPECT_FALSE(Bottom.contains(C));
    EXPECT_TRUE(Bottom.isSubsetOf(RegValue::makeConstant(C, 8)));
    EXPECT_FALSE(RegValue::makeConstant(C, 8).isSubsetOf(Bottom));
  }
}

//===----------------------------------------------------------------------===//
// RegValue reduced product
//===----------------------------------------------------------------------===//

TEST(RegValue, ConstantIsFullyKnownEverywhere) {
  RegValue V = RegValue::makeConstant(42, 8);
  EXPECT_TRUE(V.isConstant());
  EXPECT_EQ(V.constantValue(), 42u);
  EXPECT_EQ(V.unsignedBounds(), Interval(42, 42));
  EXPECT_EQ(V.signedBounds(), SignedRange(42, 42));
  EXPECT_TRUE(V.contains(42));
  EXPECT_FALSE(V.contains(43));
}

TEST(RegValue, CanonicalConstantsAreReducedAtEveryWidth) {
  // makeTop/makeBottom/makeConstant skip sync(); fromTnum and
  // fromUnsignedRange still reduce. A constant built without reaching the
  // reduction's fixpoint therefore compares unequal here.
  Xoshiro256 Rng(0xCA70);
  for (unsigned W = 1; W <= MaxBitWidth; ++W) {
    EXPECT_EQ(RegValue::makeTop(W),
              RegValue::fromTnum(Tnum::makeUnknown(W), W))
        << "width " << W;

    RegValue Bottom = RegValue::makeBottom(W);
    EXPECT_TRUE(Bottom.isBottom()) << "width " << W;
    EXPECT_EQ(Bottom.width(), W);
    EXPECT_TRUE(Bottom.tnum().isBottom());
    EXPECT_TRUE(Bottom.unsignedBounds().isBottom());
    EXPECT_TRUE(Bottom.signedBounds().isBottom());

    uint64_t SignBit = uint64_t(1) << (W - 1);
    std::vector<uint64_t> Samples{0, 1, lowBitsMask(W), SignBit,
                                  SignBit - 1};
    for (int I = 0; I != 32; ++I)
      Samples.push_back(truncateToWidth(Rng.next(), W));
    for (uint64_t C : Samples) {
      EXPECT_EQ(RegValue::makeConstant(C, W),
                RegValue::fromUnsignedRange(C, C, W))
          << "width " << W << ", constant " << C;
    }
  }
}

TEST(RegValue, PaperIntroReduction) {
  // x abstracted to tnum 01µ0 must yield umax <= 6 < 8: the fact the
  // analyzer uses to prove the access safe.
  RegValue V = RegValue::fromTnum(*Tnum::parse("01u0"), 4);
  EXPECT_EQ(V.unsignedBounds().min(), 4u);
  EXPECT_EQ(V.unsignedBounds().max(), 6u);
  EXPECT_TRUE(V.signedBounds().isNonNegative());
}

TEST(RegValue, RangeRefinesTnum) {
  // [8, 11] forces the common high-bit prefix 10xx into the tnum.
  RegValue V = RegValue::fromUnsignedRange(8, 11, 4);
  EXPECT_EQ(V.tnum(), *Tnum::parse("10uu"));
}

TEST(RegValue, SignedUnsignedSync) {
  // A non-negative signed range within width 8 pins the sign bit to 0.
  RegValue V = RegValue::makeTop(8).refineSigned(SignedRange(0, 100));
  EXPECT_EQ(V.tnum().tritAt(7), Trit::Zero);
  EXPECT_LE(V.unsignedBounds().max(), 127u);
}

TEST(RegValue, NegativeSignedRangePinsSignBit) {
  RegValue V = RegValue::makeTop(8).refineSigned(SignedRange(-100, -1));
  EXPECT_EQ(V.tnum().tritAt(7), Trit::One);
  EXPECT_GE(V.unsignedBounds().min(), 128u);
}

TEST(RegValue, ContradictionCollapsesToBottom) {
  RegValue V = RegValue::makeConstant(5, 8);
  EXPECT_TRUE(V.refineUnsigned(Interval(6, 10)).isBottom());
  EXPECT_TRUE(V.refineTnum(Tnum::makeConstant(4)).isBottom());
  EXPECT_TRUE(V.refineSigned(SignedRange(-3, 4)).isBottom());
}

TEST(RegValue, MeetJoinRoundTrip) {
  RegValue A = RegValue::fromUnsignedRange(0, 10, 8);
  RegValue B = RegValue::fromUnsignedRange(5, 20, 8);
  RegValue J = A.joinWith(B);
  RegValue M = A.meetWith(B);
  EXPECT_TRUE(A.isSubsetOf(J));
  EXPECT_TRUE(B.isSubsetOf(J));
  EXPECT_TRUE(M.isSubsetOf(A));
  EXPECT_TRUE(M.isSubsetOf(B));
  EXPECT_EQ(M.unsignedBounds(), Interval(5, 10));
}

TEST(RegValue, SyncIsSoundExhaustiveWidth4) {
  // For every width-4 tnum, the reduced product must still contain every
  // member after reduction (reduction refines, never drops).
  for (const Tnum &T : allWellFormedTnums(4)) {
    RegValue V = RegValue::fromTnum(T, 4);
    forEachMember(T, [&](uint64_t X) { EXPECT_TRUE(V.contains(X)); });
  }
}

class RegValueBinary : public ::testing::TestWithParam<BinaryOp> {};

TEST_P(RegValueBinary, SoundOnRandomWidth8Inputs) {
  BinaryOp Op = GetParam();
  Xoshiro256 Rng(0xABCD + static_cast<uint64_t>(Op));
  for (int I = 0; I != 2000; ++I) {
    Tnum TP = randomWellFormedTnum(Rng, 8);
    Tnum TQ = randomWellFormedTnum(Rng, 8);
    RegValue P = RegValue::fromTnum(TP, 8);
    RegValue Q = RegValue::fromTnum(TQ, 8);
    RegValue R = applyBinary(Op, P, Q);
    // Sample concrete operand pairs.
    for (int S = 0; S != 8; ++S) {
      uint64_t X = TP.value() | (Rng.next() & TP.mask());
      uint64_t Y = TQ.value() | (Rng.next() & TQ.mask());
      uint64_t Z = applyConcreteBinary(Op, X, Y, 8);
      EXPECT_TRUE(R.contains(Z))
          << binaryOpName(Op) << " P=" << P.toString() << " Q=" << Q.toString()
          << " x=" << X << " y=" << Y << " z=" << Z << " R=" << R.toString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, RegValueBinary, ::testing::ValuesIn(AllBinaryOps),
    [](const ::testing::TestParamInfo<BinaryOp> &Info) {
      return std::string(binaryOpName(Info.param));
    });

//===----------------------------------------------------------------------===//
// Branch refinement
//===----------------------------------------------------------------------===//

constexpr CompareOp AllCompareOps[] = {
    CompareOp::Eq,  CompareOp::Ne,  CompareOp::Lt,  CompareOp::Le,
    CompareOp::Gt,  CompareOp::Ge,  CompareOp::SLt, CompareOp::SLe,
    CompareOp::SGt, CompareOp::SGe, CompareOp::Set};

TEST(Refinement, EqMeetsBothSides) {
  RegValue L = RegValue::fromUnsignedRange(0, 10, 8);
  RegValue R = RegValue::fromUnsignedRange(5, 20, 8);
  refineByComparison(CompareOp::Eq, /*Taken=*/true, L, R);
  EXPECT_EQ(L.unsignedBounds(), Interval(5, 10));
  EXPECT_EQ(R.unsignedBounds(), Interval(5, 10));
}

TEST(Refinement, UltExcludesUpperPart) {
  RegValue L = RegValue::makeTop(8);
  RegValue R = RegValue::makeConstant(8, 8);
  refineByComparison(CompareOp::Lt, /*Taken=*/true, L, R);
  EXPECT_EQ(L.unsignedBounds(), Interval(0, 7));
  refineByComparison(CompareOp::Lt, /*Taken=*/false, L, R);
  // Now L < 8 and L >= 8: contradiction.
  EXPECT_TRUE(L.isBottom());
}

TEST(Refinement, PaperIntroBranch) {
  // if (x > 8) goto reject -- fall-through knows x <= 8.
  RegValue X = RegValue::makeTop(64);
  RegValue K = RegValue::makeConstant(8, 64);
  refineByComparison(CompareOp::Gt, /*Taken=*/false, X, K);
  EXPECT_EQ(X.unsignedBounds().max(), 8u);
}

TEST(Refinement, JsetPinsSingleBit) {
  RegValue L = RegValue::makeTop(8);
  RegValue R = RegValue::makeConstant(0x10, 8);
  refineByComparison(CompareOp::Set, /*Taken=*/true, L, R);
  EXPECT_EQ(L.tnum().tritAt(4), Trit::One);
  RegValue L2 = RegValue::makeTop(8);
  refineByComparison(CompareOp::Set, /*Taken=*/false, L2, R);
  EXPECT_EQ(L2.tnum().tritAt(4), Trit::Zero);
}

TEST(Refinement, NeTrimsEndpointConstant) {
  RegValue L = RegValue::fromUnsignedRange(5, 10, 8);
  RegValue R = RegValue::makeConstant(5, 8);
  refineByComparison(CompareOp::Ne, /*Taken=*/true, L, R);
  EXPECT_EQ(L.unsignedBounds().min(), 6u);
}

TEST(Refinement, InfeasibleBranchGoesBottom) {
  RegValue L = RegValue::makeConstant(3, 8);
  RegValue R = RegValue::makeConstant(3, 8);
  refineByComparison(CompareOp::Ne, /*Taken=*/true, L, R);
  EXPECT_TRUE(L.isBottom());
}

class RefinementSoundness : public ::testing::TestWithParam<CompareOp> {};

TEST_P(RefinementSoundness, KeepsSatisfyingPairs) {
  // Soundness of refineByComparison: every concrete pair satisfying the
  // assumed branch direction must survive refinement. Randomized at
  // width 8 over tnum-shaped inputs.
  CompareOp Op = GetParam();
  Xoshiro256 Rng(0x5EED + static_cast<uint64_t>(Op));
  for (int I = 0; I != 2000; ++I) {
    Tnum TL = randomWellFormedTnum(Rng, 8);
    Tnum TR = randomWellFormedTnum(Rng, 8);
    RegValue L0 = RegValue::fromTnum(TL, 8);
    RegValue R0 = RegValue::fromTnum(TR, 8);
    for (bool Taken : {false, true}) {
      RegValue L = L0;
      RegValue R = R0;
      refineByComparison(Op, Taken, L, R);
      for (int S = 0; S != 8; ++S) {
        uint64_t X = TL.value() | (Rng.next() & TL.mask());
        uint64_t Y = TR.value() | (Rng.next() & TR.mask());
        if (applyConcreteCompare(Op, X, Y, 8) != Taken)
          continue;
        EXPECT_TRUE(L.contains(X) && R.contains(Y))
            << compareOpName(Op) << " taken=" << Taken << " x=" << X
            << " y=" << Y << " L=" << L.toString() << " R=" << R.toString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCompares, RefinementSoundness, ::testing::ValuesIn(AllCompareOps),
    [](const ::testing::TestParamInfo<CompareOp> &Info) {
      return std::string(compareOpName(Info.param));
    });

} // namespace
