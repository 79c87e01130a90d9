//===- tests/SimdMembershipTest.cpp - SIMD membership differential tests --===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential harness pinning the batched SIMD membership path
/// (support/SimdBatch.h, tnum/TnumMembers.h, the row scans of
/// verify/RowScan.h, and campaigns run on them) bit-for-bit to the scalar
/// reference checkers. A vectorized hot path silently diverging from the
/// reference is the failure mode this file exists to catch, so every
/// assertion compares full reports -- witnesses AND exact work counters --
/// not just verdicts.
///
/// Widths stay in 4..8; the width-8 exhaustive mul campaign is gated
/// behind TNUMS_SLOW_TESTS=1 like ParallelSweepTest's.
///
//===----------------------------------------------------------------------===//

#include "support/Random.h"
#include "support/SimdBatch.h"
#include "tnum/TnumEnum.h"
#include "tnum/TnumMembers.h"
#include "tnum/TnumOps.h"
#include "verify/Campaign.h"
#include "verify/RowScan.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <vector>

using namespace tnums;

namespace {

//===----------------------------------------------------------------------===//
// Materialization: TnumMembers must visit gamma(P) in forEachMember's
// exact order.
//===----------------------------------------------------------------------===//

std::vector<uint64_t> membersViaCallback(const Tnum &P) {
  std::vector<uint64_t> Out;
  forEachMember(P, [&](uint64_t X) { Out.push_back(X); });
  return Out;
}

TEST(TnumMembers, MaterializeMatchesForEachMemberOnRandomTnums) {
  Xoshiro256 Rng(20220402);
  std::vector<uint64_t> Materialized;
  for (unsigned Width = 4; Width <= 8; ++Width) {
    for (int I = 0; I != 200; ++I) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      materializeMembers(P, Materialized);
      EXPECT_EQ(Materialized, membersViaCallback(P))
          << "width " << Width << " P=" << P.toString(Width);
    }
  }
}

TEST(TnumMembers, BottomAndConstantEdgeCases) {
  std::vector<uint64_t> Materialized;
  materializeMembers(Tnum::makeBottom(), Materialized);
  EXPECT_TRUE(Materialized.empty());

  materializeMembers(Tnum::makeConstant(42), Materialized);
  EXPECT_EQ(Materialized, std::vector<uint64_t>{42});
}

TEST(TnumMembers, MemberTableSpansAreConsecutiveConcretizations) {
  std::vector<Tnum> Universe = allWellFormedTnums(4);
  MemberTable Table(Universe);
  std::vector<uint64_t> Expected;
  for (size_t Begin : {size_t(0), size_t(5), size_t(40)}) {
    size_t End = Universe.size() - Begin / 2;
    Expected.clear();
    for (size_t I = Begin; I != End; ++I)
      appendMembers(Universe[I], Expected);
    std::span<const uint64_t> Span = Table.span(Begin, End);
    EXPECT_EQ(std::vector<uint64_t>(Span.begin(), Span.end()), Expected);
    std::span<const uint64_t> Offsets = Table.offsets(Begin, End);
    ASSERT_EQ(Offsets.size(), End - Begin + 1);
    for (size_t I = Begin; I != End; ++I)
      EXPECT_EQ(Offsets[I - Begin + 1] - Offsets[I - Begin],
                uint64_t(1) << Universe[I].numUnknownBits());
  }
}

TEST(TnumMembers, MemberTableBytesSaturatesInsteadOfWrapping) {
  // 4^W members of 8 bytes: 2^(2W + 3), which needs a 65th bit from
  // W = 31 on. Wrapping to 0 there would pass every byte cap.
  EXPECT_EQ(memberTableBytes(12), uint64_t(1) << 27);
  EXPECT_EQ(memberTableBytes(30), uint64_t(1) << 63);
  for (unsigned Width : {31u, 32u, 64u})
    EXPECT_EQ(memberTableBytes(Width), UINT64_MAX) << "width " << Width;
  EXPECT_LE(memberTableBytes(12), MemberTableBytesCap);
  EXPECT_GT(memberTableBytes(31), MemberTableBytesCap);
}

//===----------------------------------------------------------------------===//
// Kernel differential: every tier instantiation the host can execute
// must agree with the portable one on every lane count and every bit
// pattern we can throw at it.
//===----------------------------------------------------------------------===//

void expectTierAgreesWithScalar(const SimdKernels *Tier, const char *What) {
  if (!Tier)
    GTEST_SKIP() << "host cannot execute the " << What
                 << " kernels; portable covers it";
  const SimdKernels &Scalar = scalarSimdKernels();
  Xoshiro256 Rng(7);
  uint64_t Z[SimdBatchLanes];
  for (int Trial = 0; Trial != 500; ++Trial) {
    unsigned N = 1 + static_cast<unsigned>(Rng.next() % SimdBatchLanes);
    for (unsigned I = 0; I != N; ++I)
      Z[I] = Rng.next() & 0xFF; // Small values: frequent (non-)membership.
    uint64_t M = Rng.next() & 0xFF;
    uint64_t V = Rng.next() & 0xFF & ~M;
    uint64_t ScalarMask = Scalar.NonMemberMask(Z, N, V, ~M);
    uint64_t TierMask = Tier->NonMemberMask(Z, N, V, ~M);
    ASSERT_EQ(ScalarMask, TierMask) << What << " N=" << N;
    if (N < SimdBatchLanes) { // Bits at and above N must stay clear.
      EXPECT_EQ(ScalarMask >> N, 0u);
    }

    uint64_t AndS = ~uint64_t(0), OrS = 0, AndV = ~uint64_t(0), OrV = 0;
    Scalar.ReduceAndOr(Z, N, &AndS, &OrS);
    Tier->ReduceAndOr(Z, N, &AndV, &OrV);
    EXPECT_EQ(AndS, AndV) << What;
    EXPECT_EQ(OrS, OrV) << What;
  }
}

TEST(SimdKernels, Avx2AgreesWithScalarOnRandomBatches) {
  expectTierAgreesWithScalar(avx2SimdKernels(), "avx2");
}

TEST(SimdKernels, Avx512AgreesWithScalarOnRandomBatches) {
  expectTierAgreesWithScalar(avx512SimdKernels(), "avx512");
}

TEST(SimdKernels, NeonAgreesWithScalarOnRandomBatches) {
  expectTierAgreesWithScalar(neonSimdKernels(), "neon");
}

TEST(SimdKernels, ModeParsingIsTotal) {
  EXPECT_EQ(parseSimdMode("auto"), SimdMode::Auto);
  EXPECT_EQ(parseSimdMode("off"), SimdMode::Off);
  EXPECT_EQ(parseSimdMode("fast"), std::nullopt);
  EXPECT_EQ(parseSimdMode("on"), std::nullopt); // The old alias of auto.
  EXPECT_EQ(parseSimdMode("AUTO"), std::nullopt); // Spellings are exact.
  // Instruction-set tiers are not modes: the row scan has one build.
  for (const char *Retired : {"portable", "avx2", "avx512", "neon"})
    EXPECT_EQ(parseSimdMode(Retired), std::nullopt) << Retired;
  for (SimdMode Mode : {SimdMode::Auto, SimdMode::Off})
    EXPECT_EQ(parseSimdMode(simdModeName(Mode)), Mode);
}

TEST(SimdKernels, ModeResolutionIsTotal) {
  // Off resolves to the portable kernels (which keep the historical
  // "scalar" name), Auto to the best tier the host executes
  // (avx512 > avx2 > neon > portable).
  EXPECT_STREQ(selectSimdKernels(SimdMode::Off).Name, "scalar");
  const SimdKernels *Best = avx512SimdKernels();
  if (!Best)
    Best = avx2SimdKernels();
  if (!Best)
    Best = neonSimdKernels();
  EXPECT_STREQ(selectSimdKernels(SimdMode::Auto).Name,
               Best ? Best->Name : "scalar");
  EXPECT_EQ(simdPathDescription(SimdMode::Off), "scalar reference");
  EXPECT_EQ(simdPathDescription(SimdMode::Auto),
            std::string("batched/") + selectSimdKernels(SimdMode::Auto).Name);
}

//===----------------------------------------------------------------------===//
// Pair-scan differential: the row scan's alpha of one (P, Q) cell must lie
// below R exactly when the scalar member scan finds no violation -- for
// sound R, violated R, bottom R and R with a known bit above the width.
//===----------------------------------------------------------------------===//

/// The pre-batching reference scan: forEachMember x Tnum::contains. True
/// when every opC(x, y) lies in gamma(R).
bool scalarScanHolds(BinaryOp Op, unsigned Width, const Tnum &P,
                     const Tnum &Q, const Tnum &R) {
  bool Holds = true;
  forEachMember(P, [&](uint64_t X) {
    forEachMember(Q, [&](uint64_t Y) {
      Holds = Holds && R.contains(applyConcreteBinary(Op, X, Y, Width));
    });
  });
  return Holds;
}

TEST(BatchedPairScan, AgreesWithScalarScanOnRandomCells) {
  Xoshiro256 Rng(99);
  RowScratch Scratch;
  Tnum Alpha;
  // Ops whose lane loops vectorize and one that does not (div).
  const BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Mul, BinaryOp::Xor,
                          BinaryOp::Div};
  for (unsigned Width = 4; Width <= 8; ++Width) {
    for (int Trial = 0; Trial != 300; ++Trial) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      Tnum Q = randomWellFormedTnum(Rng, Width);
      // Random R: often violated, sometimes sound, occasionally bottom.
      Tnum R = randomWellFormedTnum(Rng, Width);
      if (Trial % 5 == 0)
        R = Tnum::makeBottom();
      // Two more that no member can lie in: a bottom other than
      // (~0, ~0), and R with a known one at the width.
      const Tnum Rs[] = {R, Tnum(R.value() | 1, R.mask() | 1),
                         Tnum(R.value() | (uint64_t(1) << Width), R.mask())};
      for (BinaryOp Op : Ops) {
        optimalAbstractRow(materializeRow(Op, Width, P, {&Q, 1}, Scratch),
                           Scratch, {&Alpha, 1});
        for (const Tnum &Result : Rs)
          EXPECT_EQ(scalarScanHolds(Op, Width, P, Q, Result),
                    Alpha.isSubsetOf(Result))
              << binaryOpName(Op) << " width " << Width
              << " P=" << P.toString(Width) << " Q=" << Q.toString(Width)
              << " R=(" << Result.value() << ", " << Result.mask() << ")";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Whole-report equivalence: a campaign in both SimdModes must report
// exactly what the scalar serial checkers report. Campaign grids have
// member tables, so Auto joins constant-row table rows, and the lane loop
// runs only to build those rows; the optimalAbstractRow tests below run
// the lane loop over gamma(P) itself. RowScan.* (ParallelSweepTest.cpp)
// runs both alpha sources through whole fold passes.
//===----------------------------------------------------------------------===//

constexpr SimdMode AllModes[] = {SimdMode::Off, SimdMode::Auto};

/// \p Spec as one in-memory campaign under \p Config.
CampaignResult runInMemory(const CampaignSpec &Spec,
                           const SweepConfig &Config) {
  CampaignResult Campaign = runCampaign(Spec, CampaignIO(), Config);
  EXPECT_TRUE(Campaign.ok()) << Campaign.Error;
  EXPECT_TRUE(Campaign.Complete);
  return Campaign;
}

TEST(SimdSweep, SerialSoundnessBitIdenticalAcrossModesAtWidth4) {
  CampaignSpec Spec;
  for (BinaryOp Op : AllBinaryOps)
    Spec.addGrid(Op, MulAlgorithm::Our, {4}, {CampaignProperty::Soundness});
  for (SimdMode Mode : AllModes) {
    SCOPED_TRACE(simdModeName(Mode));
    SweepConfig Config;
    Config.Simd = Mode;
    CampaignResult Campaign = runInMemory(Spec, Config);
    for (const CampaignCellResult &Cell : Campaign.Cells)
      EXPECT_EQ(checkSoundnessExhaustive(Cell.Cell.Op, 4), Cell.Soundness)
          << binaryOpName(Cell.Cell.Op);
  }
}

TEST(SimdSweep, SerialOptimalityBitIdenticalAcrossModesAtWidth4) {
  CampaignSpec Spec;
  for (BinaryOp Op : {BinaryOp::Add, BinaryOp::Mul, BinaryOp::Div})
    Spec.addGrid(Op, MulAlgorithm::Our, {4}, {CampaignProperty::Optimality});
  for (SimdMode Mode : AllModes) {
    SCOPED_TRACE(simdModeName(Mode));
    SweepConfig Config;
    Config.Simd = Mode;
    CampaignResult Campaign = runInMemory(Spec, Config);
    for (const CampaignCellResult &Cell : Campaign.Cells)
      EXPECT_EQ(checkOptimalityExhaustive(Cell.Cell.Op, 4, MulAlgorithm::Our,
                                          /*StopAtFirst=*/false),
                Cell.Optimality)
          << binaryOpName(Cell.Cell.Op);
  }
}

TEST(SimdSweep, BatchedOptimalAbstractionMatchesScalarFold) {
  // The lane loop over gamma(P) x lanes.
  Xoshiro256 Rng(5);
  RowScratch Scratch;
  for (unsigned Width = 4; Width <= 8; ++Width) {
    for (int Trial = 0; Trial != 200; ++Trial) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      Tnum Q = randomWellFormedTnum(Rng, Width);
      // Sub is the non-commutative lane loop; Div never vectorizes.
      for (BinaryOp Op :
           {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div}) {
        Tnum Row;
        optimalAbstractRow(materializeRow(Op, Width, P, {&Q, 1}, Scratch),
                           Scratch, {&Row, 1});
        EXPECT_EQ(optimalAbstractBinary(Op, P, Q, Width), Row)
            << binaryOpName(Op) << " width " << Width;
      }
    }
  }
}

TEST(SimdSweep, MemoizedOptimalAbstractionMatchesScalarFoldOnBothAxes) {
  // The row scan always lays the lanes over gamma(Q) and walks gamma(P):
  // scan each pair both ways round, so each concretization serves once as
  // the lanes and once as the x axis, long against short and short
  // against long.
  Xoshiro256 Rng(11);
  RowScratch Scratch;
  for (unsigned Width = 4; Width <= 8; ++Width) {
    for (int Trial = 0; Trial != 120; ++Trial) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      Tnum Q = randomWellFormedTnum(Rng, Width);
      for (BinaryOp Op :
           {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div}) {
        for (auto [Lhs, Rhs] : {std::pair{P, Q}, std::pair{Q, P}}) {
          Tnum Row;
          optimalAbstractRow(materializeRow(Op, Width, Lhs, {&Rhs, 1},
                                            Scratch),
                             Scratch, {&Row, 1});
          EXPECT_EQ(optimalAbstractBinary(Op, Lhs, Rhs, Width), Row)
              << binaryOpName(Op) << " width " << Width << " |gamma(lhs)|="
              << (uint64_t(1) << Lhs.numUnknownBits())
              << " |gamma(rhs)|=" << (uint64_t(1) << Rhs.numUnknownBits());
        }
      }
    }
  }
}

TEST(SimdSweep, FusedOptimalityBitIdenticalAcrossSchedulersAndModes) {
  // The row scan must never change a report: cross both simd modes x three
  // scheduler shapes against the serial scalar reference. Sub exercises
  // the non-commutative lane loop; Mul the narrow multiply; Div the
  // branch-free zero-divisor select.
  constexpr unsigned Width = 4;
  const SweepConfig Schedulers[] = {
      {/*NumThreads=*/1, /*ChunkPairs=*/1},
      {/*NumThreads=*/3, /*ChunkPairs=*/17},
      {/*NumThreads=*/0, /*ChunkPairs=*/4096},
  };
  CampaignSpec Spec;
  for (BinaryOp Op : {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul,
                      BinaryOp::Div})
    Spec.addGrid(Op, MulAlgorithm::Our, {Width},
                 {CampaignProperty::Optimality});
  for (SimdMode Mode : AllModes) {
    for (SweepConfig Config : Schedulers) {
      Config.Simd = Mode;
      SCOPED_TRACE(::testing::Message()
                   << simdModeName(Mode) << " threads " << Config.NumThreads
                   << " chunk " << Config.ChunkPairs);
      CampaignResult Campaign = runInMemory(Spec, Config);
      for (const CampaignCellResult &Cell : Campaign.Cells)
        EXPECT_EQ(checkOptimalityExhaustive(Cell.Cell.Op, Width,
                                            MulAlgorithm::Our,
                                            /*StopAtFirst=*/false),
                  Cell.Optimality)
            << binaryOpName(Cell.Cell.Op);
    }
  }
}

//===----------------------------------------------------------------------===//
// Witness determinism of the SIMD sweep: the same five scheduler configs
// ParallelSweepTest exercises, now crossed with the simd modes. A broken
// operator must yield the serial-order-first counterexample everywhere.
//===----------------------------------------------------------------------===//

/// tnum_add with its lowest unknown trit laundered into a known bit (the
/// same deliberately unsound operator ParallelSweepTest uses).
Tnum brokenAdd(const Tnum &P, const Tnum &Q, unsigned Width) {
  Tnum R = tnumTruncate(tnumAdd(P, Q), Width);
  uint64_t M = R.mask();
  if (M == 0)
    return R;
  uint64_t Lowest = M & (0 - M);
  return Tnum(R.value(), M & ~Lowest);
}

TEST(SimdSweep, BrokenOperatorWitnessDeterministicAcrossSchedulersAndModes) {
  constexpr unsigned Width = 4;
  // Reference: the scalar one-cell fold pass on one thread walks the grid
  // in serial order and stops at the violation, so its witness and
  // counters are the serial ones a campaign must reproduce.
  const SweepConfig Serial{/*NumThreads=*/1, /*ChunkPairs=*/1, SimdMode::Off};
  SweepGrid Grid = makeSweepGrid(Width, Serial);
  FoldCell Reference(FoldCheck::Soundness, [](const Tnum &P, const Tnum &Q) {
    return brokenAdd(P, Q, Width);
  });
  checkFoldRangeParallel(BinaryOp::Add, Grid, 0, Grid.TotalPairs, Serial,
                         {&Reference, 1});
  const SoundnessReport &Expected = Reference.Soundness;
  ASSERT_TRUE(Expected.Failure.has_value());

  CampaignSpec Spec;
  Spec.addGrid(BinaryOp::Add, MulAlgorithm::Our, {Width},
               {CampaignProperty::Soundness});
  Spec.OperatorOverride = brokenAdd;
  Spec.OverrideTag = "broken-add";
  const SweepConfig Schedulers[] = {
      {/*NumThreads=*/1, /*ChunkPairs=*/1},
      {/*NumThreads=*/2, /*ChunkPairs=*/7},
      {/*NumThreads=*/4, /*ChunkPairs=*/64},
      {/*NumThreads=*/8, /*ChunkPairs=*/4096},
      {/*NumThreads=*/0, /*ChunkPairs=*/257},
  };
  for (SimdMode Mode : AllModes) {
    for (SweepConfig Config : Schedulers) {
      Config.Simd = Mode;
      SCOPED_TRACE(::testing::Message()
                   << simdModeName(Mode) << " threads " << Config.NumThreads
                   << " chunk " << Config.ChunkPairs);
      EXPECT_EQ(Expected, runInMemory(Spec, Config).Cells.at(0).Soundness);
    }
  }
}

//===----------------------------------------------------------------------===//
// Campaign monotonicity agrees with the serial checker, witness included
// (kern_mul is non-monotone at width 5 -- a real, deterministic witness).
//===----------------------------------------------------------------------===//

TEST(SimdSweep, ParallelMonotonicityAgreesWithSerial) {
  // Monotone case: exact quadruple totals must match.
  MonotonicityReport Serial =
      checkMonotonicityExhaustive(BinaryOp::Add, 4, MulAlgorithm::Our);
  EXPECT_TRUE(Serial.holds());
  CampaignSpec Add;
  Add.addGrid(BinaryOp::Add, MulAlgorithm::Our, {4},
              {CampaignProperty::Monotonicity});
  EXPECT_EQ(Serial,
            runInMemory(Add, SweepConfig{/*NumThreads=*/4, /*ChunkPairs=*/64})
                .Cells.at(0)
                .Monotonicity);

  // Non-monotone case: the witness and the serial prefix counts for every
  // scheduler shape.
  MonotonicityReport SerialBad =
      checkMonotonicityExhaustive(BinaryOp::Mul, 5, MulAlgorithm::Kern);
  ASSERT_FALSE(SerialBad.holds());
  CampaignSpec Kern;
  Kern.addGrid(BinaryOp::Mul, MulAlgorithm::Kern, {5},
               {CampaignProperty::Monotonicity});
  for (const SweepConfig &Config :
       {SweepConfig{1, 1}, SweepConfig{3, 100}, SweepConfig{0, 4096}})
    EXPECT_EQ(SerialBad, runInMemory(Kern, Config).Cells.at(0).Monotonicity)
        << "threads " << Config.NumThreads;
}

//===----------------------------------------------------------------------===//
// The exhaustive mul campaign on the SIMD path: width 6 always, width 8
// (the paper's SMT horizon) behind TNUMS_SLOW_TESTS=1.
//===----------------------------------------------------------------------===//

void expectMulCampaignBitIdentical(unsigned Width) {
  // The scalar serial checker: the pre-batching reference.
  CampaignSpec Spec;
  std::vector<SoundnessReport> Reference;
  for (MulAlgorithm Alg : AllMulAlgorithms) {
    Spec.addGrid(BinaryOp::Mul, Alg, {Width}, {CampaignProperty::Soundness});
    Reference.push_back(checkSoundnessExhaustive(BinaryOp::Mul, Width, Alg));
    EXPECT_TRUE(Reference.back().holds()) << mulAlgorithmName(Alg);
  }
  // The SIMD path, serial and parallel scheduling.
  SweepConfig OneThread;
  OneThread.NumThreads = 1;
  for (const SweepConfig &Config : {OneThread, SweepConfig()}) {
    CampaignResult Campaign = runInMemory(Spec, Config);
    for (size_t I = 0; I != Reference.size(); ++I)
      EXPECT_EQ(Reference[I], Campaign.Cells.at(I).Soundness)
          << mulAlgorithmName(Spec.Cells[I].Mul) << ", threads "
          << Config.NumThreads;
  }
}

TEST(SimdSweep, Width6MulCampaignBitIdenticalToScalarSerial) {
  expectMulCampaignBitIdentical(6);
}

TEST(SimdSweep, Width8MulCampaignBitIdenticalWhenSlowTestsEnabled) {
  const char *Enabled = std::getenv("TNUMS_SLOW_TESTS");
  if (!Enabled || Enabled[0] == '0')
    GTEST_SKIP() << "set TNUMS_SLOW_TESTS=1 to run the width-8 campaign "
                    "(the paper's kern_mul SMT horizon; minutes of CPU)";
  expectMulCampaignBitIdentical(8);
}

} // namespace
