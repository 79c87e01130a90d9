//===- tests/ParallelSweepTest.cpp - Parallel verification engine tests ---===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel sweep's contract is bit-reproducibility: the engine -- a
/// one-cell in-memory campaign, or a range scan where a test pins the scan
/// itself -- reports exactly what the scalar serial checkers report, for
/// every thread count and chunk size, including the counterexample a
/// deliberately broken operator produces. Widths here stay small so the
/// default suite is quick; set TNUMS_SLOW_TESTS=1 to also run the width-8
/// agreement sweep (the paper's SMT verification horizon for kern_mul;
/// several minutes of CPU).
///
//===----------------------------------------------------------------------===//

#include "tnum/TnumEnum.h"
#include "tnum/TnumOps.h"
#include "verify/Campaign.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace tnums;

namespace {

/// Configurations that exercise the scheduler: serial degenerate path,
/// more threads than this machine likely has, chunks smaller than a row,
/// chunks so large everything lands in one chunk.
const SweepConfig kConfigs[] = {
    {/*NumThreads=*/1, /*ChunkPairs=*/1},
    {/*NumThreads=*/2, /*ChunkPairs=*/7},
    {/*NumThreads=*/4, /*ChunkPairs=*/64},
    {/*NumThreads=*/8, /*ChunkPairs=*/4096},
    {/*NumThreads=*/0, /*ChunkPairs=*/257},
};

/// The engine's merged report for \p Cell: a one-cell in-memory campaign
/// under \p Config, with the rest of the campaign settings from \p Spec.
CampaignCellResult runOneCell(const CampaignCell &Cell,
                              const SweepConfig &Config,
                              CampaignSpec Spec = CampaignSpec()) {
  Spec.Cells = {Cell};
  CampaignResult Campaign = runCampaign(Spec, CampaignIO(), Config);
  EXPECT_TRUE(Campaign.ok()) << Campaign.Error;
  EXPECT_TRUE(Campaign.Complete);
  return Campaign.Cells.at(0);
}

TEST(ParallelSweep, AgreesWithSerialOnEveryOperatorAtWidth4) {
  for (BinaryOp Op : AllBinaryOps) {
    SCOPED_TRACE(binaryOpName(Op));
    SoundnessReport Serial = checkSoundnessExhaustive(Op, 4);
    EXPECT_TRUE(Serial.holds());
    CampaignCell Cell{Op, MulAlgorithm::Our, 4, CampaignProperty::Soundness};
    for (const SweepConfig &Config : kConfigs)
      EXPECT_EQ(Serial, runOneCell(Cell, Config).Soundness);
  }
}

TEST(ParallelSweep, AgreesWithSerialOnEveryMulAlgorithmAtWidth5) {
  SweepConfig Config{/*NumThreads=*/4, /*ChunkPairs=*/128};
  for (MulAlgorithm Alg : AllMulAlgorithms) {
    SCOPED_TRACE(mulAlgorithmName(Alg));
    SoundnessReport Serial = checkSoundnessExhaustive(BinaryOp::Mul, 5, Alg);
    EXPECT_TRUE(Serial.holds());
    CampaignCell Cell{BinaryOp::Mul, Alg, 5, CampaignProperty::Soundness};
    EXPECT_EQ(Serial, runOneCell(Cell, Config).Soundness);
  }
}

TEST(ParallelSweep, AgreesWithSerialAtWidth8WhenSlowTestsEnabled) {
  const char *Enabled = std::getenv("TNUMS_SLOW_TESTS");
  if (!Enabled || Enabled[0] == '0')
    GTEST_SKIP() << "set TNUMS_SLOW_TESTS=1 to run the width-8 sweep "
                    "(the paper's kern_mul SMT horizon; minutes of CPU)";
  SoundnessReport Serial =
      checkSoundnessExhaustive(BinaryOp::Mul, 8, MulAlgorithm::Our);
  EXPECT_TRUE(Serial.holds());
  CampaignCell Cell{BinaryOp::Mul, MulAlgorithm::Our, 8,
                    CampaignProperty::Soundness};
  EXPECT_EQ(Serial, runOneCell(Cell, SweepConfig()).Soundness);
}

//===----------------------------------------------------------------------===//
// Failure determinism: a broken operator must yield the serial-order-first
// counterexample no matter how the chunks get scheduled.
//===----------------------------------------------------------------------===//

/// tnum_add with its lowest unknown trit laundered into a known bit -- a
/// classic soundness bug (claiming knowledge the operator does not have).
Tnum brokenAdd(const Tnum &P, const Tnum &Q, unsigned Width) {
  Tnum R = tnumTruncate(tnumAdd(P, Q), Width);
  uint64_t M = R.mask();
  if (M == 0)
    return R;
  uint64_t Lowest = M & (0 - M);
  return Tnum(R.value(), M & ~Lowest);
}

/// Independent reference scan of \p Abstract from pair index \p Begin to
/// the end of the grid: row-major pair order, member-odometer order inside
/// a pair, plain loops (no engine). Stops at the first violation and
/// counts what the serial checker counts up to and including it.
SoundnessReport soundnessByHand(BinaryOp Op, const AbstractBinaryFn &Abstract,
                                unsigned Width, uint64_t Begin = 0) {
  std::vector<Tnum> Universe = allWellFormedTnums(Width);
  const uint64_t N = Universe.size();
  SoundnessReport Report;
  for (uint64_t Index = Begin; Index != N * N && !Report.Failure; ++Index) {
    const Tnum &P = Universe[Index / N];
    const Tnum &Q = Universe[Index % N];
    Tnum R = Abstract(P, Q);
    ++Report.PairsChecked;
    forEachMember(P, [&](uint64_t X) {
      forEachMember(Q, [&](uint64_t Y) {
        if (Report.Failure)
          return;
        ++Report.ConcreteChecked;
        uint64_t Z = applyConcreteBinary(Op, X, Y, Width);
        if (!R.contains(Z))
          Report.Failure = SoundnessCounterexample{P, Q, X, Y, Z, R};
      });
    });
  }
  return Report;
}

TEST(ParallelSweep, BrokenOperatorYieldsSerialFirstCounterexample) {
  constexpr unsigned Width = 4;
  CampaignCell Cell{BinaryOp::Add, MulAlgorithm::Our, Width,
                    CampaignProperty::Soundness};
  CampaignSpec Broken;
  Broken.OperatorOverride = brokenAdd;
  Broken.OverrideTag = "broken-add";
  std::optional<SoundnessCounterexample> Expected =
      soundnessByHand(BinaryOp::Add,
                      [](const Tnum &P, const Tnum &Q) {
                        return brokenAdd(P, Q, Width);
                      },
                      Width)
          .Failure;
  ASSERT_TRUE(Expected.has_value()) << "brokenAdd unexpectedly sound";
  for (const SweepConfig &Config : kConfigs) {
    SCOPED_TRACE(::testing::Message() << "threads " << Config.NumThreads
                                      << " chunk " << Config.ChunkPairs);
    SoundnessReport Report = runOneCell(Cell, Config, Broken).Soundness;
    ASSERT_TRUE(Report.Failure.has_value());
    EXPECT_EQ(*Report.Failure, *Expected) << Report.Failure->toString(Width);
  }
}

//===----------------------------------------------------------------------===//
// Optimality
//===----------------------------------------------------------------------===//

TEST(ParallelSweep, OptimalityAgreesWithSerialFullScan) {
  SweepConfig Config{/*NumThreads=*/3, /*ChunkPairs=*/50};
  // Add is optimal everywhere (Theorem 6); our_mul is not (SIII-C).
  for (BinaryOp Op : {BinaryOp::Add, BinaryOp::Mul}) {
    SCOPED_TRACE(binaryOpName(Op));
    OptimalityReport Serial = checkOptimalityExhaustive(
        Op, 4, MulAlgorithm::Our, /*StopAtFirst=*/false);
    EXPECT_EQ(Serial.isOptimalEverywhere(), Op == BinaryOp::Add);
    CampaignCell Cell{Op, MulAlgorithm::Our, 4, CampaignProperty::Optimality};
    for (const SweepConfig &C : {Config, SweepConfig()})
      EXPECT_EQ(Serial, runOneCell(Cell, C).Optimality);
  }
}

TEST(ParallelSweep, OptimalityStopAtFirstKeepsSerialWitness) {
  OptimalityReport Serial = checkOptimalityExhaustive(
      BinaryOp::Mul, 4, MulAlgorithm::Our, /*StopAtFirst=*/true);
  ASSERT_TRUE(Serial.Failure.has_value());
  // An early-exit campaign stops at the serial-order first non-optimal
  // pair and reports the serial prefix counts, whatever the scheduling.
  CampaignCell Cell{BinaryOp::Mul, MulAlgorithm::Our, 4,
                    CampaignProperty::Optimality};
  CampaignSpec EarlyExit;
  EarlyExit.OptimalityEarlyExit = true;
  for (const SweepConfig &Config : kConfigs) {
    SCOPED_TRACE(::testing::Message() << "threads " << Config.NumThreads
                                      << " chunk " << Config.ChunkPairs);
    EXPECT_EQ(Serial, runOneCell(Cell, Config, EarlyExit).Optimality);
  }
}

//===----------------------------------------------------------------------===//
// Row-scan differential: every range scan on the row scan (every tier the
// host runs) against the same scan with SimdMode::Off, the scalar per-pair
// path, over ranges that start and end mid-row, with chunks of one pair,
// of a few pairs, just short of a row, just past a row, and of many rows.
//===----------------------------------------------------------------------===//

/// The forced modes of every row-scan tier this host executes.
std::vector<SimdMode> hostRowScanModes() {
  std::vector<SimdMode> Modes{SimdMode::Portable};
  for (SimdMode Mode : {SimdMode::Avx2, SimdMode::Avx512, SimdMode::Neon})
    if (simdModeSupported(Mode))
      Modes.push_back(Mode);
  return Modes;
}

std::vector<SweepConfig> rowScanSchedulers(uint64_t NumTnums) {
  std::vector<SweepConfig> Configs;
  for (unsigned Threads : {1u, 3u})
    for (uint64_t Chunk : {uint64_t(1), uint64_t(7), NumTnums - 1,
                           NumTnums + 5, uint64_t(4096)})
      Configs.push_back(SweepConfig{Threads, Chunk});
  return Configs;
}

/// A pair range that starts and ends mid-row: nearly the whole grid while
/// it is small, else two and a third rows from the middle of the universe.
std::pair<uint64_t, uint64_t> midRowRange(const SweepGrid &Grid) {
  uint64_t N = Grid.NumTnums;
  if (Grid.TotalPairs <= 81 * 81)
    return {N / 2, Grid.TotalPairs - N / 3};
  uint64_t Begin = (N / 2) * N + N / 2;
  return {Begin, Begin + 2 * N + N / 3};
}

void expectSameSoundness(const SoundnessReport &Expected,
                         const SoundnessReport &Got, bool ExactCounts) {
  ASSERT_EQ(Expected.holds(), Got.holds());
  if (ExactCounts) {
    EXPECT_EQ(Expected.PairsChecked, Got.PairsChecked);
    EXPECT_EQ(Expected.ConcreteChecked, Got.ConcreteChecked);
  }
  if (Expected.Failure) {
    EXPECT_EQ(Expected.Failure->P, Got.Failure->P);
    EXPECT_EQ(Expected.Failure->Q, Got.Failure->Q);
    EXPECT_EQ(Expected.Failure->X, Got.Failure->X);
    EXPECT_EQ(Expected.Failure->Y, Got.Failure->Y);
    EXPECT_EQ(Expected.Failure->Z, Got.Failure->Z);
    EXPECT_EQ(Expected.Failure->R, Got.Failure->R);
  }
}

void expectSameOptimality(const OptimalityReport &Expected,
                          const OptimalityReport &Got, bool ExactCounts) {
  ASSERT_EQ(Expected.Failure.has_value(), Got.Failure.has_value());
  if (ExactCounts) {
    EXPECT_EQ(Expected.PairsChecked, Got.PairsChecked);
    EXPECT_EQ(Expected.OptimalPairs, Got.OptimalPairs);
  }
  if (Expected.Failure) {
    EXPECT_EQ(Expected.Failure->P, Got.Failure->P);
    EXPECT_EQ(Expected.Failure->Q, Got.Failure->Q);
    EXPECT_EQ(Expected.Failure->Actual, Got.Failure->Actual);
    EXPECT_EQ(Expected.Failure->Optimal, Got.Failure->Optimal);
  }
}

void expectSamePrecision(const PrecisionReport &Expected,
                         const PrecisionReport &Got) {
  EXPECT_EQ(Expected.PairsChecked, Got.PairsChecked);
  EXPECT_EQ(Expected.SumGap, Got.SumGap);
  EXPECT_EQ(Expected.MaxGap, Got.MaxGap);
  for (unsigned G = 0; G != PrecisionGapBuckets; ++G)
    EXPECT_EQ(Expected.Buckets[G], Got.Buckets[G]) << "gap " << G;
  ASSERT_EQ(Expected.Worst.has_value(), Got.Worst.has_value());
  if (Expected.Worst) {
    EXPECT_EQ(Expected.Worst->P, Got.Worst->P);
    EXPECT_EQ(Expected.Worst->Q, Got.Worst->Q);
    EXPECT_EQ(Expected.Worst->Actual, Got.Worst->Actual);
    EXPECT_EQ(Expected.Worst->Optimal, Got.Worst->Optimal);
  }
}

/// One operator (and transfer function) through the three range scans:
/// the row scan on every host tier, scheduler, and with and without the
/// member table, against SimdMode::Off. The failure pair index must match
/// too; work counters must match wherever they are exact (every holding
/// scan, and one-thread scans of failing ones).
void expectRowScanAgreesWithScalar(BinaryOp Op, const AbstractBinaryFn &Fn,
                                   unsigned Width) {
  SweepConfig Off;
  Off.Simd = SimdMode::Off;
  Off.NumThreads = 1;
  SweepGrid Grid = makeSweepGrid(Width, SweepConfig());
  SweepGrid Materialized = makeSweepGrid(Width, SweepConfig());
  Materialized.Members.reset(); // Lanes materialized per segment instead.
  ASSERT_TRUE(Grid.Members.has_value());
  auto [Begin, End] = midRowRange(Grid);

  std::optional<uint64_t> SoundIndex, OptIndex;
  SoundnessReport Sound = checkSoundnessRangeParallel(Op, Fn, Grid, Begin,
                                                      End, Off, &SoundIndex);
  OptimalityReport Optimal = checkOptimalityRangeParallel(
      Op, Fn, Grid, Begin, End, Off, /*StopAtFirst=*/false);
  OptimalityReport First = checkOptimalityRangeParallel(
      Op, Fn, Grid, Begin, End, Off, /*StopAtFirst=*/true, &OptIndex);
  PrecisionReport Precision =
      checkPrecisionRangeParallel(Op, Fn, Grid, Begin, End, Off);

  for (SimdMode Mode : hostRowScanModes()) {
    for (SweepConfig Config : rowScanSchedulers(Grid.NumTnums)) {
      Config.Simd = Mode;
      for (const SweepGrid *G : {&Grid, &Materialized}) {
        // The materialized path once per tier is enough.
        if (G == &Materialized && Config.ChunkPairs != 7)
          continue;
        SCOPED_TRACE(::testing::Message()
                     << simdModeName(Mode) << " threads " << Config.NumThreads
                     << " chunk " << Config.ChunkPairs
                     << (G->Members ? " table" : " materialized"));
        bool Exact = Config.NumThreads == 1;
        std::optional<uint64_t> Index;
        expectSameSoundness(Sound,
                            checkSoundnessRangeParallel(Op, Fn, *G, Begin, End,
                                                        Config, &Index),
                            Exact || Sound.holds());
        EXPECT_EQ(SoundIndex, Index);
        expectSameOptimality(Optimal,
                             checkOptimalityRangeParallel(
                                 Op, Fn, *G, Begin, End, Config,
                                 /*StopAtFirst=*/false),
                             /*ExactCounts=*/true);
        expectSameOptimality(First,
                             checkOptimalityRangeParallel(
                                 Op, Fn, *G, Begin, End, Config,
                                 /*StopAtFirst=*/true, &Index),
                             Exact || !First.Failure);
        EXPECT_EQ(OptIndex, Index);
        expectSamePrecision(Precision, checkPrecisionRangeParallel(
                                           Op, Fn, *G, Begin, End, Config));
      }
    }
  }
}

AbstractBinaryFn transferFunction(BinaryOp Op, MulAlgorithm Mul,
                                  unsigned Width) {
  return [Op, Mul, Width](const Tnum &P, const Tnum &Q) {
    return applyAbstractBinary(Op, P, Q, Width, Mul);
  };
}

void expectRowScanAgreesOnEveryOperator(unsigned Width) {
  SCOPED_TRACE(::testing::Message() << "width " << Width);
  bool PowerOfTwo = (Width & (Width - 1)) == 0;
  for (BinaryOp Op : AllBinaryOps) {
    if (isShiftOp(Op) && !PowerOfTwo)
      continue;
    SCOPED_TRACE(binaryOpName(Op));
    expectRowScanAgreesWithScalar(
        Op, transferFunction(Op, MulAlgorithm::Our, Width), Width);
  }
  for (MulAlgorithm Mul : AllMulAlgorithms) {
    if (Mul == MulAlgorithm::Our)
      continue; // Covered above.
    SCOPED_TRACE(mulAlgorithmName(Mul));
    expectRowScanAgreesWithScalar(
        BinaryOp::Mul, transferFunction(BinaryOp::Mul, Mul, Width), Width);
  }
}

TEST(RowScan, AgreesWithScalarOnEveryOperatorAtWidths1To3) {
  for (unsigned Width = 1; Width <= 3; ++Width)
    expectRowScanAgreesOnEveryOperator(Width);
}

TEST(RowScan, AgreesWithScalarOnEveryOperatorAtWidth4) {
  expectRowScanAgreesOnEveryOperator(4);
}

TEST(RowScan, AgreesWithScalarOnEveryOperatorAtWidth5) {
  expectRowScanAgreesOnEveryOperator(5);
}

TEST(RowScan, AgreesWithScalarOnEveryOperatorAtWidth6) {
  expectRowScanAgreesOnEveryOperator(6);
}

/// our_mul with its lowest unknown trit laundered into a known bit.
Tnum brokenMul(const Tnum &P, const Tnum &Q, unsigned Width) {
  Tnum R = tnumMul(P, Q, MulAlgorithm::Our, Width);
  uint64_t M = R.mask();
  if (M == 0)
    return R;
  return Tnum(R.value(), M & (M - 1));
}

TEST(RowScan, BrokenOperatorsKeepSerialFirstWitnessAndPrefixCounts) {
  // Unsound (and so also non-optimal) transfer functions: the failing
  // segment's scalar rescan must reproduce the serial-first witness and
  // the exact prefix counts, in soundness, in StopAtFirst optimality and
  // in the precision worst-witness.
  for (unsigned Width : {3u, 4u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "width " << Width);
    AbstractBinaryFn Add = [Width](const Tnum &P, const Tnum &Q) {
      return brokenAdd(P, Q, Width);
    };
    AbstractBinaryFn Mul = [Width](const Tnum &P, const Tnum &Q) {
      return brokenMul(P, Q, Width);
    };
    for (auto [Op, Fn] : {std::pair{BinaryOp::Add, Add},
                          std::pair{BinaryOp::Mul, Mul}}) {
      SCOPED_TRACE(binaryOpName(Op));
      SweepConfig Off;
      Off.NumThreads = 1;
      Off.Simd = SimdMode::Off;
      SweepGrid Grid = makeSweepGrid(Width, SweepConfig());
      auto [Begin, End] = midRowRange(Grid);
      ASSERT_FALSE(
          checkSoundnessRangeParallel(Op, Fn, Grid, Begin, End, Off).holds());
      ASSERT_FALSE(checkOptimalityRangeParallel(Op, Fn, Grid, Begin, End, Off,
                                                /*StopAtFirst=*/true)
                       .isOptimalEverywhere());
      expectRowScanAgreesWithScalar(Op, Fn, Width);
    }
  }
}

/// tnum_add, except that it returns bottom whenever an operand is top: an
/// ill-formed (v | 1, m | 1) when P is, the canonical (~0, ~0) when only Q
/// is. Top is the universe's last tnum, so row 0's first violation has the
/// canonical bottom and the top row's has the ill-formed one.
Tnum bottomingAdd(const Tnum &P, const Tnum &Q, unsigned Width) {
  Tnum R = tnumTruncate(tnumAdd(P, Q), Width);
  if (P.isUnknown(Width))
    return Tnum(R.value() | 1, R.mask() | 1);
  if (Q.isUnknown(Width))
    return Tnum::makeBottom();
  return R;
}

TEST(RowScan, BottomResultsFailAgainstTheMemberScan) {
  // No member lies in a bottom R, whatever its bits. Both kinds of bottom
  // must fail soundness at the pair that returns them, with the hand
  // scan's witness and counts, on the scalar path and on every tier.
  for (unsigned Width : {3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "width " << Width);
    AbstractBinaryFn Fn = [Width](const Tnum &P, const Tnum &Q) {
      return bottomingAdd(P, Q, Width);
    };
    expectRowScanAgreesWithScalar(BinaryOp::Add, Fn, Width);

    SweepGrid Grid = makeSweepGrid(Width, SweepConfig());
    std::vector<SimdMode> Modes = hostRowScanModes();
    Modes.push_back(SimdMode::Off);
    for (uint64_t Begin : {uint64_t(0), Grid.TotalPairs - Grid.NumTnums}) {
      SoundnessReport Expected =
          soundnessByHand(BinaryOp::Add, Fn, Width, Begin);
      ASSERT_TRUE(Expected.Failure.has_value());
      EXPECT_TRUE(Expected.Failure->R.isBottom());
      EXPECT_EQ(Expected.Failure->R == Tnum::makeBottom(), Begin == 0);
      for (SimdMode Mode : Modes) {
        SCOPED_TRACE(::testing::Message()
                     << simdModeName(Mode) << " from pair " << Begin);
        SweepConfig Config{/*NumThreads=*/1, /*ChunkPairs=*/7};
        Config.Simd = Mode;
        EXPECT_EQ(Expected,
                  checkSoundnessRangeParallel(BinaryOp::Add, Fn, Grid, Begin,
                                              Grid.TotalPairs, Config));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The six-algorithm campaign
//===----------------------------------------------------------------------===//

TEST(ParallelSweep, MulCampaignCoversAllSixAlgorithmsPerWidth) {
  // The paper's SIII-A multiplication campaign: every algorithm at each
  // width, as one campaign, against the scalar oracle cell by cell.
  CampaignSpec Spec;
  for (MulAlgorithm Alg : AllMulAlgorithms)
    Spec.addGrid(BinaryOp::Mul, Alg, {4, 5}, {CampaignProperty::Soundness});
  CampaignResult Campaign = runCampaign(
      Spec, CampaignIO(), SweepConfig{/*NumThreads=*/2, /*ChunkPairs=*/512});
  ASSERT_TRUE(Campaign.ok()) << Campaign.Error;
  ASSERT_TRUE(Campaign.Complete);
  ASSERT_EQ(Campaign.Cells.size(), 12u);
  for (const CampaignCellResult &Cell : Campaign.Cells) {
    SCOPED_TRACE(::testing::Message() << mulAlgorithmName(Cell.Cell.Mul)
                                      << " width " << Cell.Cell.Width);
    EXPECT_TRUE(Cell.holds());
    uint64_t NumTnums = numWellFormedTnums(Cell.Cell.Width);
    EXPECT_EQ(Cell.Soundness.PairsChecked, NumTnums * NumTnums);
    EXPECT_EQ(Cell.Soundness, checkSoundnessExhaustive(BinaryOp::Mul,
                                                       Cell.Cell.Width,
                                                       Cell.Cell.Mul));
    EXPECT_GE(Cell.Seconds, 0.0);
  }
}

} // namespace
