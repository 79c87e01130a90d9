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

#include "support/Metrics.h"
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
// Row-scan differential: every range scan on the row scan against the same
// scan with SimdMode::Off, the scalar per-pair path, over ranges that start
// and end mid-row, with chunks of one pair, of a few pairs, just short of a
// row, just past a row, and of many rows.
//===----------------------------------------------------------------------===//

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

/// Every fold check: soundness, optimality both ways, precision.
constexpr FoldCheck kFoldChecks[] = {FoldCheck::Soundness,
                                     FoldCheck::Optimality,
                                     FoldCheck::OptimalityFirst,
                                     FoldCheck::Precision};

/// One transfer function under every fold check over [Begin, End), as one
/// fold pass of four cells or (\p OnePass false) as four one-cell passes.
std::vector<FoldCell> foldChecks(BinaryOp Op, const FoldTransfer &Fn,
                                 SweepGrid &Grid, uint64_t Begin, uint64_t End,
                                 const SweepConfig &Config, bool OnePass) {
  std::vector<FoldCell> Cells;
  for (FoldCheck Check : kFoldChecks)
    Cells.emplace_back(Check, Fn);
  if (OnePass)
    checkFoldRangeParallel(Op, Grid, Begin, End, Config, Cells);
  else
    for (FoldCell &Cell : Cells)
      checkFoldRangeParallel(Op, Grid, Begin, End, Config, {&Cell, 1});
  return Cells;
}

/// One operator (and transfer function) through every fold check: the
/// four checks as one pass of the row scan on every scheduler and both
/// alpha sources, against one-cell passes with SimdMode::Off. The
/// member-table grid takes the table path: its first batched pass builds
/// the constant-row table on the lane loop, and every pass then joins
/// table rows. The materialized grid, with no member table and so no
/// table, takes the lane loop over gamma(P). The
/// failure pair indices must match too; work counters must match wherever
/// they are exact (every holding scan, and one-thread scans of failing
/// ones).
void expectRowScanAgreesWithScalar(BinaryOp Op, const FoldTransfer &Fn,
                                   unsigned Width) {
  SweepConfig Off;
  Off.Simd = SimdMode::Off;
  Off.NumThreads = 1;
  SweepGrid Grid = makeSweepGrid(Width, SweepConfig());
  SweepGrid Materialized = makeSweepGrid(Width, SweepConfig());
  Materialized.Members.reset(); // Lanes materialized per segment instead.
  ASSERT_TRUE(Grid.Members.has_value());
  auto [Begin, End] = midRowRange(Grid);
  const std::vector<FoldCell> Want =
      foldChecks(Op, Fn, Grid, Begin, End, Off, /*OnePass=*/false);
  const SoundnessReport &Sound = Want[0].Soundness;
  const OptimalityReport &First = Want[2].Optimality;

  for (const SweepConfig &Config : rowScanSchedulers(Grid.NumTnums)) {
    for (SweepGrid *G : {&Grid, &Materialized}) {
      // The materialized path once per thread count is enough.
      if (G == &Materialized && Config.ChunkPairs != 7)
        continue;
      SCOPED_TRACE(::testing::Message()
                   << "threads " << Config.NumThreads << " chunk "
                   << Config.ChunkPairs
                   << (G->Members ? " table join" : " lane loop"));
      bool Exact = Config.NumThreads == 1;
      std::vector<FoldCell> Got =
          foldChecks(Op, Fn, *G, Begin, End, Config, /*OnePass=*/true);
      expectSameSoundness(Sound, Got[0].Soundness, Exact || Sound.holds());
      expectSameOptimality(Want[1].Optimality, Got[1].Optimality,
                           /*ExactCounts=*/true);
      expectSameOptimality(First, Got[2].Optimality, Exact || !First.Failure);
      expectSamePrecision(Want[3].Precision, Got[3].Precision);
      for (size_t C = 0; C != Got.size(); ++C)
        EXPECT_EQ(Want[C].FailureIndex, Got[C].FailureIndex) << "cell " << C;
    }
  }
  // Each leg took the path it names.
  ASSERT_TRUE(Grid.Rows.has_value());
  EXPECT_EQ(Grid.Rows->Op, Op);
  EXPECT_FALSE(Materialized.Rows.has_value());
}

void expectRowScanAgreesOnEveryOperator(unsigned Width) {
  SCOPED_TRACE(::testing::Message() << "width " << Width);
  bool PowerOfTwo = (Width & (Width - 1)) == 0;
  for (BinaryOp Op : AllBinaryOps) {
    if (isShiftOp(Op) && !PowerOfTwo)
      continue;
    SCOPED_TRACE(binaryOpName(Op));
    expectRowScanAgreesWithScalar(
        Op, FoldTransfer(Op, MulAlgorithm::Our, Width), Width);
  }
  for (MulAlgorithm Mul : AllMulAlgorithms) {
    if (Mul == MulAlgorithm::Our)
      continue; // Covered above.
    SCOPED_TRACE(mulAlgorithmName(Mul));
    expectRowScanAgreesWithScalar(
        BinaryOp::Mul, FoldTransfer(BinaryOp::Mul, Mul, Width), Width);
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
      std::vector<FoldCell> Scalar =
          foldChecks(Op, Fn, Grid, Begin, End, Off, /*OnePass=*/false);
      ASSERT_FALSE(Scalar[0].Soundness.holds());
      ASSERT_FALSE(Scalar[2].Optimality.isOptimalEverywhere());
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
  // scan's witness and counts, on the scalar path and on the row scan.
  for (unsigned Width : {3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "width " << Width);
    AbstractBinaryFn Fn = [Width](const Tnum &P, const Tnum &Q) {
      return bottomingAdd(P, Q, Width);
    };
    expectRowScanAgreesWithScalar(BinaryOp::Add, Fn, Width);

    SweepGrid Grid = makeSweepGrid(Width, SweepConfig());
    for (uint64_t Begin : {uint64_t(0), Grid.TotalPairs - Grid.NumTnums}) {
      SoundnessReport Expected =
          soundnessByHand(BinaryOp::Add, Fn, Width, Begin);
      ASSERT_TRUE(Expected.Failure.has_value());
      EXPECT_TRUE(Expected.Failure->R.isBottom());
      EXPECT_EQ(Expected.Failure->R == Tnum::makeBottom(), Begin == 0);
      for (SimdMode Mode : {SimdMode::Auto, SimdMode::Off}) {
        SCOPED_TRACE(::testing::Message()
                     << simdModeName(Mode) << " from pair " << Begin);
        SweepConfig Config{/*NumThreads=*/1, /*ChunkPairs=*/7};
        Config.Simd = Mode;
        FoldCell Cell(FoldCheck::Soundness, Fn);
        checkFoldRangeParallel(BinaryOp::Add, Grid, Begin, Grid.TotalPairs,
                               Config, {&Cell, 1});
        EXPECT_EQ(Expected, Cell.Soundness);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The fold pass itself: cells of one grid share each segment's alpha, and
// each keeps its own checks, witness and cancellation.
//===----------------------------------------------------------------------===//

TEST(FoldPass, MixedCellsMatchTheirOneCellPasses) {
  // Six mul transfer functions (one of them unsound) under soundness, one
  // full and one early-exit optimality cell, and two precision cells: each
  // cell of the one pass equals its one-cell scalar pass, in both simd
  // modes and on every scheduler, over the whole grid and over a mid-row
  // range.
  constexpr unsigned Width = 4;
  const AbstractBinaryFn Broken = [](const Tnum &P, const Tnum &Q) {
    return brokenMul(P, Q, Width);
  };
  std::vector<FoldCell> Cells;
  for (MulAlgorithm Mul : AllMulAlgorithms) // Kern first: the broken one.
    Cells.emplace_back(FoldCheck::Soundness,
                       Mul == MulAlgorithm::Kern
                           ? Broken
                           : FoldTransfer(BinaryOp::Mul, Mul, Width));
  const FoldTransfer Our(BinaryOp::Mul, MulAlgorithm::Our, Width);
  Cells.emplace_back(FoldCheck::Optimality, Our);
  Cells.emplace_back(FoldCheck::OptimalityFirst, Our);
  Cells.emplace_back(FoldCheck::Precision, Our);
  Cells.emplace_back(FoldCheck::Precision, Broken);

  SweepConfig Off;
  Off.Simd = SimdMode::Off;
  Off.NumThreads = 1;
  SweepGrid Grid = makeSweepGrid(Width, SweepConfig());
  auto [MidBegin, MidEnd] = midRowRange(Grid);
  for (auto [Begin, End] : {std::pair<uint64_t, uint64_t>{0, Grid.TotalPairs},
                            std::pair{MidBegin, MidEnd}}) {
    std::vector<FoldCell> Want = Cells;
    for (FoldCell &Cell : Want)
      checkFoldRangeParallel(BinaryOp::Mul, Grid, Begin, End, Off,
                             {&Cell, 1});
    ASSERT_FALSE(Want[0].Soundness.holds()) << "brokenMul went unnoticed";
    for (SimdMode Mode : {SimdMode::Off, SimdMode::Auto}) {
      for (SweepConfig Config : kConfigs) {
        Config.Simd = Mode;
        SCOPED_TRACE(::testing::Message()
                     << simdModeName(Mode) << " threads " << Config.NumThreads
                     << " chunk " << Config.ChunkPairs << " range " << Begin);
        std::vector<FoldCell> Got = Cells;
        checkFoldRangeParallel(BinaryOp::Mul, Grid, Begin, End, Config, Got);
        bool Exact = Config.NumThreads == 1;
        for (size_t C = 0; C != Got.size(); ++C) {
          SCOPED_TRACE(::testing::Message() << "cell " << C);
          EXPECT_EQ(Want[C].FailureIndex, Got[C].FailureIndex);
          expectSameSoundness(Want[C].Soundness, Got[C].Soundness,
                              Exact || Want[C].Soundness.holds());
          expectSameOptimality(
              Want[C].Optimality, Got[C].Optimality,
              Exact || Got[C].Check != FoldCheck::OptimalityFirst);
          expectSamePrecision(Want[C].Precision, Got[C].Precision);
        }
      }
    }
  }
}

/// Each built-in transfer function written out directly -- the algorithm
/// itself, not applyAbstractBinary or withAbstractBinary -- as an override.
AbstractBinaryFn directTransfer(BinaryOp Op, MulAlgorithm Mul, unsigned W) {
  switch (Op) {
  case BinaryOp::Add:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(tnumAdd(P, Q), W);
    };
  case BinaryOp::Sub:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(tnumSub(P, Q), W);
    };
  case BinaryOp::Mul:
    break;
  case BinaryOp::Div:
    return [W](const Tnum &P, const Tnum &Q) { return tnumDiv(P, Q, W); };
  case BinaryOp::Mod:
    return [W](const Tnum &P, const Tnum &Q) { return tnumMod(P, Q, W); };
  case BinaryOp::And:
    return [](const Tnum &P, const Tnum &Q) { return tnumAnd(P, Q); };
  case BinaryOp::Or:
    return [](const Tnum &P, const Tnum &Q) { return tnumOr(P, Q); };
  case BinaryOp::Xor:
    return [](const Tnum &P, const Tnum &Q) { return tnumXor(P, Q); };
  case BinaryOp::Lsh:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumLshiftByTnum(P, Q, W);
    };
  case BinaryOp::Rsh:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumRshiftByTnum(P, Q, W);
    };
  case BinaryOp::Arsh:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumArshiftByTnum(P, Q, W);
    };
  }
  switch (Mul) {
  case MulAlgorithm::Kern:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(kernMul(P, Q), W);
    };
  case MulAlgorithm::BitwiseNaive:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(bitwiseMulNaive(P, Q, W), W);
    };
  case MulAlgorithm::BitwiseOpt:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(bitwiseMulOpt(P, Q, W), W);
    };
  case MulAlgorithm::OurSimplified:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(ourMulSimplified(P, Q, W), W);
    };
  case MulAlgorithm::Our:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(ourMul(P, Q), W);
    };
  case MulAlgorithm::OurFullLoop:
    return [W](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(ourMulFullLoop(P, Q, W), W);
    };
  }
  return nullptr;
}

TEST(FoldPass, BuiltinCellsMatchDirectOverrides) {
  // The inline dispatch (withAbstractBinary, withMulAlgorithm) must call
  // each operator's own algorithm: the four checks of every built-in cell
  // equal those of an override that calls the algorithm directly. The mul
  // algorithms differ in precision, so an arm that runs the wrong one
  // changes a precision report: the bitwise pair differs from the others
  // at width 4, kern_mul from our_mul only from width 5. (bitwise naive
  // and opt, and our_mul and its two variants, are input-output
  // equivalent, so no report tells them apart.)
  const SweepConfig Config{/*NumThreads=*/1, /*ChunkPairs=*/300};
  for (unsigned Width : {4u, 5u}) {
    SweepGrid Grid = makeSweepGrid(Width, Config);
    std::vector<std::pair<BinaryOp, MulAlgorithm>> Transfers;
    for (BinaryOp Op : AllBinaryOps)
      if (Op != BinaryOp::Mul && (!isShiftOp(Op) || Width == 4))
        Transfers.push_back({Op, MulAlgorithm::Our});
    for (MulAlgorithm Mul : AllMulAlgorithms)
      Transfers.push_back({BinaryOp::Mul, Mul});
    for (auto [Op, Mul] : Transfers) {
      SCOPED_TRACE(::testing::Message() << binaryOpName(Op) << " "
                                        << mulAlgorithmName(Mul) << " width "
                                        << Width);
      std::vector<FoldCell> Builtin =
          foldChecks(Op, FoldTransfer(Op, Mul, Width), Grid, 0,
                     Grid.TotalPairs, Config, /*OnePass=*/true);
      std::vector<FoldCell> Direct =
          foldChecks(Op, directTransfer(Op, Mul, Width), Grid, 0,
                     Grid.TotalPairs, Config, /*OnePass=*/true);
      for (size_t C = 0; C != Builtin.size(); ++C) {
        SCOPED_TRACE(::testing::Message() << "cell " << C);
        EXPECT_EQ(Builtin[C].FailureIndex, Direct[C].FailureIndex);
        EXPECT_EQ(Builtin[C].Soundness, Direct[C].Soundness);
        EXPECT_EQ(Builtin[C].Optimality, Direct[C].Optimality);
        EXPECT_EQ(Builtin[C].Precision, Direct[C].Precision);
      }
    }
  }
}

/// The process-wide value of the counter \p Name.
uint64_t counterValue(const char *Name) {
  MetricsSnapshot Snap = MetricsRegistry::instance().snapshot();
  const MetricValue *Value = Snap.find(Name);
  return Value ? Value->Count : 0;
}

/// Row segments the row scans have folded so far, process-wide.
uint64_t segmentsScanned() {
  return counterValue("tnums_sweep_segments_total");
}

TEST(FoldPass, FoldsASegmentOnlyWhileSomeCellIsLive) {
  // One row per chunk on one thread. A soundness cell that fails at the
  // first pair ends its chunk and cancels every later one, so a pass of it
  // alone folds one segment; next to a precision cell, the pass folds
  // every row once, not twice.
  constexpr unsigned Width = 3;
  SweepGrid Grid = makeSweepGrid(Width, SweepConfig());
  const SweepConfig Config{/*NumThreads=*/1, /*ChunkPairs=*/Grid.NumTnums};
  const AbstractBinaryFn Bottom = [](const Tnum &, const Tnum &) {
    return Tnum::makeBottom();
  };
  enableProcessMetrics();
  uint64_t Before = segmentsScanned();
  FoldCell Alone(FoldCheck::Soundness, Bottom);
  checkFoldRangeParallel(BinaryOp::Add, Grid, 0, Grid.TotalPairs, Config,
                         {&Alone, 1});
  EXPECT_EQ(Alone.FailureIndex, uint64_t(0));
  EXPECT_EQ(segmentsScanned() - Before, 1u);

  Before = segmentsScanned();
  std::vector<FoldCell> Pass{
      FoldCell(FoldCheck::Soundness, Bottom),
      FoldCell(FoldCheck::Precision,
               FoldTransfer(BinaryOp::Add, MulAlgorithm::Our, Width))};
  checkFoldRangeParallel(BinaryOp::Add, Grid, 0, Grid.TotalPairs, Config,
                         Pass);
  EXPECT_EQ(segmentsScanned() - Before, Grid.NumTnums);
  disableProcessMetrics();
  EXPECT_EQ(Pass[0].Soundness, Alone.Soundness);
  EXPECT_EQ(Pass[1].Precision.PairsChecked, Grid.TotalPairs);
  EXPECT_EQ(Pass[1].Precision.MaxGap, 0u); // Add is optimal everywhere.
}

TEST(FoldPass, CountsTableRowsLanesAndTimeWithoutChangingReports) {
  // One row per chunk on one thread. A table pass builds 2^w constant rows
  // on the lane loop (their lanes are the only lanes it runs) and a second
  // pass of the same operator reuses them; a lane-loop pass builds none
  // and runs every segment's lanes. Both count one segment per row, add
  // to the alpha and check clocks, and report what they report with the
  // recorder off.
  constexpr unsigned Width = 3;
  const uint64_t Constants = uint64_t(1) << Width;
  const uint64_t RowLanes = uint64_t(1) << (2 * Width); // Sum of |gamma(Q)|.
  auto grid = [](bool Members) {
    SweepGrid Grid = makeSweepGrid(Width, SweepConfig());
    if (!Members)
      Grid.Members.reset();
    return Grid;
  };
  const SweepConfig Config{/*NumThreads=*/1,
                           /*ChunkPairs=*/numWellFormedTnums(Width)};
  auto pass = [&](SweepGrid &Grid) {
    std::vector<FoldCell> Cells;
    for (FoldCheck Check : kFoldChecks)
      Cells.emplace_back(Check,
                         FoldTransfer(BinaryOp::Mul, MulAlgorithm::Our, Width));
    checkFoldRangeParallel(BinaryOp::Mul, Grid, 0, Grid.TotalPairs, Config,
                           Cells);
    return Cells;
  };
  const char *const Names[] = {
      "tnums_sweep_table_rows_total", "tnums_sweep_lanes_total",
      "tnums_sweep_segments_total", "tnums_sweep_alpha_ns_total",
      "tnums_sweep_check_ns_total"};
  auto counters = [&] {
    std::vector<uint64_t> Values;
    for (const char *Name : Names)
      Values.push_back(counterValue(Name));
    return Values;
  };
  auto delta = [&](const std::vector<uint64_t> &Before) {
    std::vector<uint64_t> Values = counters();
    for (size_t I = 0; I != Values.size(); ++I)
      Values[I] -= Before[I];
    return Values;
  };

  for (bool Table : {true, false}) {
    SCOPED_TRACE(Table ? "table join" : "lane loop");
    SweepGrid Unmetered = grid(Table);
    const std::vector<FoldCell> Want = pass(Unmetered);
    SweepGrid Grid = grid(Table);
    enableProcessMetrics();
    std::vector<uint64_t> Before = counters();
    std::vector<FoldCell> Got = pass(Grid);
    std::vector<uint64_t> First = delta(Before);
    Before = counters();
    pass(Grid);
    std::vector<uint64_t> Second = delta(Before);
    disableProcessMetrics();

    const uint64_t Rows = numWellFormedTnums(Width);
    EXPECT_EQ(First[0], Table ? Constants : 0u);
    EXPECT_EQ(First[1], Table ? Constants * RowLanes : Rows * RowLanes);
    EXPECT_EQ(First[2], Rows);
    EXPECT_GT(First[3], 0u);
    EXPECT_GT(First[4], 0u);
    EXPECT_EQ(Second[0], 0u);
    EXPECT_EQ(Second[1], Table ? 0u : Rows * RowLanes);
    EXPECT_EQ(Second[2], Rows);
    EXPECT_EQ(Grid.Rows.has_value(), Table);
    for (size_t C = 0; C != Got.size(); ++C) {
      SCOPED_TRACE(::testing::Message() << "cell " << C);
      EXPECT_EQ(Want[C].FailureIndex, Got[C].FailureIndex);
      EXPECT_EQ(Want[C].Soundness, Got[C].Soundness);
      EXPECT_EQ(Want[C].Optimality, Got[C].Optimality);
      EXPECT_EQ(Want[C].Precision, Got[C].Precision);
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
