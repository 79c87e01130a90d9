//===- verify/ParallelSweep.cpp - Parallel exhaustive verification --------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/ParallelSweep.h"

#include "support/Atomic.h"
#include "support/ChunkSchedule.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "tnum/TnumEnum.h"
#include "verify/RowScan.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <map>
#include <mutex>

using namespace tnums;

namespace {

/// A failing pair: its grid index (for the Campaign layer's serial-prefix
/// re-normalization) plus the property-specific witness.
template <typename CounterexampleT> struct IndexedFailure {
  uint64_t Index;
  CounterexampleT Witness;
};

/// The chunk / first-fail-chunk cancellation protocol, shared by the four
/// range scans (soundness, optimality, monotonicity, precision), applied
/// to the pair-index range [Begin, End) of \p Grid. Each chunk is split
/// into row segments -- the pairs of one P, [QBegin, QEnd) -- and the body
/// scans one segment at a time. Templated on the counterexample type, a
/// chunk-local counter block, and the segment body, which also gets the
/// row scan's buffers: one RowScratch per worker thread, so its capacity
/// (up to a row's lanes per array) is allocated once, not per chunk.
///
///   Segment(PIndex, QBegin, QEnd, Local, Scratch)
///       -> std::optional<IndexedFailure<CounterexampleT>>
///          (the segment's serial-order first failure, by grid index)
///   Merge(Local)  -- fold the chunk's counters into the totals
///
/// With \p CancelOnFailure (the soundness protocol) a failing chunk stops
/// at its own first violation, chunks strictly above the lowest failing
/// chunk are cancelled, and chunks at or below it always finish -- so the
/// returned counterexample is the serial row-major first one in the
/// range. Without it (optimality's exact-count mode) every chunk
/// full-scans and only the lowest chunk's first witness is kept; the
/// result is the serial-order first counterexample either way.
template <typename CounterexampleT, typename LocalT, typename SegmentT,
          typename MergeT>
std::optional<IndexedFailure<CounterexampleT>>
sweepPairGrid(const SweepGrid &Grid, uint64_t Begin, uint64_t End,
              const SweepConfig &Config, bool CancelOnFailure,
              const SegmentT &Segment, const MergeT &Merge) {
  assert(Begin <= End && End <= Grid.TotalPairs && "range out of grid");
  const uint64_t ChunkPairs = std::max<uint64_t>(1, Config.ChunkPairs);
  const uint64_t NumChunks = (End - Begin + ChunkPairs - 1) / ChunkPairs;

  // Lowest chunk index with a violation; the final value's witness is the
  // serial-order first counterexample.
  std::atomic<uint64_t> FirstFailChunk{UINT64_MAX};
  std::mutex FailuresMutex;
  std::map<uint64_t, IndexedFailure<CounterexampleT>> FailureByChunk;

  forEachChunkOnPool(
      Config.NumThreads, NumChunks, [] { return RowScratch(); },
      [&](uint64_t Chunk, RowScratch &Scratch) {
        if (CancelOnFailure &&
            Chunk > FirstFailChunk.load(std::memory_order_acquire))
          return;
        uint64_t ChunkBegin = Begin + Chunk * ChunkPairs;
        uint64_t ChunkEnd = std::min(End, ChunkBegin + ChunkPairs);
        LocalT Local{};
        bool ChunkHasFailure = false;
        for (uint64_t Index = ChunkBegin; Index != ChunkEnd;) {
          if (CancelOnFailure &&
              Chunk > FirstFailChunk.load(std::memory_order_relaxed))
            break;
          uint64_t PIndex = Index / Grid.NumTnums;
          uint64_t RowBegin = PIndex * Grid.NumTnums;
          uint64_t SegmentEnd =
              std::min(ChunkEnd, RowBegin + Grid.NumTnums);
          std::optional<IndexedFailure<CounterexampleT>> Failure =
              Segment(PIndex, Index - RowBegin, SegmentEnd - RowBegin, Local,
                      Scratch);
          Index = SegmentEnd;
          if (Failure && !ChunkHasFailure) {
            ChunkHasFailure = true;
            {
              std::lock_guard<std::mutex> Lock(FailuresMutex);
              FailureByChunk.emplace(Chunk, std::move(*Failure));
            }
            atomicMinU64(FirstFailChunk, Chunk);
          }
          // This chunk's first (= serial-order) violation is recorded.
          if (ChunkHasFailure && CancelOnFailure)
            break;
        }
        Merge(Local);
      });

  std::lock_guard<std::mutex> Lock(FailuresMutex);
  if (FailureByChunk.empty())
    return std::nullopt;
  return std::move(FailureByChunk.begin()->second); // Lowest chunk index.
}

/// |gamma(P)| * |gamma(Q)|: the concrete evaluations of one full pair scan.
uint64_t pairEvals(const Tnum &P, const Tnum &Q) {
  return uint64_t(1) << (std::popcount(P.mask()) + std::popcount(Q.mask()));
}

/// What every row segment of one range scan shares: the grid, the
/// operator, and the lane-loop tier. Batched is false under SimdMode::Off,
/// where every segment takes the scalar per-pair path instead.
struct RowScanner {
  const SweepGrid &Grid;
  BinaryOp Op;
  bool Batched;
  SimdTier Tier;

  RowScanner(const SweepGrid &Grid, BinaryOp Op, const SweepConfig &Config)
      : Grid(Grid), Op(Op), Batched(simdModeBatches(Config.Simd)),
        Tier(selectSimdKernels(Config.Simd).Tier) {}

  std::span<const Tnum> qs(uint64_t QBegin, uint64_t QEnd) const {
    return {Grid.Universe.data() + QBegin, QEnd - QBegin};
  }

  /// The lanes of a segment: spans of the member table when it is built,
  /// else materialized into the worker's \p Scratch.
  RowSegment segment(uint64_t PIndex, uint64_t QBegin, uint64_t QEnd,
                     RowScratch &Scratch) const {
    const Tnum &P = Grid.Universe[PIndex];
    if (!Grid.Members)
      return materializeRow(Op, Grid.Width, Tier, P, qs(QBegin, QEnd),
                            Scratch);
    return RowSegment{Op,
                      Grid.Width,
                      Tier,
                      P,
                      qs(QBegin, QEnd),
                      Grid.Members->span(PIndex, PIndex + 1),
                      Grid.Members->span(QBegin, QEnd),
                      Grid.Members->offsets(QBegin, QEnd)};
  }

  /// alpha(opC(gamma(P), gamma(Q))) for every Q of a segment into
  /// Scratch.Results: the row scan, or the scalar fold pair by pair.
  /// Returns the concrete evaluations that took, every member pair of
  /// every pair of the segment.
  uint64_t optimal(uint64_t PIndex, uint64_t QBegin, uint64_t QEnd,
                   RowScratch &Scratch) const {
    std::vector<Tnum> &Optimal = Scratch.Results;
    Optimal.resize(QEnd - QBegin);
    if (Batched) {
      RowSegment Row = segment(PIndex, QBegin, QEnd, Scratch);
      optimalAbstractRow(Row, Scratch, Optimal);
      return Row.Xs.size() * Row.Lanes.size();
    }
    const Tnum &P = Grid.Universe[PIndex];
    uint64_t Evals = 0;
    for (uint64_t Q = QBegin; Q != QEnd; ++Q) {
      Optimal[Q - QBegin] =
          optimalAbstractBinary(Op, P, Grid.Universe[Q], Grid.Width);
      Evals += pairEvals(P, Grid.Universe[Q]);
    }
    return Evals;
  }
};

void publishFailureIndex(std::optional<uint64_t> *Out,
                         std::optional<uint64_t> Index) {
  if (Out)
    *Out = Index;
}

} // namespace

SweepGrid tnums::makeSweepGrid(unsigned Width, const SweepConfig &Config) {
  SweepGrid Grid;
  Grid.Width = Width;
  Grid.Universe = allWellFormedTnums(Width);
  Grid.NumTnums = Grid.Universe.size();
  Grid.TotalPairs = Grid.NumTnums * Grid.NumTnums;
  if (simdModeBatches(Config.Simd) &&
      memberTableBytes(Width) <= MemberTableBytesCap)
    Grid.Members.emplace(Grid.Universe);
  return Grid;
}

SoundnessReport tnums::checkSoundnessRangeParallel(
    BinaryOp Concrete, const AbstractBinaryFn &Abstract,
    const SweepGrid &Grid, uint64_t Begin, uint64_t End,
    const SweepConfig &Config, std::optional<uint64_t> *FailurePairIndex) {
  assert((!isShiftOp(Concrete) || (Grid.Width & (Grid.Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  std::atomic<uint64_t> PairsChecked{0};
  std::atomic<uint64_t> ConcreteChecked{0};
  const RowScanner Rows(Grid, Concrete, Config);

  struct Local {
    uint64_t Pairs = 0;
    uint64_t Concrete = 0;
  };

  std::optional<IndexedFailure<SoundnessCounterexample>> Failure =
      sweepPairGrid<SoundnessCounterexample, Local>(
          Grid, Begin, End, Config, /*CancelOnFailure=*/true,
          [&](uint64_t PIndex, uint64_t QBegin, uint64_t QEnd, Local &L,
              RowScratch &Scratch)
              -> std::optional<IndexedFailure<SoundnessCounterexample>> {
            const Tnum &P = Grid.Universe[PIndex];
            const uint64_t Evals = Rows.optimal(PIndex, QBegin, QEnd, Scratch);
            for (uint64_t Q = QBegin; Q != QEnd; ++Q) {
              const Tnum &Qt = Grid.Universe[Q];
              Tnum R = Abstract(P, Qt);
              // Every op(x, y) lies in gamma(R) iff alpha of them is below
              // R (RowScan.h); a bottom R fails.
              if (Scratch.Results[Q - QBegin].isSubsetOf(R))
                continue;
              // The serial scan counts the pairs before this one in full
              // and this one up to its first violation.
              for (uint64_t Held = QBegin; Held != Q; ++Held)
                L.Concrete += pairEvals(P, Grid.Universe[Held]);
              L.Pairs += Q - QBegin + 1;
              std::optional<SoundnessCounterexample> Witness =
                  scanPairMembers(Concrete, Grid.Width, P, Qt, R, L.Concrete);
              assert(Witness && "alpha ⊑ R and the member scan disagree");
              return IndexedFailure<SoundnessCounterexample>{
                  PIndex * Grid.NumTnums + Q, std::move(*Witness)};
            }
            L.Pairs += QEnd - QBegin;
            L.Concrete += Evals;
            return std::nullopt;
          },
          [&](const Local &L) {
            PairsChecked.fetch_add(L.Pairs, std::memory_order_relaxed);
            ConcreteChecked.fetch_add(L.Concrete, std::memory_order_relaxed);
          });

  SoundnessReport Report;
  Report.PairsChecked = PairsChecked.load();
  Report.ConcreteChecked = ConcreteChecked.load();
  if (Failure) {
    publishFailureIndex(FailurePairIndex, Failure->Index);
    Report.Failure = std::move(Failure->Witness);
  } else {
    publishFailureIndex(FailurePairIndex, std::nullopt);
  }
  return Report;
}

OptimalityReport tnums::checkOptimalityRangeParallel(
    BinaryOp Op, MulAlgorithm Mul, const SweepGrid &Grid, uint64_t Begin,
    uint64_t End, const SweepConfig &Config, bool StopAtFirst,
    std::optional<uint64_t> *FailurePairIndex) {
  unsigned Width = Grid.Width;
  return checkOptimalityRangeParallel(
      Op,
      [Op, Width, Mul](const Tnum &P, const Tnum &Q) {
        return applyAbstractBinary(Op, P, Q, Width, Mul);
      },
      Grid, Begin, End, Config, StopAtFirst, FailurePairIndex);
}

OptimalityReport tnums::checkOptimalityRangeParallel(
    BinaryOp Op, const AbstractBinaryFn &Abstract, const SweepGrid &Grid,
    uint64_t Begin, uint64_t End, const SweepConfig &Config,
    bool StopAtFirst, std::optional<uint64_t> *FailurePairIndex) {
  assert((!isShiftOp(Op) || (Grid.Width & (Grid.Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  std::atomic<uint64_t> PairsChecked{0};
  std::atomic<uint64_t> OptimalPairs{0};
  const RowScanner Rows(Grid, Op, Config);

  struct Local {
    uint64_t Pairs = 0;
    uint64_t Optimal = 0;
  };

  // StopAtFirst selects the soundness cancellation protocol (early exit,
  // scheduling-dependent counts on failure) and stops a segment at its
  // first non-optimal Q; the default full-scan keeps OptimalPairs /
  // PairsChecked exact grid totals. Either way the witness is the
  // serial-order first non-optimal pair.
  std::optional<IndexedFailure<OptimalityCounterexample>> Failure =
      sweepPairGrid<OptimalityCounterexample, Local>(
          Grid, Begin, End, Config, /*CancelOnFailure=*/StopAtFirst,
          [&](uint64_t PIndex, uint64_t QBegin, uint64_t QEnd, Local &L,
              RowScratch &Scratch)
              -> std::optional<IndexedFailure<OptimalityCounterexample>> {
            const Tnum &P = Grid.Universe[PIndex];
            Rows.optimal(PIndex, QBegin, QEnd, Scratch);
            std::optional<IndexedFailure<OptimalityCounterexample>> First;
            for (uint64_t Q = QBegin; Q != QEnd; ++Q) {
              ++L.Pairs;
              const Tnum &Optimal = Scratch.Results[Q - QBegin];
              Tnum Actual = Abstract(P, Grid.Universe[Q]);
              if (Actual == Optimal) {
                ++L.Optimal;
                continue;
              }
              if (!First)
                First = IndexedFailure<OptimalityCounterexample>{
                    PIndex * Grid.NumTnums + Q,
                    {P, Grid.Universe[Q], Actual, Optimal}};
              if (StopAtFirst)
                break;
            }
            return First;
          },
          [&](const Local &L) {
            PairsChecked.fetch_add(L.Pairs, std::memory_order_relaxed);
            OptimalPairs.fetch_add(L.Optimal, std::memory_order_relaxed);
          });

  OptimalityReport Report;
  Report.PairsChecked = PairsChecked.load();
  Report.OptimalPairs = OptimalPairs.load();
  if (Failure) {
    publishFailureIndex(FailurePairIndex, Failure->Index);
    Report.Failure = std::move(Failure->Witness);
  } else {
    publishFailureIndex(FailurePairIndex, std::nullopt);
  }
  return Report;
}

MonotonicityReport tnums::checkMonotonicityRangeParallel(
    BinaryOp Op, MulAlgorithm Mul, const SweepGrid &Grid, uint64_t Begin,
    uint64_t End, const SweepConfig &Config,
    std::optional<uint64_t> *FailurePairIndex) {
  assert((!isShiftOp(Op) || (Grid.Width & (Grid.Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  std::atomic<uint64_t> QuadruplesChecked{0};
  const unsigned Width = Grid.Width;

  struct Local {
    uint64_t Quadruples = 0;
  };

  std::optional<IndexedFailure<MonotonicityCounterexample>> Failure =
      sweepPairGrid<MonotonicityCounterexample, Local>(
          Grid, Begin, End, Config, /*CancelOnFailure=*/true,
          [&](uint64_t PIndex, uint64_t QBegin, uint64_t QEnd, Local &L,
              RowScratch &)
              -> std::optional<IndexedFailure<MonotonicityCounterexample>> {
            const Tnum &P2 = Grid.Universe[PIndex];
            for (uint64_t Q = QBegin; Q != QEnd; ++Q) {
              const Tnum &Q2 = Grid.Universe[Q];
              Tnum R2 = applyAbstractBinary(Op, P2, Q2, Width, Mul);
              std::optional<MonotonicityCounterexample> Violation;
              forEachSubTnum(P2, [&](Tnum P1) {
                if (Violation)
                  return;
                forEachSubTnum(Q2, [&](Tnum Q1) {
                  if (Violation)
                    return;
                  ++L.Quadruples;
                  Tnum R1 = applyAbstractBinary(Op, P1, Q1, Width, Mul);
                  if (!R1.isSubsetOf(R2))
                    Violation =
                        MonotonicityCounterexample{P1, Q1, P2, Q2, R1, R2};
                });
              });
              if (Violation)
                return IndexedFailure<MonotonicityCounterexample>{
                    PIndex * Grid.NumTnums + Q, std::move(*Violation)};
            }
            return std::nullopt;
          },
          [&](const Local &L) {
            QuadruplesChecked.fetch_add(L.Quadruples,
                                        std::memory_order_relaxed);
          });

  MonotonicityReport Report;
  Report.QuadruplesChecked = QuadruplesChecked.load();
  if (Failure) {
    publishFailureIndex(FailurePairIndex, Failure->Index);
    Report.Failure = std::move(Failure->Witness);
  } else {
    publishFailureIndex(FailurePairIndex, std::nullopt);
  }
  return Report;
}

PrecisionReport tnums::checkPrecisionRangeParallel(
    BinaryOp Op, const AbstractBinaryFn &Abstract, const SweepGrid &Grid,
    uint64_t Begin, uint64_t End, const SweepConfig &Config) {
  assert((!isShiftOp(Op) || (Grid.Width & (Grid.Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");

  // Precision-scan observability (docs/OBSERVABILITY.md): counters and
  // per-scan latency, recorded only while the process recorder is enabled
  // -- never feeding back into the report (no observer effect).
  struct ScanMetrics {
    Counter Pairs{"tnums_precision_pairs_total"};
    Histogram ScanNs{"tnums_precision_scan_ns"};
  };
  static ScanMetrics Metrics;
  const uint64_t ScanStartNs = metricsEnabled() ? traceNowNs() : 0;
  const RowScanner Rows(Grid, Op, Config);

  // Chunk-local accumulators: buckets and sums add order-independently,
  // and each chunk's worst witness carries its pair index so the global
  // pick (greatest gap, then lowest index) equals the serial scan's
  // first-attaining-max witness for any scheduling.
  struct Local {
    uint64_t Pairs = 0;
    uint64_t SumGap = 0;
    unsigned MaxGap = 0;
    uint64_t Buckets[PrecisionGapBuckets] = {};
    uint64_t WorstIndex = UINT64_MAX;
    std::optional<PrecisionWitness> Worst;
  };

  std::mutex Mutex;
  PrecisionReport Report;
  uint64_t WorstIndex = UINT64_MAX;

  // A measurement has no failures: every segment returns none and every
  // chunk full-scans.
  sweepPairGrid<PrecisionWitness, Local>(
      Grid, Begin, End, Config, /*CancelOnFailure=*/false,
      [&](uint64_t PIndex, uint64_t QBegin, uint64_t QEnd, Local &L,
          RowScratch &Scratch)
          -> std::optional<IndexedFailure<PrecisionWitness>> {
        const Tnum &P = Grid.Universe[PIndex];
        Rows.optimal(PIndex, QBegin, QEnd, Scratch);
        for (uint64_t Q = QBegin; Q != QEnd; ++Q) {
          ++L.Pairs;
          const Tnum &Optimal = Scratch.Results[Q - QBegin];
          Tnum Actual = Abstract(P, Grid.Universe[Q]);
          unsigned G = precisionGap(Actual, Optimal);
          L.SumGap += G;
          ++L.Buckets[G];
          if (G > L.MaxGap) {
            L.MaxGap = G;
            L.WorstIndex = PIndex * Grid.NumTnums + Q;
            L.Worst = PrecisionWitness{P, Grid.Universe[Q], Actual, Optimal,
                                       G};
          }
        }
        return std::nullopt;
      },
      [&](const Local &L) {
        std::lock_guard<std::mutex> Lock(Mutex);
        Report.PairsChecked += L.Pairs;
        Report.SumGap += L.SumGap;
        for (unsigned I = 0; I != PrecisionGapBuckets; ++I)
          Report.Buckets[I] += L.Buckets[I];
        if (L.Worst &&
            (L.MaxGap > Report.MaxGap ||
             (L.MaxGap == Report.MaxGap && L.WorstIndex < WorstIndex))) {
          Report.MaxGap = L.MaxGap;
          WorstIndex = L.WorstIndex;
          Report.Worst = L.Worst;
        }
      });

  Metrics.Pairs.add(Report.PairsChecked);
  if (metricsEnabled())
    Metrics.ScanNs.record(traceNowNs() - ScanStartNs);
  return Report;
}

void tnums::forEachIndexRangeParallel(
    uint64_t Begin, uint64_t End, const SweepConfig &Config,
    const std::function<void(uint64_t, uint64_t)> &Fn) {
  assert(Begin <= End && "bad index range");
  uint64_t ChunkSize = std::max<uint64_t>(1, Config.ChunkPairs);
  uint64_t NumChunks = (End - Begin + ChunkSize - 1) / ChunkSize;
  forEachChunkOnPool(
      Config.NumThreads, NumChunks, [] { return 0; },
      [&](uint64_t Chunk, int &) {
        uint64_t ChunkBegin = Begin + Chunk * ChunkSize;
        Fn(ChunkBegin, std::min(End, ChunkBegin + ChunkSize));
      });
}
