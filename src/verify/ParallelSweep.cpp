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
#include <mutex>

using namespace tnums;

namespace {

/// Schedules \p Body(Chunk, ChunkBegin, ChunkEnd, Worker) over the chunks
/// of ChunkPairs consecutive indices of [\p Begin, \p End) on the sweep
/// pool, with one \p MakeWorker() state per worker thread. Chunks are
/// handed out in ascending order.
template <typename MakeWorkerT, typename BodyT>
void forEachChunk(uint64_t Begin, uint64_t End, const SweepConfig &Config,
                  const MakeWorkerT &MakeWorker, const BodyT &Body) {
  assert(Begin <= End && "bad index range");
  const uint64_t ChunkPairs = std::max<uint64_t>(1, Config.ChunkPairs);
  const uint64_t NumChunks = (End - Begin + ChunkPairs - 1) / ChunkPairs;
  forEachChunkOnPool(Config.NumThreads, NumChunks, MakeWorker,
                     [&](uint64_t Chunk, auto &Worker) {
                       uint64_t ChunkBegin = Begin + Chunk * ChunkPairs;
                       Body(Chunk, ChunkBegin,
                            std::min(End, ChunkBegin + ChunkPairs), Worker);
                     });
}

/// Calls \p Segment(PIndex, QBegin, QEnd) for each row segment of the pair
/// range [\p Begin, \p End) of \p Grid -- the pairs of one P, Qs
/// [QBegin, QEnd) -- in ascending order, while it returns true.
template <typename SegmentT>
void forEachRowSegment(const SweepGrid &Grid, uint64_t Begin, uint64_t End,
                       const SegmentT &Segment) {
  assert(End <= Grid.TotalPairs && "range out of grid");
  for (uint64_t Index = Begin; Index != End;) {
    uint64_t PIndex = Index / Grid.NumTnums;
    uint64_t RowBegin = PIndex * Grid.NumTnums;
    uint64_t SegmentEnd = std::min(End, RowBegin + Grid.NumTnums);
    if (!Segment(PIndex, Index - RowBegin, SegmentEnd - RowBegin))
      return;
    Index = SegmentEnd;
  }
}

/// |gamma(P)| * |gamma(Q)|: the concrete evaluations of one full pair scan.
uint64_t pairEvals(const Tnum &P, const Tnum &Q) {
  return uint64_t(1) << (std::popcount(P.mask()) + std::popcount(Q.mask()));
}

/// Where a fold pass spends its time (docs/OBSERVABILITY.md), recorded
/// only while the process recorder is enabled: alpha (table builds, table
/// joins, lane loops and the scalar fold) and the cells' checks (transfer
/// calls and compares).
struct FoldMetrics {
  Counter AlphaNs{"tnums_sweep_alpha_ns_total"};
  Counter CheckNs{"tnums_sweep_check_ns_total"};
};

FoldMetrics &foldMetrics() {
  static FoldMetrics Metrics;
  return Metrics;
}

/// \p Grid's constant-row table for \p Op, (re)built on the sweep pool
/// when it is missing or holds another operator's rows, one chunk per
/// constant. Null when \p Grid has no member table or the table would not
/// fit ConstantRowTableBytesCap: its segments then run the lane loop.
const ConstantRowTable *constantRows(SweepGrid &Grid, BinaryOp Op,
                                     const SweepConfig &Config) {
  if (!Grid.Members ||
      constantRowTableBytes(Grid.Width) > ConstantRowTableBytesCap)
    return nullptr;
  if (Grid.Rows && Grid.Rows->Op == Op)
    return &*Grid.Rows;
  const bool Timed = metricsEnabled();
  ConstantRowTable &Table = Grid.Rows.emplace();
  Table.Op = Op;
  Table.NumQs = Grid.NumTnums;
  const uint64_t NumConstants = uint64_t(1) << Grid.Width;
  Table.Ands.resize(NumConstants * Grid.NumTnums);
  Table.Ors.resize(NumConstants * Grid.NumTnums);
  const std::span<const Tnum> Qs(Grid.Universe);
  forEachChunkOnPool(
      Config.NumThreads, NumConstants, [] { return RowScratch(); },
      [&](uint64_t X, RowScratch &Scratch) {
        assert(Grid.Universe[X] == Tnum::makeConstant(X) &&
               "the universe lists the constants first, ascending");
        const uint64_t StartNs = Timed ? traceNowNs() : 0;
        const MemberTable &Members = *Grid.Members;
        buildConstantRow(RowSegment{Op, Grid.Width, Grid.Universe[X], Qs,
                                    Members.span(X, X + 1),
                                    Members.span(0, Grid.NumTnums),
                                    Members.offsets(0, Grid.NumTnums)},
                         Scratch, Table);
        if (Timed)
          foldMetrics().AlphaNs.add(traceNowNs() - StartNs);
      });
  return &Table;
}

/// What every row segment of one fold pass shares: the grid, the concrete
/// operator, and the constant-row table when the grid has one.
/// Batched is false under SimdMode::Off, where every segment takes the
/// scalar per-pair path instead.
struct RowScanner {
  const SweepGrid &Grid;
  BinaryOp Op;
  bool Batched;
  const ConstantRowTable *Table = nullptr;

  RowScanner(SweepGrid &Grid, BinaryOp Op, const SweepConfig &Config)
      : Grid(Grid), Op(Op), Batched(simdModeBatches(Config.Simd)) {
    if (Batched)
      Table = constantRows(Grid, Op, Config);
  }

  std::span<const Tnum> qs(uint64_t QBegin, uint64_t QEnd) const {
    return {Grid.Universe.data() + QBegin, QEnd - QBegin};
  }

  /// The lanes of a segment: spans of the member table when it is built,
  /// else materialized into the worker's \p Scratch.
  RowSegment segment(uint64_t PIndex, uint64_t QBegin, uint64_t QEnd,
                     RowScratch &Scratch) const {
    const Tnum &P = Grid.Universe[PIndex];
    if (!Grid.Members)
      return materializeRow(Op, Grid.Width, P, qs(QBegin, QEnd), Scratch);
    return RowSegment{Op,
                      Grid.Width,
                      P,
                      qs(QBegin, QEnd),
                      Grid.Members->span(PIndex, PIndex + 1),
                      Grid.Members->span(QBegin, QEnd),
                      Grid.Members->offsets(QBegin, QEnd)};
  }

  /// alpha(opC(gamma(P), gamma(Q))) for every Q of a segment into
  /// Scratch.Results: the join of the table's rows, the row scan, or the
  /// scalar fold pair by pair. Returns the concrete evaluations a member
  /// scan takes, every member pair of every pair of the segment, which is
  /// what the reports count whichever way alpha was computed.
  uint64_t optimal(uint64_t PIndex, uint64_t QBegin, uint64_t QEnd,
                   RowScratch &Scratch) const {
    std::vector<Tnum> &Optimal = Scratch.Results;
    Optimal.resize(QEnd - QBegin);
    if (Batched) {
      RowSegment Row = segment(PIndex, QBegin, QEnd, Scratch);
      if (Table)
        joinConstantRows(*Table, Row.Xs, QBegin, Scratch, Optimal);
      else
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

bool stopsAtFirstFailure(FoldCheck Check) {
  return Check == FoldCheck::Soundness || Check == FoldCheck::OptimalityFirst;
}

/// One cell's share of one chunk: the counters of its report, its first
/// failure in the chunk (by grid index), and whether it still scans.
struct FoldLocal {
  bool Live = false;
  SoundnessReport Soundness;
  OptimalityReport Optimality;
  PrecisionReport Precision;
  std::optional<uint64_t> FailureIndex;
  uint64_t WorstIndex = UINT64_MAX;
};

/// A fold pass worker: the row scan's buffers (their capacity, up to a
/// row's lanes per array, is allocated once per thread, not per chunk) and
/// one FoldLocal per cell.
struct FoldWorker {
  RowScratch Scratch;
  std::vector<FoldLocal> Locals;
};

// The witnesses are recorded out of line so that the hot loops below keep
// the transfer function's result in registers: built inline, GCC moves it
// through the stack into a vector register on every pair, which defeats
// store-to-load forwarding.

/// Records a chunk's first non-optimal pair.
[[gnu::noinline, gnu::cold]] void recordNonOptimal(const SweepGrid &Grid,
                                                   uint64_t PIndex, uint64_t Q,
                                                   Tnum Actual, Tnum Optimal,
                                                   FoldLocal &L) {
  L.FailureIndex = PIndex * Grid.NumTnums + Q;
  L.Optimality.Failure = {Grid.Universe[PIndex], Grid.Universe[Q], Actual,
                          Optimal};
}

/// Records a chunk's new worst precision gap.
[[gnu::noinline, gnu::cold]] void recordWorst(const SweepGrid &Grid,
                                              uint64_t PIndex, uint64_t Q,
                                              Tnum Actual, Tnum Optimal,
                                              unsigned G, FoldLocal &L) {
  L.Precision.MaxGap = G;
  L.WorstIndex = PIndex * Grid.NumTnums + Q;
  L.Precision.Worst = PrecisionWitness{Grid.Universe[PIndex],
                                       Grid.Universe[Q], Actual, Optimal, G};
}

/// Applies \p Check with the transfer function \p Abstract to the segment
/// of P = Universe[PIndex] against Qs [\p QBegin, \p QEnd), whose alphas
/// are \p Alphas and took \p Evals concrete evaluations. Returns false once
/// the cell stops in this chunk.
template <typename AbstractT>
bool foldSegmentWith(const AbstractT &Abstract, FoldCheck Check,
                     const SweepGrid &Grid, BinaryOp Concrete, uint64_t PIndex,
                     uint64_t QBegin, uint64_t QEnd,
                     const std::vector<Tnum> &Alphas, uint64_t Evals,
                     FoldLocal &L) {
  const Tnum &P = Grid.Universe[PIndex];
  const uint64_t RowBegin = PIndex * Grid.NumTnums;
  switch (Check) {
  case FoldCheck::Soundness:
    for (uint64_t Q = QBegin; Q != QEnd; ++Q) {
      Tnum R = Abstract(P, Grid.Universe[Q]);
      // Every op(x, y) lies in gamma(R) iff alpha of them is below R
      // (RowScan.h); a bottom R fails.
      if (Alphas[Q - QBegin].isSubsetOf(R))
        continue;
      // The serial scan counts the pairs before this one in full and this
      // one up to its first violation.
      for (uint64_t Held = QBegin; Held != Q; ++Held)
        L.Soundness.ConcreteChecked += pairEvals(P, Grid.Universe[Held]);
      L.Soundness.PairsChecked += Q - QBegin + 1;
      L.Soundness.Failure =
          scanPairMembers(Concrete, Grid.Width, P, Grid.Universe[Q], R,
                          L.Soundness.ConcreteChecked);
      assert(L.Soundness.Failure && "alpha ⊑ R and the member scan disagree");
      L.FailureIndex = RowBegin + Q;
      return false;
    }
    L.Soundness.PairsChecked += QEnd - QBegin;
    L.Soundness.ConcreteChecked += Evals;
    return true;
  case FoldCheck::Optimality:
  case FoldCheck::OptimalityFirst: {
    // Counted in locals: L's counters would make a store-to-load chain
    // through memory on every pair.
    uint64_t OptimalPairs = 0;
    bool Stopped = false;
    uint64_t Q = QBegin;
    for (; Q != QEnd && !Stopped; ++Q) {
      Tnum Actual = Abstract(P, Grid.Universe[Q]);
      if (Actual == Alphas[Q - QBegin]) {
        ++OptimalPairs;
        continue;
      }
      if (!L.FailureIndex)
        recordNonOptimal(Grid, PIndex, Q, Actual, Alphas[Q - QBegin], L);
      Stopped = Check == FoldCheck::OptimalityFirst;
    }
    L.Optimality.PairsChecked += Q - QBegin;
    L.Optimality.OptimalPairs += OptimalPairs;
    return !Stopped;
  }
  case FoldCheck::Precision: {
    uint64_t SumGap = 0;
    for (uint64_t Q = QBegin; Q != QEnd; ++Q) {
      const Tnum &Optimal = Alphas[Q - QBegin];
      Tnum Actual = Abstract(P, Grid.Universe[Q]);
      unsigned G = precisionGap(Actual, Optimal);
      SumGap += G;
      ++L.Precision.Buckets[G];
      if (G > L.Precision.MaxGap)
        recordWorst(Grid, PIndex, Q, Actual, Optimal, G, L);
    }
    L.Precision.PairsChecked += QEnd - QBegin;
    L.Precision.SumGap += SumGap;
    return true;
  }
  }
  return false;
}

/// Applies \p Cell's check to one segment (see foldSegmentWith): a
/// built-in transfer function is dispatched here, once per segment, and
/// inlined into the check's loop.
bool foldSegment(const FoldCell &Cell, const SweepGrid &Grid,
                 BinaryOp Concrete, uint64_t PIndex, uint64_t QBegin,
                 uint64_t QEnd, const std::vector<Tnum> &Alphas,
                 uint64_t Evals, FoldLocal &L) {
  const FoldTransfer &T = Cell.Transfer;
  auto Fold = [&](const auto &Abstract) {
    return foldSegmentWith(Abstract, Cell.Check, Grid, Concrete, PIndex,
                           QBegin, QEnd, Alphas, Evals, L);
  };
  if (T.Override)
    return Fold(T.Override);
  return withAbstractBinary(T.Op, T.Mul, T.Width, Fold);
}

/// Folds one chunk's share into \p Cell. Counters add; the failure kept is
/// the lowest-indexed one (each chunk's first is its serial first), and
/// the worst precision witness the greatest gap, ties to the lowest index.
void mergeFoldLocal(const FoldLocal &L, FoldCell &Cell,
                    uint64_t &WorstIndex) {
  Cell.Soundness.PairsChecked += L.Soundness.PairsChecked;
  Cell.Soundness.ConcreteChecked += L.Soundness.ConcreteChecked;
  Cell.Optimality.PairsChecked += L.Optimality.PairsChecked;
  Cell.Optimality.OptimalPairs += L.Optimality.OptimalPairs;
  if (L.FailureIndex &&
      (!Cell.FailureIndex || *L.FailureIndex < *Cell.FailureIndex)) {
    Cell.FailureIndex = L.FailureIndex;
    Cell.Soundness.Failure = L.Soundness.Failure;
    Cell.Optimality.Failure = L.Optimality.Failure;
  }
  PrecisionReport &Report = Cell.Precision;
  Report.PairsChecked += L.Precision.PairsChecked;
  Report.SumGap += L.Precision.SumGap;
  for (unsigned G = 0; G != PrecisionGapBuckets; ++G)
    Report.Buckets[G] += L.Precision.Buckets[G];
  if (L.Precision.Worst &&
      (L.Precision.MaxGap > Report.MaxGap ||
       (L.Precision.MaxGap == Report.MaxGap && L.WorstIndex < WorstIndex))) {
    Report.MaxGap = L.Precision.MaxGap;
    WorstIndex = L.WorstIndex;
    Report.Worst = L.Precision.Worst;
  }
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

void tnums::checkFoldRangeParallel(BinaryOp Concrete, SweepGrid &Grid,
                                   uint64_t Begin, uint64_t End,
                                   const SweepConfig &Config,
                                   std::span<FoldCell> Cells) {
  assert((!isShiftOp(Concrete) || (Grid.Width & (Grid.Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  // Precision-scan observability (docs/OBSERVABILITY.md): counters and
  // per-pass latency, recorded only while the process recorder is enabled
  // -- never feeding back into the report (no observer effect).
  struct ScanMetrics {
    Counter Pairs{"tnums_precision_pairs_total"};
    Histogram ScanNs{"tnums_precision_scan_ns"};
  };
  static ScanMetrics Metrics;
  const bool Timed = metricsEnabled();
  const uint64_t ScanStartNs = Timed ? traceNowNs() : 0;
  const RowScanner Rows(Grid, Concrete, Config);
  const size_t NumCells = Cells.size();

  // Per cell: the lowest chunk holding a failure (the serial-order first
  // one lies in it) and, under Mutex, the lowest index of a retained
  // precision witness.
  std::vector<std::atomic<uint64_t>> FirstFailChunk(NumCells);
  for (std::atomic<uint64_t> &Chunk : FirstFailChunk)
    Chunk.store(UINT64_MAX, std::memory_order_relaxed);
  std::vector<uint64_t> WorstIndex(NumCells, UINT64_MAX);
  std::mutex Mutex;
  for (FoldCell &Cell : Cells)
    Cell = FoldCell(Cell.Check, std::move(Cell.Transfer));

  // A stopping cell is live in a chunk until it fails there, and never in
  // a chunk above its lowest failing one.
  auto cancelled = [&](size_t C, uint64_t Chunk) {
    return stopsAtFirstFailure(Cells[C].Check) &&
           Chunk > FirstFailChunk[C].load(std::memory_order_acquire);
  };

  forEachChunk(
      Begin, End, Config, [] { return FoldWorker(); },
      [&](uint64_t Chunk, uint64_t ChunkBegin, uint64_t ChunkEnd,
          FoldWorker &W) {
        W.Locals.assign(NumCells, FoldLocal{});
        for (size_t C = 0; C != NumCells; ++C)
          W.Locals[C].Live = !cancelled(C, Chunk);
        forEachRowSegment(Grid, ChunkBegin, ChunkEnd, [&](uint64_t PIndex,
                                                          uint64_t QBegin,
                                                          uint64_t QEnd) {
          bool AnyLive = false;
          for (size_t C = 0; C != NumCells; ++C) {
            FoldLocal &L = W.Locals[C];
            L.Live = L.Live && !cancelled(C, Chunk);
            AnyLive |= L.Live;
          }
          if (!AnyLive)
            return false;
          const uint64_t AlphaStartNs = Timed ? traceNowNs() : 0;
          const uint64_t Evals = Rows.optimal(PIndex, QBegin, QEnd, W.Scratch);
          const uint64_t CheckStartNs = Timed ? traceNowNs() : 0;
          for (size_t C = 0; C != NumCells; ++C) {
            FoldLocal &L = W.Locals[C];
            if (!L.Live ||
                foldSegment(Cells[C], Grid, Concrete, PIndex, QBegin, QEnd,
                            W.Scratch.Results, Evals, L))
              continue;
            // This chunk's first (= serial-order) violation is recorded.
            L.Live = false;
            atomicMinU64(FirstFailChunk[C], Chunk);
          }
          if (Timed) {
            foldMetrics().AlphaNs.add(CheckStartNs - AlphaStartNs);
            foldMetrics().CheckNs.add(traceNowNs() - CheckStartNs);
          }
          return true;
        });
        std::lock_guard<std::mutex> Lock(Mutex);
        for (size_t C = 0; C != NumCells; ++C)
          mergeFoldLocal(W.Locals[C], Cells[C], WorstIndex[C]);
      });

  bool AnyPrecision = false;
  for (const FoldCell &Cell : Cells)
    if (Cell.Check == FoldCheck::Precision) {
      AnyPrecision = true;
      Metrics.Pairs.add(Cell.Precision.PairsChecked);
    }
  if (AnyPrecision && Timed)
    Metrics.ScanNs.record(traceNowNs() - ScanStartNs);
}

MonotonicityReport tnums::checkMonotonicityRangeParallel(
    BinaryOp Op, MulAlgorithm Mul, const SweepGrid &Grid, uint64_t Begin,
    uint64_t End, const SweepConfig &Config,
    std::optional<uint64_t> *FailurePairIndex) {
  assert((!isShiftOp(Op) || (Grid.Width & (Grid.Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  const unsigned Width = Grid.Width;
  // The lowest chunk with a violation: chunks above it are cancelled, and
  // its first violation is the serial-order first one.
  std::atomic<uint64_t> FirstFailChunk{UINT64_MAX};
  std::mutex Mutex;
  MonotonicityReport Report;
  std::optional<uint64_t> FailIndex;

  forEachChunk(
      Begin, End, Config, [] { return 0; },
      [&](uint64_t Chunk, uint64_t ChunkBegin, uint64_t ChunkEnd, int &) {
        if (Chunk > FirstFailChunk.load(std::memory_order_acquire))
          return;
        uint64_t Quadruples = 0;
        std::optional<MonotonicityCounterexample> Violation;
        uint64_t ViolationIndex = 0;
        forEachRowSegment(Grid, ChunkBegin, ChunkEnd, [&](uint64_t PIndex,
                                                          uint64_t QBegin,
                                                          uint64_t QEnd) {
          if (Chunk > FirstFailChunk.load(std::memory_order_relaxed))
            return false;
          const Tnum &P2 = Grid.Universe[PIndex];
          for (uint64_t Q = QBegin; Q != QEnd && !Violation; ++Q) {
            const Tnum &Q2 = Grid.Universe[Q];
            Tnum R2 = applyAbstractBinary(Op, P2, Q2, Width, Mul);
            forEachSubTnum(P2, [&](Tnum P1) {
              if (Violation)
                return;
              forEachSubTnum(Q2, [&](Tnum Q1) {
                if (Violation)
                  return;
                ++Quadruples;
                Tnum R1 = applyAbstractBinary(Op, P1, Q1, Width, Mul);
                if (R1.isSubsetOf(R2))
                  return;
                Violation = MonotonicityCounterexample{P1, Q1, P2, Q2, R1, R2};
                ViolationIndex = PIndex * Grid.NumTnums + Q;
              });
            });
          }
          return !Violation;
        });
        if (Violation)
          atomicMinU64(FirstFailChunk, Chunk);
        std::lock_guard<std::mutex> Lock(Mutex);
        Report.QuadruplesChecked += Quadruples;
        if (Violation && (!FailIndex || ViolationIndex < *FailIndex)) {
          FailIndex = ViolationIndex;
          Report.Failure = std::move(Violation);
        }
      });

  if (FailurePairIndex)
    *FailurePairIndex = Report.Failure ? FailIndex : std::nullopt;
  return Report;
}

void tnums::forEachIndexRangeParallel(
    uint64_t Begin, uint64_t End, const SweepConfig &Config,
    const std::function<void(uint64_t, uint64_t)> &Fn) {
  forEachChunk(Begin, End, Config, [] { return 0; },
               [&](uint64_t, uint64_t ChunkBegin, uint64_t ChunkEnd, int &) {
                 Fn(ChunkBegin, ChunkEnd);
               });
}
