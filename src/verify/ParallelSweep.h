//===- verify/ParallelSweep.h - Parallel exhaustive verification -*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched, multithreaded verification engine under the campaign layer.
/// The serial checkers (SoundnessChecker.h, OptimalityChecker.h,
/// MonotonicityChecker.h) walk the 9^n grid of well-formed tnum pairs in
/// row-major order; they are the scalar oracles. At the widths the paper's
/// campaign targets (kern_mul was SMT-verified only up to n = 8) that walk
/// costs 16^n concrete evaluations and stops being interactive. This
/// engine splits the same grid into fixed-size chunks of consecutive
/// (P, Q) pair indices, scans each chunk one row segment at a time
/// (verify/RowScan.h), and runs the chunks on a work-stealing thread pool
/// (support/ThreadPool.h), pushing exhaustive sweeps to width 10-12.
///
/// The engine is *range-based*: a SweepGrid (the enumerated universe plus
/// the optional memoized member table) is built once per width and any
/// number of [Begin, End) pair-index ranges are swept against it. The
/// soundness, optimality and precision checks all read one fold, alpha of
/// the concrete operator over each pair, so they run as cells of one fold
/// pass (checkFoldRangeParallel): any number of cells that share a
/// concrete operator and width read one alpha per row segment, which the
/// grid's constant-row table (verify/RowScan.h) gives once a pass has
/// built it for that operator.
/// verify/Campaign.h layers sharding, checkpointing, and order-independent
/// merging on top, and runCampaign is how every front end runs a whole
/// grid; the range scans below are its building blocks.
///
/// Determinism contract: results are bit-identical for every thread count,
/// chunk size and SIMD mode, and equal the serial checkers' reports.
///
///  * When the property holds, every chunk is fully scanned, so the
///    PairsChecked / ConcreteChecked totals (and OptimalPairs) are exact
///    grid totals -- independent of scheduling.
///  * When the property fails, the reported counterexample is the FIRST
///    one in serial row-major order: each chunk stops at its own first
///    violation, chunks above the lowest failing chunk are cancelled, and
///    chunks below it always run to completion, so the minimum failing
///    chunk's witness is exactly the serial witness. In a fold pass this
///    holds per cell. The work counters
///    then reflect only the work actually performed (cancellation makes
///    them scheduling-dependent; one thread gives the exact serial
///    prefix). The Campaign layer re-normalizes failing shards to the
///    exact serial-prefix counts, which is what makes its merged reports
///    deterministic; see docs/CAMPAIGN.md.
///
/// The scans call the built-in transfer functions inline, dispatched once
/// per row segment, and also accept an injectable abstract operator so the
/// test suite can feed deliberately broken transfer functions through the
/// exact same machinery and observe the deterministic witness.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_PARALLELSWEEP_H
#define TNUMS_VERIFY_PARALLELSWEEP_H

#include "support/SimdBatch.h"
#include "tnum/TnumMembers.h"
#include "verify/MonotonicityChecker.h"
#include "verify/OptimalityChecker.h"
#include "verify/RowScan.h"
#include "verify/SoundnessChecker.h"

#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace tnums {

/// Tuning knobs for a parallel sweep.
struct SweepConfig {
  /// Worker threads; 0 means ThreadPool::hardwareConcurrency().
  unsigned NumThreads = 0;

  /// Consecutive (P, Q) pair indices per work chunk. The default keeps
  /// chunks coarse enough that queue traffic is negligible yet fine
  /// enough that 4-16 threads load-balance across the wildly varying
  /// |gamma(P)| * |gamma(Q)| chunk costs.
  uint64_t ChunkPairs = 4096;

  /// How the scans compute each pair's alpha (support/SimdBatch.h): the
  /// row scan (verify/RowScan.h) with the host's best tier by default,
  /// SimdMode::Off for the scalar per-pair reference. Orthogonal to the
  /// determinism contract -- every mode produces bit-identical reports.
  SimdMode Simd = SimdMode::Auto;
};

/// Budget for memoizing the per-universe member table
/// (tnum/TnumMembers.h): when gamma of the whole universe fits
/// (memberTableBytes(width) <= cap), the row scans read each segment's
/// lanes straight from it instead of materializing them per segment.
/// 256 MiB covers widths <= 12 (128 MiB at width 12). Bit-identical
/// reports either way.
inline constexpr uint64_t MemberTableBytesCap = uint64_t(1) << 28;

/// Budget for a grid's constant-row table (verify/RowScan.h): a grid with a
/// member table builds one when constantRowTableBytes(width) <= cap, and
/// its fold passes join table rows instead of running the lane loop over
/// gamma(P). 256 MiB covers widths <= 9 (161 MB at width 9, 967 MB at
/// width 10); the six-mul width-9 soundness campaign runs faster with the
/// table than without. Bit-identical reports either way.
inline constexpr uint64_t ConstantRowTableBytesCap = uint64_t(1) << 28;

/// An abstract binary transfer function as the sweep sees it: inputs are
/// well-formed width-n tnums, the result is already truncated to width.
/// Signature matches applyAbstractBinary after binding Op/Width/Mul.
using AbstractBinaryFn = std::function<Tnum(const Tnum &, const Tnum &)>;

/// The row-major (P, Q) pair grid every sweep walks: pair index I maps to
/// P = Universe[I / NumTnums], Q = Universe[I % NumTnums] -- the exact
/// order the serial checkers use, which is what makes "minimum failing
/// chunk, first failure inside it" equal the serial witness. Build one
/// per width (makeSweepGrid) and sweep any number of ranges against it:
/// the universe enumeration and the member table are the per-width state
/// the Campaign layer shares across every shard and property of a cell.
struct SweepGrid {
  unsigned Width = 0;
  std::vector<Tnum> Universe;
  uint64_t NumTnums = 0;
  uint64_t TotalPairs = 0;
  /// Engaged when the batched path is on and gamma of the whole universe
  /// fits MemberTableBytesCap (see tnum/TnumMembers.h).
  std::optional<MemberTable> Members;
  /// The constant-row table of the last concrete operator a batched fold
  /// pass swept on this grid, built by the first pass that needs it when
  /// Members is engaged and it fits ConstantRowTableBytesCap. One slot is
  /// enough: a campaign runs all of one grid's passes back to back.
  std::optional<ConstantRowTable> Rows;
};

/// Enumerates the width-\p Width universe and, when \p Config's batched
/// path and byte cap allow, memoizes the member table.
SweepGrid makeSweepGrid(unsigned Width, const SweepConfig &Config);

/// What one cell of a fold pass checks against the pass's alpha
/// (verify/RowScan.h) with its own transfer function R.
enum class FoldCheck : uint8_t {
  /// alpha ⊑ R; stops at the first failing pair, which alone is scanned
  /// member by member (scanPairMembers) for the serial-order first
  /// witness and its evaluation count.
  Soundness,
  /// alpha == R over the whole range: exact OptimalPairs totals.
  Optimality,
  /// alpha == R, stopping at the first non-optimal pair.
  OptimalityFirst,
  /// The gap between R and alpha (measurePrecisionGap's report): a
  /// measurement, so always a full scan.
  Precision,
};

/// The transfer function R a fold cell checks: a built-in
/// applyAbstractBinary(Op, P, Q, Width, Mul), which a pass dispatches once
/// per row segment (withAbstractBinary) and calls inline, or an Override
/// -- a broken operator in a test, --flip-mul -- called through
/// std::function.
struct FoldTransfer {
  FoldTransfer(BinaryOp Op, MulAlgorithm Mul, unsigned Width)
      : Op(Op), Mul(Mul), Width(Width) {}
  FoldTransfer(AbstractBinaryFn Override) : Override(std::move(Override)) {}

  BinaryOp Op = BinaryOp::Add;
  MulAlgorithm Mul = MulAlgorithm::Our;
  unsigned Width = 0;
  AbstractBinaryFn Override; ///< Replaces the built-in when set.
};

/// One cell of a fold pass: its check, its transfer function, and, once
/// the pass returns, the report matching Check. A failing Soundness,
/// Optimality or OptimalityFirst cell also gets the failing pair's grid
/// index -- the Campaign layer uses it to re-normalize failing shards to
/// exact serial-prefix counters.
struct FoldCell {
  FoldCell(FoldCheck Check, FoldTransfer Transfer)
      : Check(Check), Transfer(std::move(Transfer)) {}
  FoldCell(FoldCheck Check, AbstractBinaryFn Override)
      : FoldCell(Check, FoldTransfer(std::move(Override))) {}

  FoldCheck Check;
  FoldTransfer Transfer;
  SoundnessReport Soundness;
  OptimalityReport Optimality;
  PrecisionReport Precision;
  std::optional<uint64_t> FailureIndex;
};

/// The fold pass: scans pair indices [\p Begin, \p End) of \p Grid once
/// for every cell of \p Cells, under the determinism contract above
/// restricted to the range (the "serial order" is the ascending index
/// order of the range). Each row segment's alpha(opC(gamma(P), gamma(Q)))
/// for \p Concrete is computed once, and only while some cell is still
/// live in the segment's chunk; each cell then applies its own check.
/// The cancellation protocol is per cell: a stopping cell (Soundness,
/// OptimalityFirst) skips the chunks above its own lowest failing chunk,
/// and a chunk stops once every cell in it is done. Each cell's report
/// equals what a pass of that cell alone reports.
///
/// Precision reports merge chunk-local histograms order-independently --
/// buckets and sums add, and the retained Worst witness is the one with
/// the greatest gap, ties broken by lowest pair index -- so they are
/// bit-identical to the serial reference for every thread count, chunk
/// size, and SIMD tier.
///
/// A batched pass over a grid whose constant-row table is missing or was
/// built for another operator first (re)builds it, on the sweep pool, so
/// passes over one grid must not run concurrently.
void checkFoldRangeParallel(BinaryOp Concrete, SweepGrid &Grid,
                            uint64_t Begin, uint64_t End,
                            const SweepConfig &Config,
                            std::span<FoldCell> Cells);

/// The range form of the monotonicity sweep, under the same contract; a
/// failure's grid index goes to \p FailurePairIndex when non-null.
MonotonicityReport checkMonotonicityRangeParallel(
    BinaryOp Op, MulAlgorithm Mul, const SweepGrid &Grid, uint64_t Begin,
    uint64_t End, const SweepConfig &Config,
    std::optional<uint64_t> *FailurePairIndex = nullptr);

/// Schedules \p Fn(ChunkBegin, ChunkEnd) over consecutive chunks of the
/// index range [\p Begin, \p End) on the sweep pool -- the building block
/// the Table I / Fig. 4 pair walks use to run order-independent reductions
/// (counter sums, histograms) over a checkpointed shard in parallel.
/// Ranges are disjoint and cover [Begin, End) exactly once; \p Fn runs
/// concurrently and must synchronize any merging into shared state itself.
/// With NumThreads == 1 the ranges run inline, in increasing order, on the
/// calling thread.
void forEachIndexRangeParallel(
    uint64_t Begin, uint64_t End, const SweepConfig &Config,
    const std::function<void(uint64_t, uint64_t)> &Fn);

} // namespace tnums

#endif // TNUMS_VERIFY_PARALLELSWEEP_H
