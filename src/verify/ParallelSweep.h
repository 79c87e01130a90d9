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
/// number of [Begin, End) pair-index ranges are swept against it.
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
///    chunk's witness is exactly the serial witness. The work counters
///    then reflect only the work actually performed (cancellation makes
///    them scheduling-dependent; one thread gives the exact serial
///    prefix). The Campaign layer re-normalizes failing shards to the
///    exact serial-prefix counts, which is what makes its merged reports
///    deterministic; see docs/CAMPAIGN.md.
///
/// The scans accept an injectable abstract operator so the test suite
/// can feed deliberately broken transfer functions through the exact same
/// machinery and observe the deterministic witness.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_PARALLELSWEEP_H
#define TNUMS_VERIFY_PARALLELSWEEP_H

#include "support/SimdBatch.h"
#include "tnum/TnumMembers.h"
#include "verify/MonotonicityChecker.h"
#include "verify/OptimalityChecker.h"
#include "verify/SoundnessChecker.h"

#include <functional>
#include <optional>
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
};

/// Enumerates the width-\p Width universe and, when \p Config's batched
/// path and byte cap allow, memoizes the member table.
SweepGrid makeSweepGrid(unsigned Width, const SweepConfig &Config);

/// Range forms of the three sweeps: scan pair indices [\p Begin, \p End)
/// of \p Grid under the determinism contract above, restricted to the
/// range (the "serial order" is the ascending index order of the range).
/// When the sweep fails and \p FailurePairIndex is non-null, it receives
/// the failing pair's grid index -- the Campaign layer uses it to
/// re-normalize failing shards to exact serial-prefix counters.
///
/// Soundness reads the optimality fold: a pair holds iff its alpha is
/// below \p Abstract's result (verify/RowScan.h), and only the first
/// failing pair is scanned member by member (scanPairMembers), for the
/// serial-order first witness and its evaluation count.
SoundnessReport checkSoundnessRangeParallel(
    BinaryOp Concrete, const AbstractBinaryFn &Abstract,
    const SweepGrid &Grid, uint64_t Begin, uint64_t End,
    const SweepConfig &Config,
    std::optional<uint64_t> *FailurePairIndex = nullptr);

OptimalityReport checkOptimalityRangeParallel(
    BinaryOp Op, MulAlgorithm Mul, const SweepGrid &Grid, uint64_t Begin,
    uint64_t End, const SweepConfig &Config, bool StopAtFirst,
    std::optional<uint64_t> *FailurePairIndex = nullptr);

/// Same, with an injected abstract operator compared against the optimal
/// abstraction of \p Concrete's semantics.
OptimalityReport checkOptimalityRangeParallel(
    BinaryOp Concrete, const AbstractBinaryFn &Abstract,
    const SweepGrid &Grid, uint64_t Begin, uint64_t End,
    const SweepConfig &Config, bool StopAtFirst,
    std::optional<uint64_t> *FailurePairIndex = nullptr);

MonotonicityReport checkMonotonicityRangeParallel(
    BinaryOp Op, MulAlgorithm Mul, const SweepGrid &Grid, uint64_t Begin,
    uint64_t End, const SweepConfig &Config,
    std::optional<uint64_t> *FailurePairIndex = nullptr);

/// Parallel precision-gap measurement over [\p Begin, \p End): the range
/// form of measurePrecisionGap (verify/OptimalityChecker.h), always a
/// full scan (a measurement has no cancellation protocol). \p Abstract is
/// the transfer function under measurement (the campaign's override hook
/// flows through here); \p Op supplies the concrete semantics the optimal
/// yardstick enumerates. Chunk-local histograms merge order-independently
/// -- buckets and sums add, and the retained Worst witness is the one with
/// the greatest gap, ties broken by lowest pair index -- so the report is
/// bit-identical to the serial reference for every thread count, chunk
/// size, and SIMD tier. Computes the optimal results with the optimality
/// sweep's row scan.
PrecisionReport checkPrecisionRangeParallel(BinaryOp Op,
                                            const AbstractBinaryFn &Abstract,
                                            const SweepGrid &Grid,
                                            uint64_t Begin, uint64_t End,
                                            const SweepConfig &Config);

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
