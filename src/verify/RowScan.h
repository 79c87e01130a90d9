//===- verify/RowScan.h - Row-at-a-time member scans ------------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched core of the exhaustive soundness, optimality and precision
/// scans. A *row* of the (P, Q) pair grid is every pair that shares one P;
/// a *row segment* is a run of consecutive Qs of one row; a *lane* is one
/// (Q, y) with y in gamma(Q). A segment's lanes are gamma(Q_0) ++ gamma(Q_1)
/// ++ ... back to back -- one contiguous span of the grid's MemberTable
/// (tnum/TnumMembers.h), 1024 lanes for a full width-5 row -- so for each
/// x in gamma(P) ONE plain loop over the whole span evaluates opC(x, y).
/// Each lane keeps AND and OR accumulators over x, and after the x loop
/// each Q's lanes fold into alpha(opC(gamma(P), gamma(Q))) = (AND, AND ^ OR)
/// (Eqn. 5). The three scans read that one alpha per pair:
///
///  * soundness: alpha ⊑ R. gamma(P) x gamma(Q) is never empty, and by the
///    Galois connection a non-empty set lies in gamma(R) exactly when its
///    alpha is below R; a bottom R (any v & m != 0) fails, as
///    Tnum::contains does for every z. At the first failing pair the
///    scalar member scan (scanPairMembers) finds the serial-order first
///    witness;
///  * optimality: alpha == R;
///  * precision: the gap between R and alpha (verify/OptimalityChecker.h).
///
/// The per-pair fixed cost (a call, a dispatch and a short vector tail per
/// pair and per x) becomes one long pass per x. The lane loop is plain C++
/// templated on the operator, compiled once for the build's baseline
/// instruction set; the compiler's auto-vectorizer supplies the vector
/// instructions (docs/SIMD.md).
///
/// AND and OR are associative and commutative, so alpha of a pair is also
/// the join, over x in gamma(P), of the constant-operand folds of opC(x, .)
/// over gamma(Q). A ConstantRowTable holds those folds for every constant
/// x and every Q of a grid: the lane loop builds it once per (concrete op,
/// width) from 8^n evaluations, and each segment's alphas are then one
/// AND/OR loop over its Qs per x (joinConstantRows) instead of a lane loop
/// over gamma(P) x lanes, which evaluates opC 16^n times per grid.
///
/// Only the fold pass of verify/ParallelSweep.h calls these. The serial
/// checkers never do: they are the scalar oracle the row scan is tested
/// against.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_ROWSCAN_H
#define TNUMS_VERIFY_ROWSCAN_H

#include "verify/Oracle.h"

#include <span>
#include <vector>

namespace tnums {

/// One row segment: P against Qs[0..n), with gamma(P) in Xs and the lanes
/// gamma(Qs[0]) ++ ... ++ gamma(Qs[n-1]) in Lanes, each in subset-odometer
/// order. Qs[k]'s lanes start at Offsets[k] - Offsets[0] and end where the
/// next one's start (Offsets has n + 1 entries): the member table's own
/// offsets, or the ones materializeRow records.
struct RowSegment {
  BinaryOp Op;
  unsigned Width;
  Tnum P;
  std::span<const Tnum> Qs;
  std::span<const uint64_t> Xs;
  std::span<const uint64_t> Lanes;
  std::span<const uint64_t> Offsets;
};

/// Buffers the row scans reuse across segments (the sweeps keep one per
/// worker thread).
struct RowScratch {
  std::vector<uint64_t> Xs;        ///< gamma(P) without a member table.
  std::vector<uint64_t> Lanes;     ///< A segment's lanes, likewise,
  std::vector<uint64_t> Offsets;   ///< and where each Q's lanes start.
  std::vector<uint64_t> Ands, Ors; ///< The per-lane alpha accumulators.
  std::vector<Tnum> Results;       ///< Each Q's alpha, for the caller.
};

/// The segment of P against \p Qs with both concretizations materialized
/// into \p Scratch -- the path without a member table (widths above
/// MemberTableBytesCap's reach, or a grid whose Members a test reset), and
/// what tests use to build segments from explicit tnums. Valid until
/// \p Scratch is next reused.
RowSegment materializeRow(BinaryOp Op, unsigned Width, const Tnum &P,
                          std::span<const Tnum> Qs, RowScratch &Scratch);

/// alpha(opC(gamma(P), gamma(Qs[k]))) for every Q of a row segment, into
/// Optimal[k]: bit-identical to optimalAbstractBinary pair by pair (both
/// reductions are exact, order-independent bitwise folds). P must be
/// well-formed.
void optimalAbstractRow(const RowSegment &Row, RowScratch &Scratch,
                        std::span<Tnum> Optimal);

/// The constant rows of one (concrete op, width) grid: entry (x, k) holds
/// the AND and the OR of opC(x, y) over y in gamma(Universe[k]), for every
/// constant x < 2^n and every k < 3^n. allWellFormedTnums lists the 2^n
/// constants first, in ascending order, so row x is the alpha row of
/// Universe[x].
struct ConstantRowTable {
  BinaryOp Op = BinaryOp::Add;
  uint64_t NumQs = 0;         ///< 3^n: the length of every row.
  std::vector<uint64_t> Ands; ///< Entry (x, k) at x * NumQs + k, in
  std::vector<uint64_t> Ors;  ///< both arrays.
};

/// Bytes a width-\p Width ConstantRowTable occupies: 2^n x 3^n entries of
/// two words (124 kB at width 5, 27 MB at width 8). Width <= 16, as for
/// allWellFormedTnums.
uint64_t constantRowTableBytes(unsigned Width);

/// Fills row x of \p Table from \p Row, the segment of the constant P = x
/// against every Q of the universe (Row.Xs == {x}), on the lane loop.
void buildConstantRow(const RowSegment &Row, RowScratch &Scratch,
                      ConstantRowTable &Table);

/// alpha(opC(gamma(P), gamma(Universe[QBegin + k]))) into Optimal[k], as
/// the join of \p Table's entries (x, QBegin + k) over x in \p Xs =
/// gamma(P): bit-identical to optimalAbstractRow.
void joinConstantRows(const ConstantRowTable &Table,
                      std::span<const uint64_t> Xs, uint64_t QBegin,
                      RowScratch &Scratch, std::span<Tnum> Optimal);

} // namespace tnums

#endif // TNUMS_VERIFY_ROWSCAN_H
