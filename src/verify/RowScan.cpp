//===- verify/RowScan.cpp - Row-at-a-time member scans --------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/RowScan.h"

#include "support/Bits.h"
#include "support/Metrics.h"
#include "tnum/TnumEnum.h"
#include "tnum/TnumMembers.h"

#include <algorithm>
#include <cassert>

using namespace tnums;

namespace {

//===----------------------------------------------------------------------===//
// Lane loops
//
// One plain loop body per operator, no intrinsics. Every operand is a
// member of a width-n tnum, so it already fits the width: add/sub/mul/lsh
// need the result mask and nothing else does. When Width <= 32 (Narrow)
// both operands fit 32 bits, so the 32-bit multiply, divide and remainder
// are exact. x is fixed for a whole pass, so per-x work (arsh's sign
// extension) is hoisted out of the lane loop.
//===----------------------------------------------------------------------===//

/// Everything a lane loop reads or writes.
struct LaneArgs {
  const uint64_t *Xs;
  uint64_t NumXs;
  const uint64_t *Ys;
  uint64_t NumLanes;
  uint64_t *Ands; ///< Per-lane AND accumulators.
  uint64_t *Ors;  ///< Per-lane OR accumulators.
  unsigned Width;
  uint64_t WMask;
  uint64_t ShiftMask; ///< Width - 1: shift amounts (power-of-two widths).
};

/// opC(X, Y) at the width; for Arsh, X arrives sign-extended to 64 bits.
template <BinaryOp Op, bool Narrow>
[[gnu::always_inline]] inline uint64_t evalLane(uint64_t X, uint64_t Y,
                                                const LaneArgs &A) {
  if constexpr (Op == BinaryOp::Add) {
    return (X + Y) & A.WMask;
  } else if constexpr (Op == BinaryOp::Sub) {
    return (X - Y) & A.WMask;
  } else if constexpr (Op == BinaryOp::Mul) {
    if constexpr (Narrow)
      return (uint64_t(uint32_t(X)) * uint32_t(Y)) & A.WMask;
    else
      return (X * Y) & A.WMask;
  } else if constexpr (Op == BinaryOp::Div || Op == BinaryOp::Mod) {
    // BPF: x / 0 == 0 and x % 0 == x. The divisor is bumped to 1 on zero
    // so the division itself never traps and needs no branch: x / 1 is x
    // (cleared for div) and x % 1 is 0 (replaced by x for mod).
    uint64_t IsZero = Y == 0;
    uint64_t D = Y | IsZero;
    if constexpr (Op == BinaryOp::Div) {
      uint64_t R = Narrow ? uint32_t(X) / uint32_t(D) : X / D;
      return R & (IsZero - 1);
    } else {
      uint64_t R = Narrow ? uint32_t(X) % uint32_t(D) : X % D;
      return R | (X & (0 - IsZero));
    }
  } else if constexpr (Op == BinaryOp::And) {
    return X & Y;
  } else if constexpr (Op == BinaryOp::Or) {
    return X | Y;
  } else if constexpr (Op == BinaryOp::Xor) {
    return X ^ Y;
  } else if constexpr (Op == BinaryOp::Lsh) {
    return (X << (Y & A.ShiftMask)) & A.WMask;
  } else if constexpr (Op == BinaryOp::Rsh) {
    return X >> (Y & A.ShiftMask);
  } else {
    static_assert(Op == BinaryOp::Arsh);
    return uint64_t(int64_t(X) >> (Y & A.ShiftMask)) & A.WMask;
  }
}

/// Lanes per block of the x loop: three 8-byte arrays of this many lanes
/// (24 KiB) stay in a 32 KiB L1 across the passes over gamma(P). A full
/// width-5 row is one block; wider rows would otherwise stream every array
/// from L2 once per x.
constexpr uint64_t LaneBlock = 1024;

/// The row scan proper, one block of lanes at a time: folds every x into
/// the per-lane AND/OR accumulators.
template <BinaryOp Op, bool Narrow> void laneLoop(const LaneArgs &A) {
  for (uint64_t B = 0; B < A.NumLanes; B += LaneBlock) {
    const uint64_t N = std::min(LaneBlock, A.NumLanes - B);
    const uint64_t *__restrict Ys = A.Ys + B;
    for (uint64_t I = 0; I != A.NumXs; ++I) {
      uint64_t X = A.Xs[I];
      if constexpr (Op == BinaryOp::Arsh)
        X = static_cast<uint64_t>(signExtend(X, A.Width));
      uint64_t *__restrict Ands = A.Ands + B;
      uint64_t *__restrict Ors = A.Ors + B;
      for (uint64_t J = 0; J != N; ++J) {
        uint64_t Z = evalLane<Op, Narrow>(X, Ys[J], A);
        Ands[J] &= Z;
        Ors[J] |= Z;
      }
    }
  }
}

/// Everything a join loop reads or writes.
struct JoinArgs {
  const uint64_t *Xs;
  uint64_t NumXs;
  const uint64_t *TableAnds; ///< Entry (0, QBegin) of the table,
  const uint64_t *TableOrs;  ///< in both arrays.
  uint64_t RowLength;        ///< Words from one table row to the next.
  uint64_t NumQs;
  uint64_t *Ands; ///< Per-Q AND accumulators.
  uint64_t *Ors;  ///< Per-Q OR accumulators.
};

/// The table's counterpart of laneLoop: the per-Q accumulators start as
/// the table's row of the first x and fold in the row of every other x,
/// one block of Qs at a time.
void joinLoop(const JoinArgs &A) {
  for (uint64_t B = 0; B < A.NumQs; B += LaneBlock) {
    const uint64_t N = std::min(LaneBlock, A.NumQs - B);
    uint64_t *__restrict Ands = A.Ands + B;
    uint64_t *__restrict Ors = A.Ors + B;
    for (uint64_t I = 0; I != A.NumXs; ++I) {
      const uint64_t Row = A.Xs[I] * A.RowLength + B;
      const uint64_t *__restrict RowAnds = A.TableAnds + Row;
      const uint64_t *__restrict RowOrs = A.TableOrs + Row;
      if (I == 0) {
        std::copy_n(RowAnds, N, Ands);
        std::copy_n(RowOrs, N, Ors);
        continue;
      }
      for (uint64_t J = 0; J != N; ++J) {
        Ands[J] &= RowAnds[J];
        Ors[J] |= RowOrs[J];
      }
    }
  }
}

/// Dispatches \p Op to its lane loop; only mul, div and mod have a
/// separate narrow form.
void runLanes(BinaryOp Op, const LaneArgs &A) {
  const bool Narrow = A.Width <= 32;
  switch (Op) {
  case BinaryOp::Add:
    return laneLoop<BinaryOp::Add, false>(A);
  case BinaryOp::Sub:
    return laneLoop<BinaryOp::Sub, false>(A);
  case BinaryOp::Mul:
    return Narrow ? laneLoop<BinaryOp::Mul, true>(A)
                  : laneLoop<BinaryOp::Mul, false>(A);
  case BinaryOp::Div:
    return Narrow ? laneLoop<BinaryOp::Div, true>(A)
                  : laneLoop<BinaryOp::Div, false>(A);
  case BinaryOp::Mod:
    return Narrow ? laneLoop<BinaryOp::Mod, true>(A)
                  : laneLoop<BinaryOp::Mod, false>(A);
  case BinaryOp::And:
    return laneLoop<BinaryOp::And, false>(A);
  case BinaryOp::Or:
    return laneLoop<BinaryOp::Or, false>(A);
  case BinaryOp::Xor:
    return laneLoop<BinaryOp::Xor, false>(A);
  case BinaryOp::Lsh:
    return laneLoop<BinaryOp::Lsh, false>(A);
  case BinaryOp::Rsh:
    return laneLoop<BinaryOp::Rsh, false>(A);
  case BinaryOp::Arsh:
    return laneLoop<BinaryOp::Arsh, false>(A);
  }
  assert(false && "unknown binary op");
}

LaneArgs laneArgs(const RowSegment &Row) {
  assert((!isShiftOp(Row.Op) || (Row.Width & (Row.Width - 1)) == 0) &&
         "shift semantics need 2^k width");
  assert(Row.Offsets.size() == Row.Qs.size() + 1 &&
         Row.Offsets.back() - Row.Offsets.front() == Row.Lanes.size() &&
         "one lane offset per Q");
  LaneArgs A{};
  A.Xs = Row.Xs.data();
  A.NumXs = Row.Xs.size();
  A.Ys = Row.Lanes.data();
  A.NumLanes = Row.Lanes.size();
  A.Width = Row.Width;
  A.WMask = lowBitsMask(Row.Width);
  A.ShiftMask = Row.Width - 1;
  return A;
}

/// Segment-granular attribution of the row scans (docs/OBSERVABILITY.md):
/// one add() per alpha segment, lane loop or table row, never per lane.
struct RowMetrics {
  Counter Segments{"tnums_sweep_segments_total"};
  Counter Lanes{"tnums_sweep_lanes_total"};
  Counter TableRows{"tnums_sweep_table_rows_total"};
};

RowMetrics &rowMetrics() {
  static RowMetrics Metrics;
  return Metrics;
}

/// Runs the lane loop over \p Row and folds each Q's lanes, calling
/// \p Out(K, And, Or) with the AND and the OR of opC over gamma(P) x
/// gamma(Qs[K]).
template <typename OutT>
void foldRow(const RowSegment &Row, RowScratch &Scratch, const OutT &Out) {
  assert(!Row.Xs.empty() && "optimal abstraction of bottom");
  rowMetrics().Lanes.add(Row.Lanes.size());
  Scratch.Ands.assign(Row.Lanes.size(), ~uint64_t(0));
  Scratch.Ors.assign(Row.Lanes.size(), 0);
  LaneArgs A = laneArgs(Row);
  A.Ands = Scratch.Ands.data();
  A.Ors = Scratch.Ors.data();
  runLanes(Row.Op, A);

  const uint64_t *Ands = Scratch.Ands.data();
  const uint64_t *Ors = Scratch.Ors.data();
  for (size_t K = 0; K != Row.Qs.size(); ++K) {
    uint64_t N = Row.Offsets[K + 1] - Row.Offsets[K];
    uint64_t And = ~uint64_t(0);
    uint64_t Or = 0;
    for (uint64_t J = 0; J != N; ++J) {
      And &= Ands[J];
      Or |= Ors[J];
    }
    Out(K, And, Or);
    Ands += N;
    Ors += N;
  }
}

} // namespace

RowSegment tnums::materializeRow(BinaryOp Op, unsigned Width, const Tnum &P,
                                 std::span<const Tnum> Qs,
                                 RowScratch &Scratch) {
  materializeMembers(P, Scratch.Xs);
  Scratch.Lanes.clear();
  Scratch.Offsets.assign(1, 0);
  for (const Tnum &Q : Qs) {
    appendMembers(Q, Scratch.Lanes);
    Scratch.Offsets.push_back(Scratch.Lanes.size());
  }
  return RowSegment{Op,         Width,         P,      Qs,
                    Scratch.Xs, Scratch.Lanes, Scratch.Offsets};
}

void tnums::optimalAbstractRow(const RowSegment &Row, RowScratch &Scratch,
                               std::span<Tnum> Optimal) {
  assert(Optimal.size() == Row.Qs.size() && "one result per Q");
  rowMetrics().Segments.add(1);
  // alpha over a non-empty set is (AND, AND ^ OR).
  foldRow(Row, Scratch, [&](size_t K, uint64_t And, uint64_t Or) {
    Optimal[K] = Tnum(And, And ^ Or);
  });
}

uint64_t tnums::constantRowTableBytes(unsigned Width) {
  return (numWellFormedTnums(Width) << Width) * 2 * sizeof(uint64_t);
}

void tnums::buildConstantRow(const RowSegment &Row, RowScratch &Scratch,
                             ConstantRowTable &Table) {
  assert(Row.Xs.size() == 1 && Row.Qs.size() == Table.NumQs &&
         Row.Op == Table.Op && "a constant P against the whole universe");
  rowMetrics().TableRows.add(1);
  const uint64_t First = Row.Xs[0] * Table.NumQs;
  foldRow(Row, Scratch, [&](size_t K, uint64_t And, uint64_t Or) {
    Table.Ands[First + K] = And;
    Table.Ors[First + K] = Or;
  });
}

void tnums::joinConstantRows(const ConstantRowTable &Table,
                             std::span<const uint64_t> Xs, uint64_t QBegin,
                             RowScratch &Scratch, std::span<Tnum> Optimal) {
  assert(!Xs.empty() && "optimal abstraction of bottom");
  assert(QBegin + Optimal.size() <= Table.NumQs && "Qs out of the table");
  rowMetrics().Segments.add(1);
  Scratch.Ands.resize(Optimal.size());
  Scratch.Ors.resize(Optimal.size());
  JoinArgs A{};
  A.Xs = Xs.data();
  A.NumXs = Xs.size();
  A.TableAnds = Table.Ands.data() + QBegin;
  A.TableOrs = Table.Ors.data() + QBegin;
  A.RowLength = Table.NumQs;
  A.NumQs = Optimal.size();
  A.Ands = Scratch.Ands.data();
  A.Ors = Scratch.Ors.data();
  joinLoop(A);
  for (size_t K = 0; K != Optimal.size(); ++K)
    Optimal[K] = Tnum(Scratch.Ands[K], Scratch.Ands[K] ^ Scratch.Ors[K]);
}
