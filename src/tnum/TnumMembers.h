//===- tnum/TnumMembers.h - Batched concretization enumeration --*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Materialized concretizations for the batched sweeps (verify/RowScan.h).
/// forEachMember (TnumEnum.h) hands members to a callback one at a time;
/// the row scans instead want whole concretizations materialized into
/// flat buffers they can run one long loop over. Both interfaces visit
/// members in the SAME order -- the subset odometer over the mask,
/// increasing -- which is what lets the batched checkers reproduce the
/// scalar checkers' serial-order-first counterexamples and exact work
/// counters bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_TNUM_TNUMMEMBERS_H
#define TNUMS_TNUM_TNUMMEMBERS_H

#include "tnum/Tnum.h"

#include <span>
#include <vector>

namespace tnums {

/// Materializes gamma(\p P) into \p Out (cleared and refilled; capacity is
/// retained across calls) in subset-odometer order. Requires |gamma(P)| to
/// be vector-materializable (<= 2^30 members).
void materializeMembers(const Tnum &P, std::vector<uint64_t> &Out);

/// Appends gamma(\p P) to \p Out in subset-odometer order (nothing for
/// bottom). The row scans append one row segment's concretizations back
/// to back when no member table is built.
void appendMembers(const Tnum &P, std::vector<uint64_t> &Out);

/// A per-universe member table: gamma(U[i]) for every tnum of a universe,
/// materialized once (in subset-odometer order, like materializeMembers)
/// into one flat buffer, in universe order. The exhaustive sweeps walk the
/// full (P, Q) grid, so each Q's concretization is needed |U| times;
/// memoizing it here trades Sigma |gamma| = 4^n words of memory (8 MiB at
/// width 10, 128 MiB at width 12) for dropping that refill from the cell
/// scan entirely. Because the concretizations lie back to back, the lanes
/// of a row segment -- gamma(U[b]) ++ ... ++ gamma(U[e-1]) -- are one
/// contiguous span. Batched-path outputs are bit-identical either way --
/// the table stores exactly what materializeMembers produces.
class MemberTable {
public:
  /// Builds the table for \p Universe. Every member of every tnum is
  /// stored, so the caller gates construction on memberTableBytes().
  explicit MemberTable(const std::vector<Tnum> &Universe);

  /// gamma(U[Begin]) ++ ... ++ gamma(U[End - 1]) as one flat span.
  std::span<const uint64_t> span(size_t Begin, size_t End) const {
    return {Flat.data() + Offsets[Begin], Offsets[End] - Offsets[Begin]};
  }

  /// Where each of U[Begin] .. U[End - 1] starts in the flat buffer, plus
  /// where the last one ends (End - Begin + 1 entries).
  std::span<const uint64_t> offsets(size_t Begin, size_t End) const {
    return {Offsets.data() + Begin, End - Begin + 1};
  }

private:
  std::vector<uint64_t> Flat;
  std::vector<uint64_t> Offsets; ///< Offsets[i] .. Offsets[i+1] spans U[i].
};

/// Bytes a MemberTable over the full width-\p Width universe occupies:
/// Sigma over well-formed tnums of |gamma| = 4^Width entries of 8 bytes
/// (plus the offset index, one word per tnum). Saturates at UINT64_MAX
/// from Width 31 on, where 2^(2 Width + 3) no longer fits 64 bits.
uint64_t memberTableBytes(unsigned Width);

} // namespace tnums

#endif // TNUMS_TNUM_TNUMMEMBERS_H
