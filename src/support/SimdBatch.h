//===- support/SimdBatch.h - Bitsliced SIMD batch kernels -------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The --simd mode every sweep takes, plus two 64-lane batch kernels: the
/// membership predicate c in gamma(R), i.e. (c & ~R.m) == R.v (Eqn. 9),
/// and the AND/OR reduction of alpha (Eqn. 5). No sweep calls the kernels;
/// perfbench measures them on each instruction-set tier the host executes
/// (portable, avx2, avx512 on x86; neon on AArch64), so they carry per-tier
/// instantiations and a runtime tier selection. The sweeps' row scans
/// (verify/RowScan.h) are compiled once, for the build's baseline
/// instruction set.
///
/// Each kernel is written once, as a plain C++ loop, and instantiated per
/// tier; the compiler's auto-vectorizer supplies each tier's instructions.
///
/// The kernels return a 64-bit occupancy mask -- bit j set iff lane j
/// FAILED the membership test -- rather than a boolean, so a caller
/// recovers the first failing lane with a single countr_zero.
///
/// Layering: this file knows nothing about tnums; it operates on raw
/// (value, ~mask) words.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_SUPPORT_SIMDBATCH_H
#define TNUMS_SUPPORT_SIMDBATCH_H

#include <cstdint>
#include <optional>
#include <string>

namespace tnums {

/// Lanes per batch. 64 so that one batch's membership outcome packs into
/// one uint64_t occupancy mask.
inline constexpr unsigned SimdBatchLanes = 64;

/// How a sweep computes each pair's alpha.
///
///   * Auto -- the row scan (verify/RowScan.h): the constant-row table's
///             join, or the lane loop where a grid has no table.
///   * Off  -- the row scan's off switch and the scalar reference path:
///             each pair's alpha by plain enumeration
///             (optimalAbstractBinary), which soundness, optimality and
///             precision all read. The differential tests (and the --simd
///             A/B benchmark) pin the row scan against it.
enum class SimdMode {
  Auto,
  Off,
};

/// Parses "auto" / "off". Returns std::nullopt on anything else.
std::optional<SimdMode> parseSimdMode(const char *Text);

/// Stable lower-case name ("auto", "off").
const char *simdModeName(SimdMode Mode);

/// The "--simd=..." value list for usage strings.
inline constexpr char SimdModeUsage[] = "{auto,off}";

/// True when \p Mode routes sweeps through the row scan.
inline bool simdModeBatches(SimdMode Mode) { return Mode != SimdMode::Off; }

/// One resolved set of batch kernels. Every tier computes identical
/// results; only the instruction mix differs.
struct SimdKernels {
  /// Returns the occupancy mask of membership FAILURES over \p N lanes
  /// (N <= SimdBatchLanes): bit j is set iff (Z[j] & NotM) != V, i.e. lane
  /// j is not a member of the tnum (V, M) with NotM = ~M. Bits >= N are
  /// clear. Note that for an ill-formed (bottom) tnum some bit has V=1
  /// inside M, making the compare false in every lane -- exactly
  /// Tnum::contains' "bottom contains nothing", with no extra branch.
  uint64_t (*NonMemberMask)(const uint64_t *Z, unsigned N, uint64_t V,
                            uint64_t NotM);

  /// Folds AND/OR accumulators over \p N lanes: *AndAcc &= Z[j],
  /// *OrAcc |= Z[j]. The two reductions of the abstraction function
  /// alpha (Eqn. 5), batched.
  void (*ReduceAndOr)(const uint64_t *Z, unsigned N, uint64_t *AndAcc,
                      uint64_t *OrAcc);

  /// Kernel name for diagnostics: "scalar", "avx2", "avx512", or "neon".
  /// (The portable tier keeps its historical "scalar" name so existing
  /// baselines and scripts keep matching.)
  const char *Name;
};

/// The portable kernels. Always available.
const SimdKernels &scalarSimdKernels();

/// The AVX2 kernels, or nullptr when the build target or running CPU
/// cannot execute them.
const SimdKernels *avx2SimdKernels();

/// The AVX-512 kernels, or nullptr when the build target or running CPU
/// cannot execute them.
const SimdKernels *avx512SimdKernels();

/// The NEON kernels, or nullptr when the build target is not AArch64.
const SimdKernels *neonSimdKernels();

/// The kernels \p Mode resolves to on this host: the portable kernels for
/// Off, the best tier the host executes for Auto (avx512 > avx2 > neon >
/// portable).
const SimdKernels &selectSimdKernels(SimdMode Mode);

/// The kernels \p Mode resolves to, for host stamps: "batched/<kernel
/// name>" (e.g. "batched/avx512"), or "scalar reference" for Off.
std::string simdPathDescription(SimdMode Mode);

} // namespace tnums

#endif // TNUMS_SUPPORT_SIMDBATCH_H
