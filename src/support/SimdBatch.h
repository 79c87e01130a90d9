//===- support/SimdBatch.h - Bitsliced SIMD batch kernels -------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime dispatch across the instruction-set tiers the batched sweeps
/// run on, plus two 64-lane batch kernels: the membership predicate
/// c in gamma(R), i.e. (c & ~R.m) == R.v (Eqn. 9), and the AND/OR
/// reduction of alpha (Eqn. 5). No sweep calls the kernels; perfbench
/// measures them per tier. The tiers:
///
///   * portable -- the plain build; always present, and the reference
///     every other tier is pinned against;
///   * avx2, avx512 -- the same source compiled behind per-function
///     target attributes, called only after cpuHasAvx2() / cpuHasAvx512()
///     says the host executes them;
///   * neon -- the AArch64 tier. Advanced SIMD is baseline there, so the
///     plain build is already the NEON build.
///
/// Each kernel is written once, as a plain C++ loop, and instantiated per
/// tier; the compiler's auto-vectorizer supplies each tier's instructions.
/// The sweeps' row scans (verify/RowScan.h) follow the same scheme and use
/// only the tier selection below. One binary carries every tier its target
/// can express and selects at runtime.
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

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

/// True when this build target can contain AVX2/AVX-512 code paths behind
/// per-function target attributes (the functions are only *called* after
/// cpuHasAvx2() / cpuHasAvx512() says the host executes them). Shared by
/// SimdBatch.cpp and the row scans' per-tier instantiations in verify/.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TNUMS_SIMD_HAVE_X86_KERNELS 1
#else
#define TNUMS_SIMD_HAVE_X86_KERNELS 0
#endif

/// True when this build target is the NEON tier. Advanced SIMD is
/// architecturally baseline on AArch64, so no runtime probe or target
/// attribute is needed -- the tier is the plain build iff the target is
/// AArch64.
#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define TNUMS_SIMD_HAVE_NEON_KERNELS 1
#else
#define TNUMS_SIMD_HAVE_NEON_KERNELS 0
#endif

namespace tnums {

/// Lanes per batch. 64 so that one batch's membership outcome packs into
/// one uint64_t occupancy mask.
inline constexpr unsigned SimdBatchLanes = 64;

/// Byte alignment for batch buffers (one AVX2 ymm register; the kernels
/// do not require it).
inline constexpr size_t SimdBatchAlign = 32;

/// How a sweep selects its membership path.
///
///   * Off      -- the scalar reference path: each pair's alpha by plain
///                 enumeration (optimalAbstractBinary), which soundness,
///                 optimality and precision all read. This is the
///                 baseline the differential tests (and the --simd A/B
///                 benchmark) pin the row scan against.
///   * Auto     -- the batched path with the best kernel tier the host
///                 supports (avx512 > avx2 > neon > portable).
///   * Portable -- the batched path, portable kernels forced (no
///                 target-specific tier even when the host has one).
///   * Avx2 / Avx512 / Neon -- the batched path with exactly that kernel
///                 tier forced. Use simdModeSupported() to test whether
///                 the running host can honor the request; when it
///                 cannot, selectSimdKernels() falls back to the portable
///                 kernels (reports are bit-identical across tiers, so
///                 the fallback is safe -- front ends that want a hard
///                 error check simdModeSupported() first).
enum class SimdMode {
  Auto,
  Off,
  Portable,
  Avx2,
  Avx512,
  Neon,
};

/// The instruction-set tier a resolved kernel set executes.
enum class SimdTier {
  Portable,
  Avx2,
  Avx512,
  Neon,
};

/// Parses "auto" / "off" / "portable" / "avx2" / "avx512" / "neon".
/// Returns std::nullopt on anything else. Parsing does NOT check host
/// support -- use simdModeSupported() for that.
std::optional<SimdMode> parseSimdMode(const char *Text);

/// Stable lower-case name ("auto", "off", "portable", "avx2", "avx512",
/// "neon").
const char *simdModeName(SimdMode Mode);

/// The "--simd=..." value list for usage strings and error messages.
inline constexpr char SimdModeUsage[] =
    "{auto,off,portable,avx2,avx512,neon}";

/// True when \p Mode routes sweeps through the batched kernels.
inline bool simdModeBatches(SimdMode Mode) { return Mode != SimdMode::Off; }

/// True if the running CPU supports the AVX2 kernels (runtime check, not a
/// compile-time one -- the binary always contains the portable fallback).
bool cpuHasAvx2();

/// True if the running CPU supports the AVX-512 kernels (requires
/// AVX512F + AVX512BW so both the qword-compare mask forms and the byte
/// mask-register moves are available).
bool cpuHasAvx512();

/// True if the running CPU executes the NEON kernels (always true on
/// AArch64 builds, always false elsewhere).
bool cpuHasNeon();

/// True when this host can honor \p Mode exactly: Off/Auto/Portable
/// always can; a forced tier requires the matching cpuHas*() probe.
bool simdModeSupported(SimdMode Mode);

/// Comma-separated list of the modes this host supports, for "--simd=X is
/// not supported on this host" diagnostics.
std::string supportedSimdModeList();

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

  /// Which instruction-set tier this kernel set executes. The row scans
  /// in verify/ pick their instantiation by this tag.
  SimdTier Tier;
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

/// The kernels \p Mode resolves to on this host. Off and Portable resolve
/// to the portable kernels; Auto to the best tier the host supports; a
/// forced tier to its kernels when supported, else the portable fallback
/// (callers that want a hard error on unsupported tiers check
/// simdModeSupported() first -- every tier computes bit-identical
/// results, so the fallback never changes a report).
const SimdKernels &selectSimdKernels(SimdMode Mode);

/// Human-readable description of what \p Mode runs on this host, e.g.
/// "batched/avx512", "batched/avx2 (forced)", or "scalar reference".
std::string simdPathDescription(SimdMode Mode);

} // namespace tnums

#endif // TNUMS_SUPPORT_SIMDBATCH_H
