//===- support/SimdBatch.cpp - Bitsliced SIMD batch kernels ---------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "support/SimdBatch.h"

#include <cstring>

using namespace tnums;

std::optional<SimdMode> tnums::parseSimdMode(const char *Text) {
  if (std::strcmp(Text, "auto") == 0)
    return SimdMode::Auto;
  if (std::strcmp(Text, "off") == 0)
    return SimdMode::Off;
  if (std::strcmp(Text, "portable") == 0)
    return SimdMode::Portable;
  if (std::strcmp(Text, "avx2") == 0)
    return SimdMode::Avx2;
  if (std::strcmp(Text, "avx512") == 0)
    return SimdMode::Avx512;
  if (std::strcmp(Text, "neon") == 0)
    return SimdMode::Neon;
  return std::nullopt;
}

const char *tnums::simdModeName(SimdMode Mode) {
  switch (Mode) {
  case SimdMode::Auto:
    return "auto";
  case SimdMode::Off:
    return "off";
  case SimdMode::Portable:
    return "portable";
  case SimdMode::Avx2:
    return "avx2";
  case SimdMode::Avx512:
    return "avx512";
  case SimdMode::Neon:
    return "neon";
  }
  return "unknown";
}

bool tnums::simdModeSupported(SimdMode Mode) {
  switch (Mode) {
  case SimdMode::Auto:
  case SimdMode::Off:
  case SimdMode::Portable:
    return true;
  case SimdMode::Avx2:
    return cpuHasAvx2();
  case SimdMode::Avx512:
    return cpuHasAvx512();
  case SimdMode::Neon:
    return cpuHasNeon();
  }
  return false;
}

std::string tnums::supportedSimdModeList() {
  std::string Out = "auto, off, portable";
  if (cpuHasAvx2())
    Out += ", avx2";
  if (cpuHasAvx512())
    Out += ", avx512";
  if (cpuHasNeon())
    Out += ", neon";
  return Out;
}

//===----------------------------------------------------------------------===//
// Kernels
//
// One plain loop body per kernel, no intrinsics, instantiated once per tier:
// the wrappers carry the target attribute and the always_inline body is
// compiled inside each, so the auto-vectorizer emits that tier's
// instructions (the row scans' scheme, verify/RowScan.cpp). The x86 tiers
// use per-function attributes rather than a file-wide -mavx2/-mavx512f so
// the translation unit stays safe to build into a generic x86-64 binary;
// they are only ever *called* after cpuHasAvx2() / cpuHasAvx512() says the
// host can execute them. NEON is the AArch64 baseline, so the plain build
// is that tier's instantiation.
//===----------------------------------------------------------------------===//

namespace {

[[gnu::always_inline]] inline uint64_t
nonMemberMaskBody(const uint64_t *Z, unsigned N, uint64_t V, uint64_t NotM) {
  // A 64-bit lane index: GCC vectorizes the per-lane shift only when the
  // shift count has the width of the shifted lanes.
  uint64_t Mask = 0;
  for (uint64_t I = 0; I != N; ++I)
    Mask |= uint64_t((Z[I] & NotM) != V) << I;
  return Mask;
}

[[gnu::always_inline]] inline void reduceAndOrBody(const uint64_t *Z,
                                                   unsigned N,
                                                   uint64_t *AndAcc,
                                                   uint64_t *OrAcc) {
  uint64_t A = *AndAcc;
  uint64_t O = *OrAcc;
  for (unsigned I = 0; I != N; ++I) {
    A &= Z[I];
    O |= Z[I];
  }
  *AndAcc = A;
  *OrAcc = O;
}

struct PortableKernels {
  static uint64_t nonMemberMask(const uint64_t *Z, unsigned N, uint64_t V,
                                uint64_t NotM) {
    return nonMemberMaskBody(Z, N, V, NotM);
  }
  static void reduceAndOr(const uint64_t *Z, unsigned N, uint64_t *AndAcc,
                          uint64_t *OrAcc) {
    reduceAndOrBody(Z, N, AndAcc, OrAcc);
  }
};

#if TNUMS_SIMD_HAVE_X86_KERNELS
struct Avx2Kernels {
  __attribute__((target("avx2"))) static uint64_t
  nonMemberMask(const uint64_t *Z, unsigned N, uint64_t V, uint64_t NotM) {
    return nonMemberMaskBody(Z, N, V, NotM);
  }
  __attribute__((target("avx2"))) static void
  reduceAndOr(const uint64_t *Z, unsigned N, uint64_t *AndAcc,
              uint64_t *OrAcc) {
    reduceAndOrBody(Z, N, AndAcc, OrAcc);
  }
};

/// The features cpuHasAvx512() probes, and no more.
struct Avx512Kernels {
  __attribute__((target("avx512f,avx512bw"))) static uint64_t
  nonMemberMask(const uint64_t *Z, unsigned N, uint64_t V, uint64_t NotM) {
    return nonMemberMaskBody(Z, N, V, NotM);
  }
  __attribute__((target("avx512f,avx512bw"))) static void
  reduceAndOr(const uint64_t *Z, unsigned N, uint64_t *AndAcc,
              uint64_t *OrAcc) {
    reduceAndOrBody(Z, N, AndAcc, OrAcc);
  }
};
#endif

} // namespace

const SimdKernels &tnums::scalarSimdKernels() {
  static const SimdKernels Kernels = {PortableKernels::nonMemberMask,
                                      PortableKernels::reduceAndOr, "scalar",
                                      SimdTier::Portable};
  return Kernels;
}

#if TNUMS_SIMD_HAVE_X86_KERNELS

bool tnums::cpuHasAvx2() {
  static const bool Has = __builtin_cpu_supports("avx2");
  return Has;
}

bool tnums::cpuHasAvx512() {
  // F for the qword compare/logic mask forms, BW for the byte mask-register
  // moves the vectorized loops may use.
  static const bool Has =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
  return Has;
}

const SimdKernels *tnums::avx2SimdKernels() {
  if (!cpuHasAvx2())
    return nullptr;
  static const SimdKernels Kernels = {Avx2Kernels::nonMemberMask,
                                      Avx2Kernels::reduceAndOr, "avx2",
                                      SimdTier::Avx2};
  return &Kernels;
}

const SimdKernels *tnums::avx512SimdKernels() {
  if (!cpuHasAvx512())
    return nullptr;
  static const SimdKernels Kernels = {Avx512Kernels::nonMemberMask,
                                      Avx512Kernels::reduceAndOr, "avx512",
                                      SimdTier::Avx512};
  return &Kernels;
}

#else // !TNUMS_SIMD_HAVE_X86_KERNELS

bool tnums::cpuHasAvx2() { return false; }
bool tnums::cpuHasAvx512() { return false; }

const SimdKernels *tnums::avx2SimdKernels() { return nullptr; }
const SimdKernels *tnums::avx512SimdKernels() { return nullptr; }

#endif

#if TNUMS_SIMD_HAVE_NEON_KERNELS

bool tnums::cpuHasNeon() { return true; }

const SimdKernels *tnums::neonSimdKernels() {
  static const SimdKernels Kernels = {PortableKernels::nonMemberMask,
                                      PortableKernels::reduceAndOr, "neon",
                                      SimdTier::Neon};
  return &Kernels;
}

#else // !TNUMS_SIMD_HAVE_NEON_KERNELS

bool tnums::cpuHasNeon() { return false; }

const SimdKernels *tnums::neonSimdKernels() { return nullptr; }

#endif

//===----------------------------------------------------------------------===//
// Mode resolution
//===----------------------------------------------------------------------===//

namespace {

/// Best tier the host supports: avx512 > avx2 > neon > portable.
const SimdKernels &bestSimdKernels() {
  if (const SimdKernels *Avx512 = avx512SimdKernels())
    return *Avx512;
  if (const SimdKernels *Avx2 = avx2SimdKernels())
    return *Avx2;
  if (const SimdKernels *Neon = neonSimdKernels())
    return *Neon;
  return scalarSimdKernels();
}

} // namespace

const SimdKernels &tnums::selectSimdKernels(SimdMode Mode) {
  switch (Mode) {
  case SimdMode::Off:
  case SimdMode::Portable:
    return scalarSimdKernels();
  case SimdMode::Auto:
    return bestSimdKernels();
  case SimdMode::Avx2:
    if (const SimdKernels *Avx2 = avx2SimdKernels())
      return *Avx2;
    return scalarSimdKernels();
  case SimdMode::Avx512:
    if (const SimdKernels *Avx512 = avx512SimdKernels())
      return *Avx512;
    return scalarSimdKernels();
  case SimdMode::Neon:
    if (const SimdKernels *Neon = neonSimdKernels())
      return *Neon;
    return scalarSimdKernels();
  }
  return scalarSimdKernels();
}

std::string tnums::simdPathDescription(SimdMode Mode) {
  if (!simdModeBatches(Mode))
    return "scalar reference";
  const SimdKernels &Kernels = selectSimdKernels(Mode);
  std::string Out = std::string("batched/") + Kernels.Name;
  switch (Mode) {
  case SimdMode::Auto:
  case SimdMode::Off:
    break;
  default:
    if (!simdModeSupported(Mode))
      Out += " (forced tier unsupported; portable fallback)";
    else if (Kernels.Tier != SimdTier::Portable)
      Out += " (forced)";
    break;
  }
  return Out;
}
