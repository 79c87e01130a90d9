//===- support/SimdBatch.cpp - Bitsliced SIMD batch kernels ---------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "support/SimdBatch.h"

#include <cstring>

/// True when this build target can contain AVX2/AVX-512 code paths behind
/// per-function target attributes (the functions are only *called* after
/// cpuHasAvx2() / cpuHasAvx512() says the host executes them).
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

using namespace tnums;

std::optional<SimdMode> tnums::parseSimdMode(const char *Text) {
  if (std::strcmp(Text, "auto") == 0)
    return SimdMode::Auto;
  if (std::strcmp(Text, "off") == 0)
    return SimdMode::Off;
  return std::nullopt;
}

const char *tnums::simdModeName(SimdMode Mode) {
  return Mode == SimdMode::Off ? "off" : "auto";
}

//===----------------------------------------------------------------------===//
// Kernels
//
// One plain loop body per kernel, no intrinsics, instantiated once per tier:
// the wrappers carry the target attribute and the always_inline body is
// compiled inside each, so the auto-vectorizer emits that tier's
// instructions (lambdas would not inherit the attribute). The x86 tiers
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

/// True if the running CPU executes the AVX2 kernels (a runtime check: the
/// binary always contains the portable fallback).
bool cpuHasAvx2() {
  static const bool Has = __builtin_cpu_supports("avx2");
  return Has;
}

/// True if the running CPU executes the AVX-512 kernels: F for the qword
/// compare/logic mask forms, BW for the byte mask-register moves the
/// vectorized loops may use.
bool cpuHasAvx512() {
  static const bool Has =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
  return Has;
}
#endif

} // namespace

const SimdKernels &tnums::scalarSimdKernels() {
  static const SimdKernels Kernels = {PortableKernels::nonMemberMask,
                                      PortableKernels::reduceAndOr, "scalar"};
  return Kernels;
}

#if TNUMS_SIMD_HAVE_X86_KERNELS

const SimdKernels *tnums::avx2SimdKernels() {
  if (!cpuHasAvx2())
    return nullptr;
  static const SimdKernels Kernels = {Avx2Kernels::nonMemberMask,
                                      Avx2Kernels::reduceAndOr, "avx2"};
  return &Kernels;
}

const SimdKernels *tnums::avx512SimdKernels() {
  if (!cpuHasAvx512())
    return nullptr;
  static const SimdKernels Kernels = {Avx512Kernels::nonMemberMask,
                                      Avx512Kernels::reduceAndOr, "avx512"};
  return &Kernels;
}

#else // !TNUMS_SIMD_HAVE_X86_KERNELS

const SimdKernels *tnums::avx2SimdKernels() { return nullptr; }
const SimdKernels *tnums::avx512SimdKernels() { return nullptr; }

#endif

#if TNUMS_SIMD_HAVE_NEON_KERNELS

const SimdKernels *tnums::neonSimdKernels() {
  static const SimdKernels Kernels = {PortableKernels::nonMemberMask,
                                      PortableKernels::reduceAndOr, "neon"};
  return &Kernels;
}

#else // !TNUMS_SIMD_HAVE_NEON_KERNELS

const SimdKernels *tnums::neonSimdKernels() { return nullptr; }

#endif

const SimdKernels &tnums::selectSimdKernels(SimdMode Mode) {
  if (Mode == SimdMode::Off)
    return scalarSimdKernels();
  if (const SimdKernels *Avx512 = avx512SimdKernels())
    return *Avx512;
  if (const SimdKernels *Avx2 = avx2SimdKernels())
    return *Avx2;
  if (const SimdKernels *Neon = neonSimdKernels())
    return *Neon;
  return scalarSimdKernels();
}

std::string tnums::simdPathDescription(SimdMode Mode) {
  if (!simdModeBatches(Mode))
    return "scalar reference";
  return std::string("batched/") + selectSimdKernels(Mode).Name;
}
