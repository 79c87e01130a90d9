//===- support/SimdBatch.cpp - Bitsliced SIMD batch kernels ---------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "support/SimdBatch.h"

#include <cstring>

#if TNUMS_SIMD_HAVE_X86_KERNELS
#include <immintrin.h>
#endif
#if TNUMS_SIMD_HAVE_NEON_KERNELS
#include <arm_neon.h>
#endif

using namespace tnums;

std::optional<SimdMode> tnums::parseSimdMode(const char *Text) {
  if (std::strcmp(Text, "auto") == 0)
    return SimdMode::Auto;
  if (std::strcmp(Text, "on") == 0)
    return SimdMode::On;
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
  case SimdMode::On:
    return "on";
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
  case SimdMode::On:
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
// Portable kernels
//===----------------------------------------------------------------------===//

namespace {

uint64_t nonMemberMaskScalar(const uint64_t *Z, unsigned N, uint64_t V,
                             uint64_t NotM) {
  uint64_t Mask = 0;
  for (unsigned I = 0; I != N; ++I)
    Mask |= uint64_t((Z[I] & NotM) != V) << I;
  return Mask;
}

void reduceAndOrScalar(const uint64_t *Z, unsigned N, uint64_t *AndAcc,
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

} // namespace

const SimdKernels &tnums::scalarSimdKernels() {
  static const SimdKernels Kernels = {nonMemberMaskScalar, reduceAndOrScalar,
                                      "scalar", SimdTier::Portable};
  return Kernels;
}

//===----------------------------------------------------------------------===//
// AVX2 / AVX-512 kernels
//
// Compiled with per-function target attributes rather than a file-wide
// -mavx2/-mavx512f so the translation unit stays safe to build into a
// generic x86-64 binary; the functions are only ever *called* after
// cpuHasAvx2() / cpuHasAvx512() says the host can execute them.
//===----------------------------------------------------------------------===//

#if TNUMS_SIMD_HAVE_X86_KERNELS

namespace {

__attribute__((target("avx2"))) uint64_t
nonMemberMaskAvx2(const uint64_t *Z, unsigned N, uint64_t V, uint64_t NotM) {
  const __m256i Vv = _mm256_set1_epi64x(static_cast<long long>(V));
  const __m256i NotMv = _mm256_set1_epi64x(static_cast<long long>(NotM));
  uint64_t Mask = 0;
  unsigned I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256i Lane =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Z + I));
    __m256i Eq = _mm256_cmpeq_epi64(_mm256_and_si256(Lane, NotMv), Vv);
    // movemask_pd extracts the 4 lane sign bits (all-ones on equality).
    unsigned Members = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(Eq)));
    Mask |= uint64_t(~Members & 0xF) << I;
  }
  for (; I != N; ++I)
    Mask |= uint64_t((Z[I] & NotM) != V) << I;
  return Mask;
}

__attribute__((target("avx2"))) void reduceAndOrAvx2(const uint64_t *Z,
                                                     unsigned N,
                                                     uint64_t *AndAcc,
                                                     uint64_t *OrAcc) {
  __m256i A = _mm256_set1_epi64x(-1);
  __m256i O = _mm256_setzero_si256();
  unsigned I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256i Lane =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Z + I));
    A = _mm256_and_si256(A, Lane);
    O = _mm256_or_si256(O, Lane);
  }
  alignas(SimdBatchAlign) uint64_t ATmp[4];
  alignas(SimdBatchAlign) uint64_t OTmp[4];
  _mm256_store_si256(reinterpret_cast<__m256i *>(ATmp), A);
  _mm256_store_si256(reinterpret_cast<__m256i *>(OTmp), O);
  uint64_t AFold = ATmp[0] & ATmp[1] & ATmp[2] & ATmp[3];
  uint64_t OFold = OTmp[0] | OTmp[1] | OTmp[2] | OTmp[3];
  for (; I != N; ++I) {
    AFold &= Z[I];
    OFold |= Z[I];
  }
  *AndAcc &= AFold;
  *OrAcc |= OFold;
}

// AVX-512: 8 qword lanes per zmm, and the membership compare writes its
// result STRAIGHT into an 8-bit mask register (vpcmpeqq %zmm, %zmm, %k) --
// the 64->8 lane compression of the occupancy mask happens in the compare
// itself, with no movemask shuffle and no 256-bit sign-bit detour.

__attribute__((target("avx512f,avx512bw"))) uint64_t
nonMemberMaskAvx512(const uint64_t *Z, unsigned N, uint64_t V,
                    uint64_t NotM) {
  const __m512i Vv = _mm512_set1_epi64(static_cast<long long>(V));
  const __m512i NotMv = _mm512_set1_epi64(static_cast<long long>(NotM));
  uint64_t Mask = 0;
  unsigned I = 0;
  for (; I + 8 <= N; I += 8) {
    __m512i Lane = _mm512_loadu_si512(Z + I);
    __mmask8 Members =
        _mm512_cmpeq_epi64_mask(_mm512_and_si512(Lane, NotMv), Vv);
    Mask |= uint64_t(static_cast<uint8_t>(~Members)) << I;
  }
  for (; I != N; ++I)
    Mask |= uint64_t((Z[I] & NotM) != V) << I;
  return Mask;
}

/// Horizontal AND of the eight qword lanes. Spelled out with one store
/// and a scalar fold instead of _mm512_reduce_and_epi64: GCC 12's header
/// implementation trips -Wuninitialized (via _mm256_undefined_si256)
/// under -Werror.
__attribute__((target("avx512f,avx512bw"), always_inline)) inline uint64_t
horizontalAnd512(__m512i A) {
  alignas(64) uint64_t Tmp[8];
  _mm512_store_si512(Tmp, A);
  return Tmp[0] & Tmp[1] & Tmp[2] & Tmp[3] & Tmp[4] & Tmp[5] & Tmp[6] &
         Tmp[7];
}

/// Horizontal OR of the eight qword lanes (see horizontalAnd512).
__attribute__((target("avx512f,avx512bw"), always_inline)) inline uint64_t
horizontalOr512(__m512i O) {
  alignas(64) uint64_t Tmp[8];
  _mm512_store_si512(Tmp, O);
  return Tmp[0] | Tmp[1] | Tmp[2] | Tmp[3] | Tmp[4] | Tmp[5] | Tmp[6] |
         Tmp[7];
}

__attribute__((target("avx512f,avx512bw"))) void
reduceAndOrAvx512(const uint64_t *Z, unsigned N, uint64_t *AndAcc,
                  uint64_t *OrAcc) {
  __m512i A = _mm512_set1_epi64(-1);
  __m512i O = _mm512_setzero_si512();
  unsigned I = 0;
  for (; I + 8 <= N; I += 8) {
    __m512i Lane = _mm512_loadu_si512(Z + I);
    A = _mm512_and_si512(A, Lane);
    O = _mm512_or_si512(O, Lane);
  }
  uint64_t AFold = horizontalAnd512(A);
  uint64_t OFold = horizontalOr512(O);
  for (; I != N; ++I) {
    AFold &= Z[I];
    OFold |= Z[I];
  }
  *AndAcc &= AFold;
  *OrAcc |= OFold;
}

} // namespace

bool tnums::cpuHasAvx2() {
  static const bool Has = __builtin_cpu_supports("avx2");
  return Has;
}

bool tnums::cpuHasAvx512() {
  // F for the qword compare/logic mask forms, BW for the byte mask-register
  // moves (vpmovb2m family) the kernels lean on.
  static const bool Has =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
  return Has;
}

const SimdKernels *tnums::avx2SimdKernels() {
  if (!cpuHasAvx2())
    return nullptr;
  static const SimdKernels Kernels = {nonMemberMaskAvx2, reduceAndOrAvx2,
                                      "avx2", SimdTier::Avx2};
  return &Kernels;
}

const SimdKernels *tnums::avx512SimdKernels() {
  if (!cpuHasAvx512())
    return nullptr;
  static const SimdKernels Kernels = {nonMemberMaskAvx512, reduceAndOrAvx512,
                                      "avx512", SimdTier::Avx512};
  return &Kernels;
}

#else // !TNUMS_SIMD_HAVE_X86_KERNELS

bool tnums::cpuHasAvx2() { return false; }
bool tnums::cpuHasAvx512() { return false; }

const SimdKernels *tnums::avx2SimdKernels() { return nullptr; }
const SimdKernels *tnums::avx512SimdKernels() { return nullptr; }

#endif

//===----------------------------------------------------------------------===//
// NEON kernels (AArch64)
//
// Advanced SIMD is baseline on AArch64 -- no runtime probe, no target
// attribute. Two qword lanes per q-register; the equality result is
// all-ones-per-lane, folded into the occupancy mask via the lane LSBs.
//===----------------------------------------------------------------------===//

#if TNUMS_SIMD_HAVE_NEON_KERNELS

namespace {

uint64_t nonMemberMaskNeon(const uint64_t *Z, unsigned N, uint64_t V,
                           uint64_t NotM) {
  const uint64x2_t Vv = vdupq_n_u64(V);
  const uint64x2_t NotMv = vdupq_n_u64(NotM);
  uint64_t Mask = 0;
  unsigned I = 0;
  for (; I + 2 <= N; I += 2) {
    uint64x2_t Lane = vld1q_u64(Z + I);
    // vceqq yields all-ones per equal lane; lane LSBs give the 2-bit
    // member mask.
    uint64x2_t Eq = vceqq_u64(vandq_u64(Lane, NotMv), Vv);
    uint64_t Members =
        (vgetq_lane_u64(Eq, 0) & 1) | ((vgetq_lane_u64(Eq, 1) & 1) << 1);
    Mask |= (~Members & 0x3) << I;
  }
  for (; I != N; ++I)
    Mask |= uint64_t((Z[I] & NotM) != V) << I;
  return Mask;
}

void reduceAndOrNeon(const uint64_t *Z, unsigned N, uint64_t *AndAcc,
                     uint64_t *OrAcc) {
  uint64x2_t A = vdupq_n_u64(~uint64_t(0));
  uint64x2_t O = vdupq_n_u64(0);
  unsigned I = 0;
  for (; I + 2 <= N; I += 2) {
    uint64x2_t Lane = vld1q_u64(Z + I);
    A = vandq_u64(A, Lane);
    O = vorrq_u64(O, Lane);
  }
  uint64_t AFold = vgetq_lane_u64(A, 0) & vgetq_lane_u64(A, 1);
  uint64_t OFold = vgetq_lane_u64(O, 0) | vgetq_lane_u64(O, 1);
  for (; I != N; ++I) {
    AFold &= Z[I];
    OFold |= Z[I];
  }
  *AndAcc &= AFold;
  *OrAcc |= OFold;
}

} // namespace

bool tnums::cpuHasNeon() { return true; }

const SimdKernels *tnums::neonSimdKernels() {
  static const SimdKernels Kernels = {nonMemberMaskNeon, reduceAndOrNeon,
                                      "neon", SimdTier::Neon};
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
  case SimdMode::On:
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
  case SimdMode::On:
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
