//===- tnum/TnumMul.h - Tnum multiplication algorithms ----------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every abstract multiplication algorithm discussed by the paper, kept
/// side-by-side behind a common signature so the precision (Fig. 4,
/// Table I) and performance (Fig. 5) harnesses, the differential tests,
/// and the ablation benchmarks can sweep them uniformly:
///
///   * kernMul            -- the pre-paper Linux kernel algorithm
///                           (Listing 2, half-multiply-add structure, 2n
///                           abstract additions).
///   * bitwiseMulNaive    -- Regehr & Duongsaa's bitwise-domain algorithm
///                           as literally specified (Listing 5), with the
///                           trit-by-trit "kill" loop. O(n^2).
///   * bitwiseMulOpt      -- the paper's machine-arithmetic optimization of
///                           the same algorithm (§IV: 4921 -> 387 cycles).
///   * ourMulSimplified   -- the paper's Listing 3, the form the soundness
///                           proof (Theorem 10) is stated over.
///   * ourMul             -- the paper's final algorithm (Listing 4), now
///                           merged in Linux. Value/mask-decomposed partial
///                           product accumulation, n + 1 abstract
///                           additions, early loop exit.
///   * ourMulFullLoop     -- ablation variant of ourMul without the early
///                           loop exit (isolates its speed contribution).
///
/// All algorithms are sound abstractions of n-bit unsigned multiplication;
/// none is optimal (§III-C discussion). Like the transfer functions they
/// are defined inline: the Figure 5 harness measures them with the exact
/// inlining the kernel's single-file implementation enjoys.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_TNUM_TNUMMUL_H
#define TNUMS_TNUM_TNUMMUL_H

#include "tnum/TnumOps.h"

namespace tnums {

namespace detail {
/// Kernel "half-multiply-add" (Listing 2): accumulates tnum (0, X << k)
/// into Acc for every set bit k of Y.
inline Tnum halfMultiplyAdd(Tnum Acc, uint64_t X, uint64_t Y) {
  while (Y) {
    if (Y & 1)
      Acc = tnumAdd(Acc, Tnum(0, X));
    Y >>= 1;
    X <<= 1;
  }
  return Acc;
}
} // namespace detail

/// Pre-paper kernel multiplication (Listing 2). The loop bound adapts to
/// the operand bits, so no width parameter is needed; callers doing
/// width-n arithmetic truncate the result.
inline Tnum kernMul(Tnum P, Tnum Q) {
  assert(P.isWellFormed() && Q.isWellFormed() && "transfer function on ⊥");
  Tnum Pi = Tnum(P.value() * Q.value(), 0);
  Tnum Acc = detail::halfMultiplyAdd(Pi, P.mask(), Q.mask() | Q.value());
  return detail::halfMultiplyAdd(Acc, Q.mask(), P.value());
}

/// Regehr & Duongsaa bitwise-domain multiplication, naive kill-loop form
/// (Listing 5). Iterates \p Width partial products; the uncertain case
/// "kills" the certain-1 trits of Q one at a time -- deliberately kept
/// naive to measure the paper's §IV observation that careful machine
/// arithmetic matters.
inline Tnum bitwiseMulNaive(Tnum P, Tnum Q, unsigned Width = MaxBitWidth) {
  assert(P.isWellFormed() && Q.isWellFormed() && "transfer function on ⊥");
  Tnum Sum(0, 0);
  for (unsigned I = 0; I != Width; ++I) {
    bool ValueBit = bitAt(P.value(), I);
    bool MaskBit = bitAt(P.mask(), I);
    Tnum Product(0, 0);
    if (ValueBit && !MaskBit) {
      Product = Q; // Certain 1: the partial product is Q itself.
    } else if (MaskBit) {
      // Uncertain: set every certain-1 trit of Q to uncertain, trit by
      // trit (multiply_bit's inner loop from Listing 5).
      uint64_t V = Q.value();
      uint64_t M = Q.mask();
      for (unsigned J = 0; J != Width; ++J) {
        if (bitAt(V, J) && !bitAt(M, J)) {
          V &= ~(uint64_t(1) << J);
          M |= uint64_t(1) << J;
        }
      }
      Product = Tnum(V, M);
    }
    Sum = tnumAdd(Sum, tnumLshift(Product, I));
  }
  return Sum;
}

/// The paper's machine-arithmetic optimization of bitwiseMulNaive: the
/// trit-kill loop becomes the single tnum (0, Q.v | Q.m).
inline Tnum bitwiseMulOpt(Tnum P, Tnum Q, unsigned Width = MaxBitWidth) {
  assert(P.isWellFormed() && Q.isWellFormed() && "transfer function on ⊥");
  Tnum Sum(0, 0);
  for (unsigned I = 0; I != Width; ++I) {
    bool ValueBit = bitAt(P.value(), I);
    bool MaskBit = bitAt(P.mask(), I);
    Tnum Product(0, 0);
    if (ValueBit)
      Product = Q;
    else if (MaskBit)
      Product = Tnum(0, Q.value() | Q.mask()); // Single-op trit kill (§IV).
    Sum = tnumAdd(Sum, tnumLshift(Product, I));
  }
  return Sum;
}

/// The paper's Listing 3: value/mask-decomposed accumulation with a fixed
/// \p Width-iteration loop. Input-output equivalent to ourMul (Lemma 11).
/// AccV accumulates the certain bits of each partial product, AccM the
/// uncertain bits; they meet only in the final addition, which is what
/// makes the value/mask-decomposition proof (Lemma 9) applicable.
inline Tnum ourMulSimplified(Tnum P, Tnum Q, unsigned Width = MaxBitWidth) {
  assert(P.isWellFormed() && Q.isWellFormed() && "transfer function on ⊥");
  Tnum AccV(0, 0);
  Tnum AccM(0, 0);
  for (unsigned I = 0; I != Width; ++I) {
    if ((P.value() & 1) && !(P.mask() & 1)) {
      AccV = tnumAdd(AccV, Tnum(Q.value(), 0));
      AccM = tnumAdd(AccM, Tnum(0, Q.mask()));
    } else if (P.mask() & 1) {
      AccM = tnumAdd(AccM, Tnum(0, Q.value() | Q.mask()));
    }
    // Note: no case for LSB certain 0.
    P = tnumRshift(P, 1);
    Q = tnumLshift(Q, 1);
  }
  return tnumAdd(AccV, AccM);
}

/// The paper's final algorithm (Listing 4), merged into Linux. Provably
/// sound for unbounded widths (Theorem 10); empirically more precise and
/// faster than kernMul. AccV needs no loop -- summing the certain partial
/// products (Q.v << k for every certain-1 bit k of P) is exactly
/// P.v * Q.v (Lemma 11's strength reduction).
inline Tnum ourMul(Tnum P, Tnum Q) {
  assert(P.isWellFormed() && Q.isWellFormed() && "transfer function on ⊥");
  Tnum AccV(P.value() * Q.value(), 0);
  Tnum AccM(0, 0);
  while (P.value() || P.mask()) {
    if ((P.value() & 1) && !(P.mask() & 1))
      AccM = tnumAdd(AccM, Tnum(0, Q.mask()));
    else if (P.mask() & 1)
      AccM = tnumAdd(AccM, Tnum(0, Q.value() | Q.mask()));
    P = tnumRshift(P, 1);
    Q = tnumLshift(Q, 1);
  }
  return tnumAdd(AccV, AccM);
}

/// Ablation variant: ourMul with the early loop exit removed (always runs
/// \p Width iterations).
inline Tnum ourMulFullLoop(Tnum P, Tnum Q, unsigned Width = MaxBitWidth) {
  assert(P.isWellFormed() && Q.isWellFormed() && "transfer function on ⊥");
  Tnum AccV(P.value() * Q.value(), 0);
  Tnum AccM(0, 0);
  for (unsigned I = 0; I != Width; ++I) {
    if ((P.value() & 1) && !(P.mask() & 1))
      AccM = tnumAdd(AccM, Tnum(0, Q.mask()));
    else if (P.mask() & 1)
      AccM = tnumAdd(AccM, Tnum(0, Q.value() | Q.mask()));
    P = tnumRshift(P, 1);
    Q = tnumLshift(Q, 1);
  }
  return tnumAdd(AccV, AccM);
}

/// Identifies one multiplication algorithm for harness sweeps.
enum class MulAlgorithm {
  Kern,
  BitwiseNaive,
  BitwiseOpt,
  OurSimplified,
  Our,
  OurFullLoop,
};

/// All MulAlgorithm enumerators, for sweeping harnesses. Keep in sync with
/// the enum so new algorithms automatically join every campaign.
inline constexpr MulAlgorithm AllMulAlgorithms[] = {
    MulAlgorithm::Kern,          MulAlgorithm::BitwiseNaive,
    MulAlgorithm::BitwiseOpt,    MulAlgorithm::OurSimplified,
    MulAlgorithm::Our,           MulAlgorithm::OurFullLoop};

/// Short stable name used in benchmark output ("kern_mul", "our_mul", ...).
const char *mulAlgorithmName(MulAlgorithm Algorithm);

/// Implementation version tag of \p Algorithm -- the multiplication
/// counterpart of tnumOpVersions() (TnumOps.h). MUST be bumped in
/// TnumMul.cpp whenever the named algorithm's input/output behavior
/// changes (this codebase exists because the kernel's mul algorithm
/// changed once already); the campaign layer keys checkpointed mul cells
/// on it, so a stale tag silently serves outdated verdicts.
const char *mulAlgorithmVersion(MulAlgorithm Algorithm);

/// Calls \p Fn with a callable (P, Q) -> Tnum that runs \p Algorithm and
/// truncates the result to \p Width bits, and returns what \p Fn returns.
/// The one dispatch over MulAlgorithm: tnumMul pays it per product, while
/// the sweeps pay it once per row segment and get the algorithm inlined
/// into their loop.
template <typename FnT>
decltype(auto) withMulAlgorithm(MulAlgorithm Algorithm, unsigned Width,
                                FnT &&Fn) {
  switch (Algorithm) {
  case MulAlgorithm::Kern:
    return Fn([Width](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(kernMul(P, Q), Width);
    });
  case MulAlgorithm::BitwiseNaive:
    return Fn([Width](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(bitwiseMulNaive(P, Q, Width), Width);
    });
  case MulAlgorithm::BitwiseOpt:
    return Fn([Width](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(bitwiseMulOpt(P, Q, Width), Width);
    });
  case MulAlgorithm::OurSimplified:
    return Fn([Width](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(ourMulSimplified(P, Q, Width), Width);
    });
  case MulAlgorithm::OurFullLoop:
    return Fn([Width](const Tnum &P, const Tnum &Q) {
      return tnumTruncate(ourMulFullLoop(P, Q, Width), Width);
    });
  case MulAlgorithm::Our:
    break;
  }
  assert(Algorithm == MulAlgorithm::Our && "unknown multiplication algorithm");
  return Fn([Width](const Tnum &P, const Tnum &Q) {
    return tnumTruncate(ourMul(P, Q), Width);
  });
}

/// Runs \p Algorithm on (\p P, \p Q) and truncates the result to \p Width
/// bits. Dispatch layer for the sweeping harnesses; performance benchmarks
/// call the concrete functions directly.
Tnum tnumMul(Tnum P, Tnum Q, MulAlgorithm Algorithm,
             unsigned Width = MaxBitWidth);

} // namespace tnums

#endif // TNUMS_TNUM_TNUMMUL_H
