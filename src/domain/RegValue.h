//===- domain/RegValue.h - Reduced product register value -------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract value the BPF analyzer tracks per register: the reduced
/// product of a tnum, an unsigned interval, and a signed range, mirroring
/// the Linux verifier's bpf_reg_state scalar tracking (var_off + umin/umax
/// + smin/smax) and its reg_bounds_sync reduction. The paper's intro
/// example -- proving x <= 8 from the tnum 01µ0 -- flows through exactly
/// this reduction: the tnum bounds [min member, max member] feed the
/// interval, which the verifier compares against the access limit.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_DOMAIN_REGVALUE_H
#define TNUMS_DOMAIN_REGVALUE_H

#include "domain/Interval.h"
#include "domain/SignedRange.h"
#include "tnum/Tnum.h"
#include "verify/Oracle.h"

#include <string>

namespace tnums {

class RegValue;

/// Applies the abstract transfer function for \p Op to \p L and \p R,
/// computing every component and reducing. Widths must match.
RegValue applyBinary(BinaryOp Op, const RegValue &L, const RegValue &R);

/// Reduced product Tnum × Interval × SignedRange at a fixed bit width.
/// All mutating operations keep the three components mutually consistent
/// (sync()) and collapse to a canonical bottom when any component empties.
class RegValue {
public:
  /// Top at \p Width (everything unknown). Like makeBottom and
  /// makeConstant, this builds the reduced value directly: top's three
  /// components all describe the full width, and a constant's all describe
  /// the same single value, so a reduction round would change nothing and
  /// no sync() runs (tests/DomainTest.cpp checks both against constructors
  /// that do reduce).
  static RegValue makeTop(unsigned Width = MaxBitWidth) {
    assert(Width >= 1 && Width <= MaxBitWidth && "width out of range");
    return RegValue(Tnum::makeUnknown(Width), Interval::makeTop(Width),
                    SignedRange::makeTop(Width), Width, /*BottomV=*/false);
  }

  /// Bottom (unreachable) at \p Width.
  static RegValue makeBottom(unsigned Width = MaxBitWidth) {
    assert(Width >= 1 && Width <= MaxBitWidth && "width out of range");
    return RegValue(Tnum::makeBottom(), Interval::makeBottom(),
                    SignedRange::makeBottom(), Width, /*BottomV=*/true);
  }

  /// The exact abstraction of constant \p C (truncated to the width).
  static RegValue makeConstant(uint64_t C, unsigned Width = MaxBitWidth) {
    assert(Width >= 1 && Width <= MaxBitWidth && "width out of range");
    uint64_t Truncated = truncateToWidth(C, Width);
    return RegValue(Tnum::makeConstant(Truncated),
                    Interval::makeConstant(Truncated),
                    SignedRange::makeConstant(signExtend(Truncated, Width)),
                    Width, /*BottomV=*/false);
  }

  /// The best product value whose tnum component is \p T.
  static RegValue fromTnum(Tnum T, unsigned Width = MaxBitWidth);

  /// The best product value with unsigned bounds [\p Min, \p Max].
  static RegValue fromUnsignedRange(uint64_t Min, uint64_t Max,
                                    unsigned Width = MaxBitWidth);

  unsigned width() const { return Width; }
  bool isBottom() const { return Bottom; }
  bool isConstant() const { return !Bottom && TnumPart.isConstant(); }
  uint64_t constantValue() const { return TnumPart.constantValue(); }

  const Tnum &tnum() const { return TnumPart; }
  const Interval &unsignedBounds() const { return UnsignedPart; }
  const SignedRange &signedBounds() const { return SignedPart; }

  /// Concrete membership: \p V (width-truncated) lies in all three
  /// components.
  bool contains(uint64_t V) const;

  /// Product order: componentwise subset.
  bool isSubsetOf(const RegValue &Q) const {
    assert(Width == Q.Width && "width mismatch");
    if (Bottom)
      return true;
    if (Q.Bottom)
      return false;
    return TnumPart.isSubsetOf(Q.TnumPart) &&
           UnsignedPart.isSubsetOf(Q.UnsignedPart) &&
           SignedPart.isSubsetOf(Q.SignedPart);
  }

  RegValue joinWith(const RegValue &Q) const;
  RegValue meetWith(const RegValue &Q) const;

  /// Replaces the tnum component with its meet with \p T and re-syncs.
  RegValue refineTnum(Tnum T) const;

  /// Replaces the unsigned bounds with their meet with \p I and re-syncs.
  RegValue refineUnsigned(Interval I) const;

  /// Replaces the signed bounds with their meet with \p S and re-syncs.
  RegValue refineSigned(SignedRange S) const;

  std::string toString() const;

  friend bool operator==(const RegValue &A, const RegValue &B) {
    if (A.Width != B.Width)
      return false;
    if (A.Bottom || B.Bottom)
      return A.Bottom == B.Bottom;
    return A.TnumPart == B.TnumPart && A.UnsignedPart == B.UnsignedPart &&
           A.SignedPart == B.SignedPart;
  }
  friend bool operator!=(const RegValue &A, const RegValue &B) {
    return !(A == B);
  }

  friend RegValue tnums::applyBinary(BinaryOp Op, const RegValue &L,
                                     const RegValue &R);

private:
  /// Builds the product of \p T, \p U and \p S and reduces it (sync()).
  RegValue(Tnum T, Interval U, SignedRange S, unsigned WidthV);

  /// Assembles components that already form a reduced value, skipping
  /// sync(); only for the canonical constants above.
  RegValue(Tnum T, Interval U, SignedRange S, unsigned WidthV, bool BottomV)
      : TnumPart(T), UnsignedPart(U), SignedPart(S), Width(WidthV),
        Bottom(BottomV) {}

  /// Propagates information between the three components to a local
  /// fixpoint (the kernel's reg_bounds_sync), collapsing to bottom on
  /// contradiction.
  void sync();

  /// Folds tnum-derived bounds into the interval and vice versa; one
  /// reduction round. Returns true if anything changed.
  bool reduceOnce();

  Tnum TnumPart;
  Interval UnsignedPart;
  SignedRange SignedPart;
  unsigned Width;
  bool Bottom;
};

/// BPF conditional-jump comparison kinds (subset used by the analyzer).
enum class CompareOp {
  Eq,   ///< ==
  Ne,   ///< !=
  Lt,   ///< unsigned <
  Le,   ///< unsigned <=
  Gt,   ///< unsigned >
  Ge,   ///< unsigned >=
  SLt,  ///< signed <
  SLe,  ///< signed <=
  SGt,  ///< signed >
  SGe,  ///< signed >=
  Set,  ///< (L & R) != 0
};

/// Stable lower-case name ("eq", "slt", ...).
const char *compareOpName(CompareOp Op);

/// The concrete comparison semantics at \p Width.
bool applyConcreteCompare(CompareOp Op, uint64_t L, uint64_t R,
                          unsigned Width);

//===----------------------------------------------------------------------===//
// BPF ALU32 support: 32-bit operations act on the low subregister and
// zero-extend (kernel alu32 path, built on the tnum subreg helpers).
//===----------------------------------------------------------------------===//

/// The width-32 view of a width-64 value: the tnum's low subregister, plus
/// whatever unsigned bounds already fit in 32 bits.
RegValue truncateToSubreg(const RegValue &V);

/// Zero-extends a width-32 value back to width 64 (the high tnum bits
/// become known zero, so the sign trit pins the signed range too).
RegValue zeroExtendSubreg(const RegValue &V32);

/// The BPF_ALU (32-bit) transfer function: truncate both operands to the
/// subregister, apply \p Op at width 32 (shift amounts masked to 31), and
/// zero-extend. Inputs and output are width-64 values.
RegValue applyBinary32(BinaryOp Op, const RegValue &L, const RegValue &R);

/// Refines \p L and \p R under the assumption that "L op R" evaluated to
/// \p Taken, mirroring the kernel's reg_set_min_max branch refinement.
/// Either output may become bottom (branch unreachable). Sound: every
/// concrete pair (l, r) in the inputs satisfying the assumption remains in
/// the outputs.
void refineByComparison(CompareOp Op, bool Taken, RegValue &L, RegValue &R);

/// BPF JMP32 refinement: the comparison reads only the low subregisters,
/// so refine the width-32 views and fold the learned low bits back into
/// the 64-bit values (high bits unconstrained). Width-64 inputs.
void refineByComparison32(CompareOp Op, bool Taken, RegValue &L,
                          RegValue &R);

} // namespace tnums

#endif // TNUMS_DOMAIN_REGVALUE_H
