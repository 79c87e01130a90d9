//===- domain/SignedRange.h - Signed range domain ---------------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Signed counterpart of domain/Interval.h: [SMin, SMax] over the
/// sign-extended width-n values. Tracks the kernel verifier's smin/smax
/// pair; participates in the reduced product (domain/RegValue.h) and in
/// signed branch refinement (JSLT and friends).
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_DOMAIN_SIGNEDRANGE_H
#define TNUMS_DOMAIN_SIGNEDRANGE_H

#include "support/Bits.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>

namespace tnums {

/// A signed interval [Min, Max] over width-n values, or bottom. As in
/// Interval, bottom is Min > Max (the kernel's bare smin/smax words), and
/// the operations only ever build the canonical bottom (1, 0).
class SignedRange {
public:
  /// Top at \p Width: [-2^(Width-1), 2^(Width-1) - 1].
  static SignedRange makeTop(unsigned Width = MaxBitWidth) {
    assert(Width >= 1 && Width <= MaxBitWidth && "width out of range");
    if (Width == MaxBitWidth)
      return SignedRange(INT64_MIN, INT64_MAX);
    int64_t Half = int64_t(1) << (Width - 1);
    return SignedRange(-Half, Half - 1);
  }

  static SignedRange makeBottom() { return SignedRange(EmptyTag()); }

  static SignedRange makeConstant(int64_t C) { return SignedRange(C, C); }

  SignedRange(int64_t MinV, int64_t MaxV) : Min(MinV), Max(MaxV) {
    assert(MinV <= MaxV && "inverted range; use makeBottom for empty");
  }

  bool isBottom() const { return Min > Max; }
  bool isConstant() const { return Min == Max; }

  int64_t min() const {
    assert(!isBottom() && "min of empty range");
    return Min;
  }
  int64_t max() const {
    assert(!isBottom() && "max of empty range");
    return Max;
  }

  bool contains(int64_t V) const { return Min <= V && V <= Max; }

  /// gamma(this) ⊆ gamma(Q); see Interval::isSubsetOf.
  bool isSubsetOf(const SignedRange &Q) const {
    return isBottom() || (Q.Min <= Min && Max <= Q.Max);
  }

  SignedRange joinWith(const SignedRange &Q) const {
    if (isBottom())
      return Q;
    if (Q.isBottom())
      return *this;
    return SignedRange(std::min(Min, Q.Min), std::max(Max, Q.Max));
  }

  /// An empty operand empties the result with no test; see
  /// Interval::meetWith.
  SignedRange meetWith(const SignedRange &Q) const {
    int64_t NewMin = std::max(Min, Q.Min);
    int64_t NewMax = std::min(Max, Q.Max);
    if (NewMin > NewMax)
      return makeBottom();
    return SignedRange(NewMin, NewMax);
  }

  /// True if every member is non-negative (so signed == unsigned order).
  bool isNonNegative() const { return !isBottom() && Min >= 0; }

  std::string toString() const;

  friend bool operator==(const SignedRange &A, const SignedRange &B) {
    return A.Min == B.Min && A.Max == B.Max;
  }
  friend bool operator!=(const SignedRange &A, const SignedRange &B) {
    return !(A == B);
  }

private:
  struct EmptyTag {};
  explicit SignedRange(EmptyTag) : Min(1), Max(0) {}

  int64_t Min;
  int64_t Max;
};

// Two words, like the kernel's smin/smax.
static_assert(sizeof(SignedRange) == 2 * sizeof(int64_t),
              "SignedRange is its two bounds");

/// Abstract signed addition at \p Width; top on possible signed overflow.
SignedRange signedAdd(const SignedRange &P, const SignedRange &Q,
                      unsigned Width);

/// Abstract signed subtraction at \p Width; top on possible overflow.
SignedRange signedSub(const SignedRange &P, const SignedRange &Q,
                      unsigned Width);

/// Abstract signed negation at \p Width.
SignedRange signedNeg(const SignedRange &P, unsigned Width);

/// Arithmetic right shift by a constant amount (monotone, always exact).
SignedRange signedArshift(const SignedRange &P, unsigned Shift);

} // namespace tnums

#endif // TNUMS_DOMAIN_SIGNEDRANGE_H
