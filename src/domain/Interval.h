//===- domain/Interval.h - Unsigned interval domain -------------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classical unsigned interval abstract domain [a, b] (paper §II-A uses
/// it as the running primer example). The BPF analyzer combines it with
/// tnums in a reduced product (domain/RegValue.h), mirroring the kernel
/// verifier's umin/umax tracking. Arithmetic goes to top on potential
/// wrap-around, as the kernel does.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_DOMAIN_INTERVAL_H
#define TNUMS_DOMAIN_INTERVAL_H

#include "support/Bits.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>

namespace tnums {

/// An unsigned interval [Min, Max] over width-n values, or bottom (empty).
/// Like the kernel's bare umin/umax words, the interval has no bottom flag:
/// it is empty exactly when Min > Max. Every operation that empties an
/// interval returns the canonical bottom (1, 0) of makeBottom(), so equality
/// compares the two words.
class Interval {
public:
  /// Top at \p Width: [0, 2^Width - 1].
  static Interval makeTop(unsigned Width = MaxBitWidth) {
    return Interval(0, lowBitsMask(Width));
  }

  /// The empty interval, (1, 0).
  static Interval makeBottom() { return Interval(EmptyTag()); }

  /// The singleton [C, C].
  static Interval makeConstant(uint64_t C) { return Interval(C, C); }

  /// [Min, Max]; requires Min <= Max (use makeBottom for empty).
  Interval(uint64_t MinV, uint64_t MaxV) : Min(MinV), Max(MaxV) {
    assert(MinV <= MaxV && "inverted interval; use makeBottom for empty");
  }

  bool isBottom() const { return Min > Max; }
  bool isConstant() const { return Min == Max; }

  uint64_t min() const {
    assert(!isBottom() && "min of empty interval");
    return Min;
  }
  uint64_t max() const {
    assert(!isBottom() && "max of empty interval");
    return Max;
  }

  bool contains(uint64_t V) const { return Min <= V && V <= Max; }

  /// gamma(this) ⊆ gamma(Q). A non-empty interval inside Q forces
  /// Q.Min <= Q.Max, so an empty Q contains only the empty interval.
  bool isSubsetOf(const Interval &Q) const {
    return isBottom() || (Q.Min <= Min && Max <= Q.Max);
  }

  Interval joinWith(const Interval &Q) const {
    if (isBottom())
      return Q;
    if (Q.isBottom())
      return *this;
    return Interval(std::min(Min, Q.Min), std::max(Max, Q.Max));
  }

  /// An empty operand needs no test: its Min > Max carries through the
  /// max of the mins and the min of the maxes.
  Interval meetWith(const Interval &Q) const {
    uint64_t NewMin = std::max(Min, Q.Min);
    uint64_t NewMax = std::min(Max, Q.Max);
    if (NewMin > NewMax)
      return makeBottom();
    return Interval(NewMin, NewMax);
  }

  /// Number of values in the interval, saturating at UINT64_MAX for the
  /// full 64-bit top.
  uint64_t size() const;

  std::string toString() const;

  friend bool operator==(const Interval &A, const Interval &B) {
    return A.Min == B.Min && A.Max == B.Max;
  }
  friend bool operator!=(const Interval &A, const Interval &B) {
    return !(A == B);
  }

private:
  struct EmptyTag {};
  explicit Interval(EmptyTag) : Min(1), Max(0) {}

  uint64_t Min;
  uint64_t Max;
};

// Two words, like the kernel's umin/umax: every copied RegValue and
// analyzer state carries two of these.
static_assert(sizeof(Interval) == 2 * sizeof(uint64_t),
              "Interval is its two bounds");

/// Abstract addition at \p Width; top on possible wrap-around.
Interval intervalAdd(const Interval &P, const Interval &Q, unsigned Width);

/// Abstract subtraction at \p Width; top on possible wrap-under.
Interval intervalSub(const Interval &P, const Interval &Q, unsigned Width);

/// Abstract multiplication at \p Width; top on possible overflow.
Interval intervalMul(const Interval &P, const Interval &Q, unsigned Width);

/// Abstract unsigned division (BPF x / 0 == 0 semantics).
Interval intervalDiv(const Interval &P, const Interval &Q, unsigned Width);

/// Left shift by a constant amount; top on overflow out of the width.
Interval intervalShl(const Interval &P, unsigned Shift, unsigned Width);

/// Logical right shift by a constant amount (always exact on intervals).
Interval intervalShr(const Interval &P, unsigned Shift);

/// Bitwise AND upper bound: [0, min(P.max, Q.max)]. (Tighter bit-level
/// information comes from the tnum side of the reduced product.)
Interval intervalAnd(const Interval &P, const Interval &Q);

/// Bitwise OR bounds: [max(mins), saturated-to-bit-ceiling of maxes].
Interval intervalOr(const Interval &P, const Interval &Q, unsigned Width);

} // namespace tnums

#endif // TNUMS_DOMAIN_INTERVAL_H
