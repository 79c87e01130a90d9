//===- tnum/Tnum.h - Tristate numbers (the tnum abstract domain) -*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tnum abstract value: every bit of a 64-bit quantity is known-0,
/// known-1, or unknown (µ). Following the Linux kernel implementation that
/// the paper formalizes (§II-B), a tnum P is a pair (P.v, P.m) of 64-bit
/// words -- "value" and "mask" -- where for each bit position k:
///
///   P.v[k] = 0, P.m[k] = 0   =>  trit k is known 0
///   P.v[k] = 1, P.m[k] = 0   =>  trit k is known 1
///   P.v[k] = 0, P.m[k] = 1   =>  trit k is unknown (µ)
///   P.v[k] = 1, P.m[k] = 1   =>  ill-formed; any such tnum denotes ⊥
///
/// The concretization is gamma(P) = { c | c & ~P.m == P.v } (Eqn. 7), and
/// the abstraction of a set C is (AND of C, AND of C xor OR of C) (Eqn. 5).
/// This header defines the value type, the lattice structure (order, join,
/// meet, top, bottom), the Galois-connection functions, and string I/O.
/// Transfer functions live in TnumOps.h / TnumMul.h.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_TNUM_TNUM_H
#define TNUMS_TNUM_TNUM_H

#include "support/Bits.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>

namespace tnums {

/// The three possible states of one tnum bit position.
enum class Trit : uint8_t {
  Zero,    ///< Known to be 0 in every concrete execution.
  One,     ///< Known to be 1 in every concrete execution.
  Unknown, ///< May be 0 in some executions and 1 in others (µ).
};

/// A tristate number over 64 bits, in the kernel's (value, mask)
/// representation. Width-n reasoning (n < 64) is done with tnums whose bits
/// at positions >= n are known zero; see fitsWidth() and truncate() in
/// TnumOps.h.
class Tnum {
public:
  /// Constructs the constant 0 (all trits known zero).
  constexpr Tnum() : Value(0), Mask(0) {}

  /// Constructs the tnum (\p V, \p M) directly. The pair may be ill-formed
  /// (V & M != 0), in which case the tnum denotes bottom; most call sites
  /// want one of the named factories below instead.
  constexpr Tnum(uint64_t V, uint64_t M) : Value(V), Mask(M) {}

  /// The exact abstraction of the single concrete value \p C.
  static constexpr Tnum makeConstant(uint64_t C) { return Tnum(C, 0); }

  /// Top for \p Width bits: every trit in the width unknown, higher bits
  /// known zero.
  static constexpr Tnum makeUnknown(unsigned Width = MaxBitWidth) {
    return Tnum(0, lowBitsMask(Width));
  }

  /// The canonical bottom element (every bit position contradictory).
  /// Any ill-formed pair also denotes bottom; this is the normal form.
  static constexpr Tnum makeBottom() {
    return Tnum(~uint64_t(0), ~uint64_t(0));
  }

  /// The kernel's tnum_range(): the least tnum whose concretization
  /// contains every value in [\p Min, \p Max] (unsigned). Requires
  /// Min <= Max.
  static Tnum makeRange(uint64_t Min, uint64_t Max) {
    assert(Min <= Max && "empty range");
    // Keep the bits shared by every value in [Min, Max] (the common prefix
    // above the highest bit where Min and Max differ) and mark everything
    // below as unknown.
    uint64_t Chi = Min ^ Max;
    unsigned Bits = MaxBitWidth - static_cast<unsigned>(std::countl_zero(Chi));
    if (Bits > 63)
      return makeUnknown();
    uint64_t Delta = (uint64_t(1) << Bits) - 1;
    return Tnum(Min & ~Delta, Delta);
  }

  /// Parses a trit string, most significant trit first, e.g. "01u0".
  /// Accepts '0', '1', and 'u'/'U'/'x'/'X' for unknown. Returns
  /// std::nullopt on bad characters, empty input, or length > 64. The
  /// parsed tnum has width = strlen(Text); higher bits are known zero.
  static std::optional<Tnum> parse(const std::string &Text);

  uint64_t value() const { return Value; }
  uint64_t mask() const { return Mask; }

  /// True if no bit position is simultaneously in value and mask (Eqn. 10).
  /// Ill-formed tnums all denote bottom (the empty concretization).
  bool isWellFormed() const { return (Value & Mask) == 0; }

  /// True if this tnum denotes the empty set of concrete values.
  bool isBottom() const { return !isWellFormed(); }

  /// True if the concretization is a single value (no unknown trits).
  bool isConstant() const { return isWellFormed() && Mask == 0; }

  /// The unique concrete value; only valid on constants.
  uint64_t constantValue() const {
    assert(isConstant() && "not a constant tnum");
    return Value;
  }

  /// True if every trit inside \p Width is unknown (top at that width) and
  /// all higher trits are known zero.
  bool isUnknown(unsigned Width = MaxBitWidth) const {
    return isWellFormed() && Value == 0 && Mask == lowBitsMask(Width);
  }

  /// The membership predicate c in gamma(P): c & ~P.m == P.v (Eqn. 9).
  /// Bottom contains nothing.
  bool contains(uint64_t C) const {
    return isWellFormed() && (C & ~Mask) == Value;
  }

  /// The trit at bit position \p Pos. Only valid on well-formed tnums.
  Trit tritAt(unsigned Pos) const {
    assert(Pos < MaxBitWidth && "trit position out of range");
    assert(isWellFormed() && "trit query on bottom");
    if (bitAt(Mask, Pos))
      return Trit::Unknown;
    return bitAt(Value, Pos) ? Trit::One : Trit::Zero;
  }

  /// Number of unknown trits.
  unsigned numUnknownBits() const { return popCount(Mask); }

  /// log2 of |gamma(P)| for well-formed tnums: the number of unknown trits.
  /// (|gamma| = 2^popcount(mask); Figure 4 compares these in log space.)
  unsigned concretizationSizeLog2() const {
    assert(isWellFormed() && "size of bottom concretization is 0, not 2^k");
    return numUnknownBits();
  }

  /// |gamma(P)|, saturating at UINT64_MAX when the mask has all 64 bits set
  /// (the true size 2^64 is not representable). Bottom yields 0.
  uint64_t concretizationSize() const;

  /// The smallest member of gamma(P) (which is P.v), and the largest
  /// (P.v | P.m). Only valid on well-formed tnums.
  uint64_t minMember() const {
    assert(isWellFormed() && "min of empty set");
    return Value;
  }
  uint64_t maxMember() const {
    assert(isWellFormed() && "max of empty set");
    return Value | Mask;
  }

  /// True if every bit at position >= \p Width is known zero.
  bool fitsWidth(unsigned Width) const {
    return tnums::fitsWidth(Value | Mask, Width);
  }

  /// The abstract partial order P ⊑A Q (Eqn. 2): gamma(P) ⊆ gamma(Q).
  /// Bottom is below everything; nothing but bottom is below bottom.
  /// Inline: the exhaustive soundness checks call it once per pair.
  bool isSubsetOf(const Tnum &Q) const {
    if (isBottom())
      return true;
    if (Q.isBottom())
      return false;
    // Eqn. 2: every trit known in Q must be known with the same value in
    // P, and every unknown trit of P must be unknown in Q.
    if ((Mask & ~Q.Mask) != 0)
      return false;
    return ((Value ^ Q.Value) & ~Q.Mask) == 0;
  }

  /// True if this and \p Q are comparable under ⊑A in either direction.
  bool isComparableTo(const Tnum &Q) const {
    return isSubsetOf(Q) || Q.isSubsetOf(*this);
  }

  /// Least upper bound (join / kernel tnum_union semantics): the smallest
  /// tnum whose concretization contains gamma(P) ∪ gamma(Q).
  Tnum joinWith(const Tnum &Q) const {
    if (isBottom())
      return Q.isBottom() ? makeBottom() : Q;
    if (Q.isBottom())
      return *this;
    // A trit stays known only if both sides know it and agree on it.
    uint64_t NewMask = Mask | Q.Mask | (Value ^ Q.Value);
    return Tnum(Value & ~NewMask, NewMask);
  }

  /// Greatest lower bound (meet / kernel tnum_intersect semantics): keeps
  /// bits known on either side. If the two tnums disagree on a known bit
  /// the result is bottom (returned in canonical form).
  Tnum meetWith(const Tnum &Q) const {
    if (isBottom() || Q.isBottom())
      return makeBottom();
    // A contradiction (some bit known 0 on one side and known 1 on the
    // other) makes the intersection empty.
    if (((Value ^ Q.Value) & ~Mask & ~Q.Mask) != 0)
      return makeBottom();
    uint64_t NewValue = Value | Q.Value;
    uint64_t NewMask = Mask & Q.Mask;
    return Tnum(NewValue & ~NewMask, NewMask);
  }

  /// Renders the low \p Width trits, most significant first, using
  /// \p UnknownChar for µ (default 'u', matching parse()). Bottom renders
  /// as "<bottom>".
  std::string toString(unsigned Width = MaxBitWidth,
                       char UnknownChar = 'u') const;

  /// Renders as the kernel-style pair "(v=0x..., m=0x...)".
  std::string toVmString() const;

  friend bool operator==(const Tnum &A, const Tnum &B) {
    return A.Value == B.Value && A.Mask == B.Mask;
  }
  friend bool operator!=(const Tnum &A, const Tnum &B) { return !(A == B); }

private:
  uint64_t Value;
  uint64_t Mask;
};

} // namespace tnums

#endif // TNUMS_TNUM_TNUM_H
