//===- domain/Interval.cpp - Unsigned interval domain ---------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "domain/Interval.h"

#include "support/Table.h"

#include <algorithm>
#include <bit>

using namespace tnums;

uint64_t Interval::size() const {
  if (isBottom())
    return 0;
  uint64_t Span = Max - Min;
  return Span == ~uint64_t(0) ? ~uint64_t(0) : Span + 1;
}

std::string Interval::toString() const {
  if (isBottom())
    return "<bottom>";
  return formatString("[%llu, %llu]", static_cast<unsigned long long>(Min),
                      static_cast<unsigned long long>(Max));
}

Interval tnums::intervalAdd(const Interval &P, const Interval &Q,
                            unsigned Width) {
  if (P.isBottom() || Q.isBottom())
    return Interval::makeBottom();
  uint64_t WidthMask = lowBitsMask(Width);
  // Wrap-around makes the result set non-contiguous; give up like the
  // kernel's scalar_min_max_add does on overflow.
  if (Q.max() > WidthMask - P.max())
    return Interval::makeTop(Width);
  return Interval(P.min() + Q.min(), P.max() + Q.max());
}

Interval tnums::intervalSub(const Interval &P, const Interval &Q,
                            unsigned Width) {
  if (P.isBottom() || Q.isBottom())
    return Interval::makeBottom();
  if (P.min() < Q.max()) // Some difference wraps under zero.
    return Interval::makeTop(Width);
  return Interval(P.min() - Q.max(), P.max() - Q.min());
}

Interval tnums::intervalMul(const Interval &P, const Interval &Q,
                            unsigned Width) {
  if (P.isBottom() || Q.isBottom())
    return Interval::makeBottom();
  uint64_t WidthMask = lowBitsMask(Width);
  unsigned __int128 High = static_cast<unsigned __int128>(P.max()) *
                           static_cast<unsigned __int128>(Q.max());
  if (High > WidthMask)
    return Interval::makeTop(Width);
  return Interval(P.min() * Q.min(), static_cast<uint64_t>(High));
}

Interval tnums::intervalDiv(const Interval &P, const Interval &Q,
                            unsigned Width) {
  (void)Width; // Unsigned division never grows past the dividend's width.
  if (P.isBottom() || Q.isBottom())
    return Interval::makeBottom();
  // Only a constant nonzero divisor divides monotonically; a divisor range
  // containing 0 hits the BPF x / 0 == 0 special case.
  if (Q.isConstant() && Q.min() != 0)
    return Interval(P.min() / Q.min(), P.max() / Q.min());
  if (Q.min() > 0)
    return Interval(P.min() / Q.max(), P.max() / Q.min());
  return Interval(0, P.max()); // Divisor may be 0 -> result 0, or >= 1.
}

Interval tnums::intervalShl(const Interval &P, unsigned Shift,
                            unsigned Width) {
  if (P.isBottom())
    return Interval::makeBottom();
  assert(Shift < Width && "shift amount out of range");
  uint64_t WidthMask = lowBitsMask(Width);
  if (Shift != 0 && P.max() > (WidthMask >> Shift))
    return Interval::makeTop(Width);
  return Interval(P.min() << Shift, P.max() << Shift);
}

Interval tnums::intervalShr(const Interval &P, unsigned Shift) {
  if (P.isBottom())
    return Interval::makeBottom();
  assert(Shift < MaxBitWidth && "shift amount out of range");
  return Interval(P.min() >> Shift, P.max() >> Shift);
}

Interval tnums::intervalAnd(const Interval &P, const Interval &Q) {
  if (P.isBottom() || Q.isBottom())
    return Interval::makeBottom();
  return Interval(0, std::min(P.max(), Q.max()));
}

Interval tnums::intervalOr(const Interval &P, const Interval &Q,
                           unsigned Width) {
  if (P.isBottom() || Q.isBottom())
    return Interval::makeBottom();
  // x | y >= max(x, y) and x | y < 2^ceil: round the larger max up to the
  // next all-ones pattern.
  uint64_t MaxOr = P.max() | Q.max();
  unsigned Bits = MaxBitWidth - static_cast<unsigned>(std::countl_zero(MaxOr));
  uint64_t Ceiling = Bits == 0 ? 0 : lowBitsMask(Bits);
  return Interval(std::max(P.min(), Q.min()),
                  std::min(Ceiling, lowBitsMask(Width)));
}
