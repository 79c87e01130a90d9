//===- domain/SignedRange.cpp - Signed range domain -----------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "domain/SignedRange.h"

#include "support/Table.h"

using namespace tnums;

std::string SignedRange::toString() const {
  if (isBottom())
    return "<bottom>";
  return formatString("[%lld, %lld]", static_cast<long long>(Min),
                      static_cast<long long>(Max));
}

/// True if A + B overflows the signed width-n range.
static bool addOverflows(int64_t A, int64_t B, const SignedRange &Top) {
  __int128 Sum = static_cast<__int128>(A) + static_cast<__int128>(B);
  return Sum < Top.min() || Sum > Top.max();
}

SignedRange tnums::signedAdd(const SignedRange &P, const SignedRange &Q,
                             unsigned Width) {
  if (P.isBottom() || Q.isBottom())
    return SignedRange::makeBottom();
  SignedRange Top = SignedRange::makeTop(Width);
  if (addOverflows(P.min(), Q.min(), Top) ||
      addOverflows(P.max(), Q.max(), Top))
    return Top;
  return SignedRange(P.min() + Q.min(), P.max() + Q.max());
}

SignedRange tnums::signedSub(const SignedRange &P, const SignedRange &Q,
                             unsigned Width) {
  if (P.isBottom() || Q.isBottom())
    return SignedRange::makeBottom();
  SignedRange Top = SignedRange::makeTop(Width);
  auto SubOverflows = [&](int64_t A, int64_t B) {
    __int128 Diff = static_cast<__int128>(A) - static_cast<__int128>(B);
    return Diff < Top.min() || Diff > Top.max();
  };
  if (SubOverflows(P.min(), Q.max()) || SubOverflows(P.max(), Q.min()))
    return Top;
  return SignedRange(P.min() - Q.max(), P.max() - Q.min());
}

SignedRange tnums::signedNeg(const SignedRange &P, unsigned Width) {
  if (P.isBottom())
    return SignedRange::makeBottom();
  SignedRange Top = SignedRange::makeTop(Width);
  // -min overflows when min is the width's INT_MIN.
  if (P.min() == Top.min())
    return Top;
  return SignedRange(-P.max(), -P.min());
}

SignedRange tnums::signedArshift(const SignedRange &P, unsigned Shift) {
  if (P.isBottom())
    return SignedRange::makeBottom();
  assert(Shift < MaxBitWidth && "shift amount out of range");
  return SignedRange(P.min() >> Shift, P.max() >> Shift);
}
