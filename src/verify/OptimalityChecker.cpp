//===- verify/OptimalityChecker.cpp - Optimality/precision checks ---------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/OptimalityChecker.h"

#include "support/Table.h"
#include "tnum/TnumEnum.h"

#include <cassert>

using namespace tnums;

Tnum tnums::optimalAbstractBinary(BinaryOp Op, Tnum P, Tnum Q,
                                  unsigned Width) {
  assert(P.isWellFormed() && Q.isWellFormed() && "optimal abstraction of ⊥");
  Tnum Acc = Tnum::makeBottom();
  forEachMember(P, [&](uint64_t X) {
    forEachMember(Q, [&](uint64_t Y) {
      Acc = abstractInsert(Acc, applyConcreteBinary(Op, X, Y, Width));
    });
  });
  return Acc;
}

std::string OptimalityCounterexample::toString(unsigned Width) const {
  return formatString("P=%s Q=%s actual=%s optimal=%s",
                      P.toString(Width).c_str(), Q.toString(Width).c_str(),
                      Actual.toString(Width).c_str(),
                      Optimal.toString(Width).c_str());
}

std::string PrecisionWitness::toString(unsigned Width) const {
  return formatString("P=%s Q=%s actual=%s optimal=%s gap=%u",
                      P.toString(Width).c_str(), Q.toString(Width).c_str(),
                      Actual.toString(Width).c_str(),
                      Optimal.toString(Width).c_str(), Gap);
}

PrecisionReport tnums::measurePrecisionGap(BinaryOp Op, unsigned Width,
                                           MulAlgorithm Mul) {
  assert((!isShiftOp(Op) || (Width & (Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  PrecisionReport Report;
  std::vector<Tnum> Universe = allWellFormedTnums(Width);
  for (const Tnum &P : Universe) {
    for (const Tnum &Q : Universe) {
      ++Report.PairsChecked;
      Tnum Actual = applyAbstractBinary(Op, P, Q, Width, Mul);
      Tnum Optimal = optimalAbstractBinary(Op, P, Q, Width);
      unsigned G = precisionGap(Actual, Optimal);
      Report.SumGap += G;
      ++Report.Buckets[G];
      if (G > Report.MaxGap) {
        Report.MaxGap = G;
        Report.Worst = PrecisionWitness{P, Q, Actual, Optimal, G};
      }
    }
  }
  return Report;
}

OptimalityReport tnums::checkOptimalityExhaustive(BinaryOp Op, unsigned Width,
                                                  MulAlgorithm Mul,
                                                  bool StopAtFirst) {
  assert((!isShiftOp(Op) || (Width & (Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  OptimalityReport Report;
  std::vector<Tnum> Universe = allWellFormedTnums(Width);
  for (const Tnum &P : Universe) {
    for (const Tnum &Q : Universe) {
      ++Report.PairsChecked;
      Tnum Actual = applyAbstractBinary(Op, P, Q, Width, Mul);
      Tnum Optimal = optimalAbstractBinary(Op, P, Q, Width);
      if (Actual == Optimal) {
        ++Report.OptimalPairs;
        continue;
      }
      if (!Report.Failure)
        Report.Failure = OptimalityCounterexample{P, Q, Actual, Optimal};
      if (StopAtFirst)
        return Report;
    }
  }
  return Report;
}
