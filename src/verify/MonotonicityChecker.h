//===- verify/MonotonicityChecker.h - Operator monotonicity -----*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks monotonicity of abstract operators: P1 ⊑ P2 and Q1 ⊑ Q2 must
/// imply op(P1, Q1) ⊑ op(P2, Q2). Optimal operators (alpha ∘ f ∘ gamma)
/// are monotone by construction, so tnum_add/tnum_sub and the bitwise ops
/// should pass; the paper leaves the question open for the multiplication
/// algorithms, and this checker answers it empirically per bounded width
/// (an extension experiment beyond the paper -- see EXPERIMENTS.md).
///
/// Monotonicity matters operationally: a non-monotone transfer function
/// can make a fixpoint iteration oscillate or lose precision when inputs
/// are refined.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_MONOTONICITYCHECKER_H
#define TNUMS_VERIFY_MONOTONICITYCHECKER_H

#include "verify/Oracle.h"

#include <optional>
#include <string>

namespace tnums {

/// Witness of a monotonicity violation: refined inputs (P1 ⊑ P2, Q1 ⊑ Q2)
/// whose output is not refined.
struct MonotonicityCounterexample {
  Tnum P1;
  Tnum Q1;
  Tnum P2;
  Tnum Q2;
  Tnum R1; ///< op(P1, Q1)
  Tnum R2; ///< op(P2, Q2)

  std::string toString(unsigned Width) const;

  bool operator==(const MonotonicityCounterexample &) const = default;
};

/// Outcome of a monotonicity sweep.
struct MonotonicityReport {
  uint64_t QuadruplesChecked = 0;
  std::optional<MonotonicityCounterexample> Failure;

  bool holds() const { return !Failure.has_value(); }

  bool operator==(const MonotonicityReport &) const = default;
};

/// Exhaustively checks monotonicity of \p Op at \p Width by enumerating
/// every (P2, Q2) pair and every sub-tnum refinement (P1 ⊑ P2, Q1 ⊑ Q2).
/// Cost is 25^Width quadruples (each side contributes sum over tnums of
/// its down-set size, 5^Width); keep Width <= 5.
MonotonicityReport
checkMonotonicityExhaustive(BinaryOp Op, unsigned Width,
                            MulAlgorithm Mul = MulAlgorithm::Our);

} // namespace tnums

#endif // TNUMS_VERIFY_MONOTONICITYCHECKER_H
