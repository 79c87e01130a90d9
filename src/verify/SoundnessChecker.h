//===- verify/SoundnessChecker.h - Bounded soundness verification -*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable form of the paper's §III-A verification condition (Eqn. 11)
/// for 2-ary operators:
///
///   wellformed(P) ∧ wellformed(Q) ∧ member(x, P) ∧ member(y, Q)
///     ∧ z = opC(x, y) ∧ R = opT(P, Q)  =>  member(z, R)
///
/// The paper discharges this to an SMT solver per bitwidth; with no solver
/// available offline we provide (a) a *complete* decision procedure by
/// exhaustive enumeration at small widths -- equivalent to the bounded SMT
/// query it replaces -- and (b) large randomized refutation campaigns at
/// production width 64. Both produce a solver-style model (counterexample)
/// on failure.
///
/// The exhaustive checker is the scalar oracle: a plain walk of every pair
/// and every member pair that calls nothing in the batched engine
/// (verify/ParallelSweep.h, verify/RowScan.h). Every faster path is
/// trusted only because a test proves its reports equal to this walk's.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_SOUNDNESSCHECKER_H
#define TNUMS_VERIFY_SOUNDNESSCHECKER_H

#include "verify/Oracle.h"

#include <cstdint>
#include <optional>
#include <string>

namespace tnums {

class Xoshiro256;

/// A violation witness, mirroring an SMT model for the negated soundness
/// formula: concrete inputs X in gamma(P), Y in gamma(Q) whose concrete
/// result Z escapes the abstract result R.
struct SoundnessCounterexample {
  Tnum P;
  Tnum Q;
  uint64_t X;
  uint64_t Y;
  uint64_t Z;
  Tnum R;

  /// Renders the witness for diagnostics, e.g. in test failure messages.
  std::string toString(unsigned Width) const;

  bool operator==(const SoundnessCounterexample &) const = default;
};

/// Statistics from a verification run, reported by the E4 harness.
struct SoundnessReport {
  uint64_t PairsChecked = 0;
  uint64_t ConcreteChecked = 0;
  std::optional<SoundnessCounterexample> Failure;

  bool holds() const { return !Failure.has_value(); }

  bool operator==(const SoundnessReport &) const = default;
};

/// Complete bounded verification of \p Op at \p Width by enumerating every
/// well-formed tnum pair and every concrete member pair, in row-major pair
/// order through scanPairMembers, stopping at the first violation. Cost is
/// 16^Width concrete evaluations; keep Width <= 6 (Width <= 8 only if you
/// can wait). Shift operators additionally require a power-of-two width.
SoundnessReport checkSoundnessExhaustive(BinaryOp Op, unsigned Width,
                                         MulAlgorithm Mul = MulAlgorithm::Our);

/// The scalar scan of one (P, Q) pair against \p R: x over gamma(P)
/// (outer) and y over gamma(Q) (inner), both in subset-odometer order.
/// Grows \p ConcreteChecked by one per evaluation up to and including the
/// first violation and returns that violation, if any.
std::optional<SoundnessCounterexample>
scanPairMembers(BinaryOp Op, unsigned Width, const Tnum &P, const Tnum &Q,
                const Tnum &R, uint64_t &ConcreteChecked);

/// Randomized refutation campaign at any width (typically 64): draws
/// \p NumPairs random well-formed tnum pairs and, for each, checks
/// \p SamplesPerPair random members plus the four corner members
/// (min/max of each operand). Deterministic given \p Rng's seed.
SoundnessReport checkSoundnessRandom(BinaryOp Op, unsigned Width,
                                     uint64_t NumPairs,
                                     unsigned SamplesPerPair, Xoshiro256 &Rng,
                                     MulAlgorithm Mul = MulAlgorithm::Our);

/// Draws one uniformly-ish random well-formed tnum within \p Width:
/// mask bits are set with probability 1/2 and value bits populate the
/// remaining positions. (Matches the paper's random tnum sampling for the
/// Fig. 5 workload.)
Tnum randomWellFormedTnum(Xoshiro256 &Rng, unsigned Width);

} // namespace tnums

#endif // TNUMS_VERIFY_SOUNDNESSCHECKER_H
