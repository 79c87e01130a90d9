//===- examples/mul_precision_explorer.cpp - Compare mul algorithms -------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interactive precision explorer: give it two trit strings (e.g.
/// "u01 u10") and it multiplies them with every algorithm from the paper,
/// prints each result with its concretization size, and -- when the
/// operands are narrow enough -- the optimal abstraction alpha∘*∘gamma as
/// the yardstick. With no arguments it walks a few instructive pairs,
/// including the paper's width-9 incomparability example.
///
//===----------------------------------------------------------------------===//

#include "support/Table.h"
#include "tnum/TnumMul.h"
#include "verify/OptimalityChecker.h"

#include <cstdio>
#include <cstring>

using namespace tnums;

/// Prints the table for P * Q. False, after an error on stderr, when an
/// operand is not a trit string.
static bool explore(const std::string &PText, const std::string &QText) {
  std::optional<Tnum> P = Tnum::parse(PText);
  std::optional<Tnum> Q = Tnum::parse(QText);
  if (!P || !Q) {
    std::fprintf(stderr, "error: operands must be trit strings over 01u\n");
    return false;
  }
  unsigned Width = static_cast<unsigned>(std::max(PText.size(),
                                                  QText.size())) + 3;
  Width = std::min(Width, MaxBitWidth);

  std::printf("P = %s, Q = %s (shown at width %u)\n", PText.c_str(),
              QText.c_str(), Width);
  TextTable Table({"algorithm", "result", "|gamma|", "unknown trits"});
  for (MulAlgorithm Alg :
       {MulAlgorithm::Kern, MulAlgorithm::BitwiseNaive,
        MulAlgorithm::BitwiseOpt, MulAlgorithm::OurSimplified,
        MulAlgorithm::Our}) {
    Tnum R = tnumMul(*P, *Q, Alg, Width);
    Table.addRowOf(mulAlgorithmName(Alg), R.toString(Width),
                   R.concretizationSize(), R.numUnknownBits());
  }
  // The optimal abstraction needs |gamma(P)| * |gamma(Q)| concrete
  // multiplications; only compute it when that is small.
  if (P->numUnknownBits() + Q->numUnknownBits() <= 24) {
    Tnum Optimal = optimalAbstractBinary(BinaryOp::Mul, *P, *Q, Width);
    Table.addRowOf("alpha.mul.gamma (optimal)", Optimal.toString(Width),
                   Optimal.concretizationSize(), Optimal.numUnknownBits());
  }
  Table.printAligned(stdout);
  std::printf("\n");
  return true;
}

int main(int Argc, char **Argv) {
  if (Argc == 3)
    return explore(Argv[1], Argv[2]) ? 0 : 1;
  if (Argc != 1) {
    std::fprintf(stderr, "usage: %s [<tritsP> <tritsQ>]\n", Argv[0]);
    return 1;
  }

  std::printf("== paper Fig. 3 example ==\n");
  explore("u01", "u10");

  std::printf("== paper width-9 incomparability example ==\n");
  explore("000000011", "011u011uu");

  std::printf("== correlation blind spot (paper §III-C question 1) ==\n");
  // P = 11, Q = µ1: the partial products share the same µ, which no
  // algorithm exploits, so every result is looser than optimal.
  explore("11", "u1");

  std::printf("== a case where all algorithms agree ==\n");
  explore("101", "011");
  return 0;
}
