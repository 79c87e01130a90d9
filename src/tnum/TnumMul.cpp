//===- tnum/TnumMul.cpp - Tnum multiplication algorithms ------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "tnum/TnumMul.h"

using namespace tnums;

const char *tnums::mulAlgorithmName(MulAlgorithm Algorithm) {
  switch (Algorithm) {
  case MulAlgorithm::Kern:
    return "kern_mul";
  case MulAlgorithm::BitwiseNaive:
    return "bitwise_mul_naive";
  case MulAlgorithm::BitwiseOpt:
    return "bitwise_mul_opt";
  case MulAlgorithm::OurSimplified:
    return "our_mul_simplified";
  case MulAlgorithm::Our:
    return "our_mul";
  case MulAlgorithm::OurFullLoop:
    return "our_mul_full_loop";
  }
  assert(false && "unknown multiplication algorithm");
  return "unknown";
}

const char *tnums::mulAlgorithmVersion(MulAlgorithm Algorithm) {
  // One tag per algorithm: bumping kern_mul must not invalidate
  // checkpointed our_mul cells (and vice versa) -- that selectivity is
  // the whole point of the incremental campaigns.
  switch (Algorithm) {
  case MulAlgorithm::Kern:
    return "kern_mul v1 listing2";
  case MulAlgorithm::BitwiseNaive:
    return "bitwise_mul_naive v1 listing5";
  case MulAlgorithm::BitwiseOpt:
    return "bitwise_mul_opt v1 sec4";
  case MulAlgorithm::OurSimplified:
    return "our_mul_simplified v1 listing3";
  case MulAlgorithm::Our:
    return "our_mul v1 listing4";
  case MulAlgorithm::OurFullLoop:
    return "our_mul_full_loop v1 ablation";
  }
  assert(false && "unknown multiplication algorithm");
  return "unknown";
}

Tnum tnums::tnumMul(Tnum P, Tnum Q, MulAlgorithm Algorithm, unsigned Width) {
  return withMulAlgorithm(Algorithm, Width,
                          [&](auto Mul) { return Mul(P, Q); });
}
