//===- examples/verify_ops.cpp - Drive the bounded verifier ---------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the §III-A bounded verification engine:
///
///   verify_ops                      # verify every operator at width 4
///   verify_ops add 6                # one operator at a chosen width
///   verify_ops mul 5 kern_mul       # pick the multiplication algorithm
///
/// Prints, per operator: the soundness verdict, pair/concrete-evaluation
/// counts, and (when it fits) the optimality verdict with a witness.
///
/// The checks compile into one in-memory campaign (verify/Campaign.h): a
/// soundness cell and an early-exit optimality cell per operator, run on
/// the parallel row scans -- the same fast path as the campaign
/// benchmarks -- so width 7-8 stay interactive on a multicore host. The
/// reports are bit-identical to the serial scalar checkers (the engine's
/// determinism contract).
///
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/Table.h"
#include "verify/Campaign.h"

#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <vector>

using namespace tnums;

static std::optional<BinaryOp> parseOp(const char *Name) {
  for (BinaryOp Op : AllBinaryOps)
    if (std::strcmp(binaryOpName(Op), Name) == 0)
      return Op;
  return std::nullopt;
}

static std::optional<MulAlgorithm> parseMulAlgorithm(const char *Name) {
  for (MulAlgorithm Alg :
       {MulAlgorithm::Kern, MulAlgorithm::BitwiseNaive,
        MulAlgorithm::BitwiseOpt, MulAlgorithm::OurSimplified,
        MulAlgorithm::Our, MulAlgorithm::OurFullLoop})
    if (std::strcmp(mulAlgorithmName(Alg), Name) == 0)
      return Alg;
  return std::nullopt;
}

int main(int Argc, char **Argv) {
  unsigned Width = 4;
  MulAlgorithm Mul = MulAlgorithm::Our;
  std::optional<BinaryOp> Only;

  if (Argc >= 2) {
    Only = parseOp(Argv[1]);
    if (!Only) {
      std::fprintf(stderr, "error: unknown operator '%s'\n", Argv[1]);
      return 1;
    }
  }
  if (Argc >= 3) {
    std::optional<uint64_t> Parsed = parseBoundedU64(Argv[2], 1, 8);
    if (!Parsed) {
      std::fprintf(stderr,
                   "error: width must be in [1, 8] (cost grows as 16^n; 7-8 "
                   "take minutes even on the parallel SIMD path)\n");
      return 1;
    }
    Width = static_cast<unsigned>(*Parsed);
  }
  if (Argc >= 4) {
    std::optional<MulAlgorithm> Parsed = parseMulAlgorithm(Argv[3]);
    if (!Parsed) {
      std::fprintf(stderr, "error: unknown mul algorithm '%s'\n", Argv[3]);
      return 1;
    }
    Mul = *Parsed;
  }
  std::vector<BinaryOp> Ops;
  if (Only)
    Ops.push_back(*Only);
  else
    Ops.assign(std::begin(AllBinaryOps), std::end(AllBinaryOps));
  // One soundness and one early-exit optimality cell per operator the width
  // admits (shifts need a power of two).
  auto Admitted = [Width](BinaryOp Op) {
    return !isShiftOp(Op) || (Width & (Width - 1)) == 0;
  };
  CampaignSpec Spec;
  Spec.OptimalityEarlyExit = true; // The first witness is enough here.
  for (BinaryOp Op : Ops)
    if (Admitted(Op))
      Spec.addGrid(Op, Op == BinaryOp::Mul ? Mul : MulAlgorithm::Our, {Width},
                   {CampaignProperty::Soundness, CampaignProperty::Optimality});
  // Hardware concurrency, the host's best row-scan tier, in memory.
  CampaignResult Campaign = runCampaign(Spec, CampaignIO(), SweepConfig());
  if (!Campaign.ok()) {
    std::fprintf(stderr, "error: %s\n", Campaign.Error.c_str());
    return 1;
  }

  std::printf("bounded verification at width %u (mul = %s)\n\n", Width,
              mulAlgorithmName(Mul));
  TextTable Table({"op", "width", "soundness", "optimality", "evals"});
  size_t Cell = 0;
  for (BinaryOp Op : Ops) {
    if (!Admitted(Op)) {
      Table.addRowOf(binaryOpName(Op), Width, "skipped (width not 2^k)", "-",
                     "-");
      continue;
    }
    const SoundnessReport &Sound = Campaign.Cells[Cell++].Soundness;
    const OptimalityReport &Precise = Campaign.Cells[Cell++].Optimality;
    Table.addRowOf(
        binaryOpName(Op), Width,
        Sound.holds() ? "sound" : Sound.Failure->toString(Width).c_str(),
        Precise.isOptimalEverywhere()
            ? std::string("optimal")
            : "not optimal: " + Precise.Failure->toString(Width),
        Sound.ConcreteChecked);
  }
  Table.printAligned(stdout);
  return 0;
}
