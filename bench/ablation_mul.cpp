//===- bench/ablation_mul.cpp - Ablation of our_mul's design choices ------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment A1 (DESIGN.md): quantify each design decision the paper
/// credits for our_mul's precision and speed (§III-C, §IV):
///
///   * machine arithmetic     -- bitwise_mul_naive vs bitwise_mul_opt
///   * value/mask decomposition + n+1 additions
///                            -- bitwise_mul_opt / kern_mul vs our_mul
///   * early loop exit        -- our_mul_full_loop vs our_mul
///
/// Reports (a) abstract-addition counts per algorithm (the quantity the
/// paper argues drives both precision and speed), (b) cycle measurements,
/// and (c) an exhaustive precision comparison at a small width.
///
/// `--witness-corpus FILE` replays the worst-case witness pairs emitted by
/// bench/precision_atlas (tnums-witness-corpus v1): sections (a) and (b)
/// then sample the corpus's multiplication entries -- shifted through the
/// 64-bit lane deterministically for variety -- instead of private random
/// pairs, so the ablation measures the exact operand shapes where the
/// algorithms lose the most precision. Without the flag the historical
/// random sampling is unchanged.
///
/// Usage: ablation_mul [--pairs N] [--width N] [--witness-corpus FILE]
///
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/CycleTimer.h"
#include "support/Random.h"
#include "support/Record.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "tnum/TnumEnum.h"
#include "tnum/TnumMul.h"
#include "tnum/TnumOps.h"
#include "verify/Campaign.h"
#include "verify/SoundnessChecker.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

using namespace tnums;

namespace {

//===----------------------------------------------------------------------===//
// Instrumented re-implementations that count tnum_add invocations. Kept
// local to the bench: the library versions stay unencumbered.
//===----------------------------------------------------------------------===//

uint64_t countAddsKern(Tnum P, Tnum Q) {
  uint64_t Adds = 0;
  auto Hma = [&](Tnum Acc, uint64_t X, uint64_t Y) {
    while (Y) {
      if (Y & 1) {
        Acc = tnumAdd(Acc, Tnum(0, X));
        ++Adds;
      }
      Y >>= 1;
      X <<= 1;
    }
    return Acc;
  };
  Tnum Acc = Hma(Tnum(P.value() * Q.value(), 0), P.mask(),
                 Q.mask() | Q.value());
  Hma(Acc, Q.mask(), P.value());
  return Adds;
}

uint64_t countAddsBitwiseOpt(Tnum P, Tnum Q, unsigned Width) {
  // One tnum_add per partial product, unconditionally.
  (void)P;
  (void)Q;
  return Width;
}

uint64_t countAddsOur(Tnum P, Tnum Q) {
  (void)Q;
  uint64_t Adds = 1; // Final AccV + AccM addition.
  uint64_t V = P.value();
  uint64_t M = P.mask();
  while (V || M) {
    if ((V & 1) || (M & 1))
      ++Adds;
    V >>= 1;
    M >>= 1;
  }
  return Adds;
}

//===----------------------------------------------------------------------===//
// Witness-corpus replay (bench/precision_atlas --witness-corpus output).
//===----------------------------------------------------------------------===//

/// The multiplication entries of a tnums-witness-corpus v1 file
/// (verify/Campaign.h). Hard error (nullopt) on a missing file or any
/// malformed line; non-mul entries are skipped (div/mod witnesses say
/// nothing about the mul ablation), and so are width-64 ones (no room to
/// slide through the lane).
std::optional<std::vector<WitnessPair>> loadWitnessCorpus(const char *Path) {
  std::string Error = formatString("cannot read %s", Path);
  std::optional<std::vector<WitnessPair>> Pairs;
  if (std::optional<std::string> Text = readWholeFile(Path))
    Pairs = parseWitnessCorpus(*Text, Path, Error);
  if (!Pairs) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return std::nullopt;
  }
  std::erase_if(*Pairs, [](const WitnessPair &W) {
    return W.Op != BinaryOp::Mul || W.Width == 64;
  });
  if (Pairs->empty())
    std::fprintf(stderr, "warning: %s has no mul witness pairs; sections "
                         "(a)/(b) fall back to random sampling\n",
                 Path);
  return Pairs;
}

/// Pair source for sections (a) and (b): replays the witness corpus when
/// one is loaded (entry i mod N, slid to a rotating bit offset so the
/// 64-bit lane utilization varies while the operand SHAPE -- the thing
/// the witnesses capture -- is preserved; shifting value and mask together
/// keeps the tnum well-formed), otherwise the historical random draw.
class PairSource {
public:
  PairSource(const std::vector<WitnessPair> &Seeds, uint64_t RngSeed)
      : Seeds(Seeds), Rng(RngSeed) {}

  std::pair<Tnum, Tnum> next() {
    if (Seeds.empty())
      return {randomWellFormedTnum(Rng, 64), randomWellFormedTnum(Rng, 64)};
    const WitnessPair &S = Seeds[Index % Seeds.size()];
    unsigned Shift = (Index * 7) % (64 - S.Width);
    ++Index;
    return {Tnum(S.P.value() << Shift, S.P.mask() << Shift),
            Tnum(S.Q.value() << Shift, S.Q.mask() << Shift)};
  }

private:
  const std::vector<WitnessPair> &Seeds;
  Xoshiro256 Rng;
  size_t Index = 0;
};

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Pairs = 200000;
  unsigned Width = 6;
  const char *CorpusPath = nullptr;
  ArgParser Args(Argc, Argv);
  while (Args.more()) {
    if (Args.matchU64("--pairs", 1, uint64_t(1) << 32, Pairs))
      continue;
    if (Args.matchUnsigned("--width", 1, 16, Width))
      continue;
    if (Args.matchString("--witness-corpus", CorpusPath))
      continue;
    Args.reject();
  }
  if (Args.failed()) {
    std::fprintf(stderr,
                 "usage: %s [--pairs 1..2^32] [--width 1..16] "
                 "[--witness-corpus F]\n",
                 Argv[0]);
    return 1;
  }
  std::vector<WitnessPair> Seeds;
  if (CorpusPath) {
    std::optional<std::vector<WitnessPair>> Loaded =
        loadWitnessCorpus(CorpusPath);
    if (!Loaded)
      return 1;
    Seeds = std::move(*Loaded);
    if (!Seeds.empty())
      std::printf("operand source: %zu mul witness pairs from %s (slid "
                  "through the 64-bit lane)\n\n",
                  Seeds.size(), CorpusPath);
  }
  std::string OperandSource =
      Seeds.empty() ? std::string("random 64-bit pairs")
                    : formatString("pairs replayed from %s", CorpusPath);

  //===--------------------------------------------------------------------===//
  std::printf("[a] abstract additions per multiplication (mean over %llu "
              "%s)\n\n",
              static_cast<unsigned long long>(Pairs), OperandSource.c_str());
  {
    PairSource Source(Seeds, 4242);
    double SumKern = 0;
    double SumBitwise = 0;
    double SumOur = 0;
    for (uint64_t I = 0; I != Pairs; ++I) {
      auto [P, Q] = Source.next();
      SumKern += static_cast<double>(countAddsKern(P, Q));
      SumBitwise += static_cast<double>(countAddsBitwiseOpt(P, Q, 64));
      SumOur += static_cast<double>(countAddsOur(P, Q));
    }
    TextTable Table({"algorithm", "mean tnum_add calls", "paper bound"});
    double N = static_cast<double>(Pairs);
    Table.addRowOf("kern_mul", formatString("%.1f", SumKern / N), "2n");
    Table.addRowOf("bitwise_mul_opt", formatString("%.1f", SumBitwise / N),
                   "n");
    Table.addRowOf("our_mul", formatString("%.1f", SumOur / N), "n + 1");
    Table.printAligned(stdout);
    std::printf("fewer additions -> fewer non-associative precision losses "
                "AND less work (§IV-A discussion).\n\n");
  }

  //===--------------------------------------------------------------------===//
  std::printf("[b] cycle cost of each design step (%llu pairs, min of 10 "
              "trials, unit: %s)\n\n",
              static_cast<unsigned long long>(Pairs), cycleCounterUnit());
  {
    struct Step {
      const char *Name;
      const char *Isolates;
      Tnum (*Fn)(Tnum, Tnum);
      SampleSummary Cycles;
    };
    static Tnum (*const NaiveFn)(Tnum, Tnum) = +[](Tnum P, Tnum Q) {
      return bitwiseMulNaive(P, Q, 64);
    };
    static Tnum (*const OptFn)(Tnum, Tnum) = +[](Tnum P, Tnum Q) {
      return bitwiseMulOpt(P, Q, 64);
    };
    static Tnum (*const FullLoopFn)(Tnum, Tnum) = +[](Tnum P, Tnum Q) {
      return ourMulFullLoop(P, Q, 64);
    };
    std::vector<Step> Steps;
    Steps.push_back({"bitwise_mul_naive", "baseline", NaiveFn, {}});
    Steps.push_back(
        {"bitwise_mul_opt", "machine arithmetic", OptFn, {}});
    Steps.push_back({"kern_mul", "(prior kernel)", &kernMul, {}});
    Steps.push_back({"our_mul_full_loop", "value/mask decomposition",
                     FullLoopFn, {}});
    Steps.push_back({"our_mul", "early loop exit", &ourMul, {}});

    // The naive algorithm is ~10x slower; cap its sample count so the
    // ablation stays quick while the others see the full pair budget.
    uint64_t NaivePairs = std::max<uint64_t>(1, Pairs / 10);
    PairSource Source(Seeds, 777);
    uint64_t Sink = 0;
    for (uint64_t I = 0; I != Pairs; ++I) {
      auto [P, Q] = Source.next();
      for (Step &S : Steps) {
        if (S.Fn == NaiveFn && I >= NaivePairs)
          continue;
        S.Cycles.add(minCyclesOverTrials(
            10, [&] { return S.Fn(P, Q).value(); }, Sink));
      }
    }
    (void)Sink;
    TextTable Table({"algorithm", "isolates", "mean", "p50",
                     "speedup vs previous row"});
    double Prev = 0;
    for (Step &S : Steps) {
      double Mean = S.Cycles.mean();
      Table.addRowOf(S.Name, S.Isolates, formatString("%.1f", Mean),
                     formatString("%.0f", S.Cycles.percentile(50)),
                     Prev == 0 ? std::string("-")
                               : formatString("%.2fx", Prev / Mean));
      Prev = Mean;
    }
    Table.printAligned(stdout);
    std::printf("\n");
  }

  //===--------------------------------------------------------------------===//
  std::printf("[c] precision contribution at width %u (exhaustive)\n\n",
              Width);
  {
    std::vector<Tnum> Universe = allWellFormedTnums(Width);
    struct Cell {
      uint64_t OurStrictlyBetter = 0;
      uint64_t BaseStrictlyBetter = 0;
      uint64_t Incomparable = 0;
    };
    Cell VsKern;
    Cell VsBitwise;
    uint64_t Total = 0;
    for (const Tnum &P : Universe) {
      for (const Tnum &Q : Universe) {
        ++Total;
        Tnum ROur = tnumMul(P, Q, MulAlgorithm::Our, Width);
        auto Compare = [&](MulAlgorithm Alg, Cell &C) {
          Tnum RBase = tnumMul(P, Q, Alg, Width);
          if (RBase == ROur)
            return;
          if (!RBase.isComparableTo(ROur))
            ++C.Incomparable;
          else if (ROur.isSubsetOf(RBase))
            ++C.OurStrictlyBetter;
          else
            ++C.BaseStrictlyBetter;
        };
        Compare(MulAlgorithm::Kern, VsKern);
        Compare(MulAlgorithm::BitwiseOpt, VsBitwise);
      }
    }
    TextTable Table({"baseline", "our strictly better", "baseline better",
                     "incomparable", "total pairs"});
    Table.addRowOf("kern_mul", VsKern.OurStrictlyBetter,
                   VsKern.BaseStrictlyBetter, VsKern.Incomparable, Total);
    Table.addRowOf("bitwise_mul_opt", VsBitwise.OurStrictlyBetter,
                   VsBitwise.BaseStrictlyBetter, VsBitwise.Incomparable,
                   Total);
    Table.printAligned(stdout);
    std::printf("\nthe value/mask decomposition is what separates our_mul "
                "from bitwise_mul_opt: same loop shape, different "
                "accumulation (§IV-A).\n");
  }
  return 0;
}
