//===- bench/fig4_mul_precision.cpp - Reproduce paper Figure 4 ------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 4: cumulative distribution of the log2 ratio of concretization
/// set sizes, (a) kern_mul vs our_mul and (b) bitwise_mul vs our_mul, over
/// *every* pair of width-8 tnums where the outputs differ. A tick right of
/// zero means our_mul was more precise by exactly that many trits.
///
/// The paper's headline: ~80% of differing cases favor our_mul, and all
/// width-8 differing outputs are mutually comparable.
///
/// Usage: fig4_mul_precision [--width N] [--csv] [--jobs N]
///                           [--checkpoint-dir D] [--resume]
///                           [--shards K] [--shard-index I]
///                           [--shard-pairs N]
///
///   --width N   tnum width to enumerate exhaustively (default 8; cost is
///               9^N pairs, so 5..9 are practical)
///   --csv       also dump the CDF points as CSV rows
///   --jobs N    worker threads (default: hardware concurrency)
///
/// The pair walk is one cell of a checkpointed property campaign
/// (verify/Campaign.h): the Figure 4 driver plugs into
/// runPropertyCampaign, its counters and CDF buckets are
/// order-independent multiset reductions serialized per shard under the
/// versioned payload header, so the merged figure is identical for every
/// job count, shard split, or resume.
///
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/Record.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "tnum/TnumEnum.h"
#include "tnum/TnumMul.h"
#include "verify/Campaign.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

using namespace tnums;

namespace {

/// Shard-local accumulator of one baseline-vs-our_mul comparison.
struct CmpCounters {
  uint64_t Equal = 0;
  uint64_t Differing = 0;
  uint64_t Comparable = 0;
  uint64_t OurMorePrecise = 0;
  uint64_t BaselineMorePrecise = 0;
  std::map<int64_t, uint64_t> Buckets;
};

/// Accumulated comparison of one baseline algorithm against our_mul.
struct Comparison {
  const char *Name;
  MulAlgorithm Baseline;
  uint64_t Differing = 0;
  uint64_t Comparable = 0;
  uint64_t OurMorePrecise = 0;
  uint64_t BaselineMorePrecise = 0;
  DiscreteCdf RatioCdf; ///< log2 |gamma(baseline)| - log2 |gamma(our)|.
};

/// One shard's payload: the pair total plus both comparisons' counters
/// and histogram buckets, line-oriented and deterministic (std::map keeps
/// buckets sorted).
std::string serializeShard(uint64_t Total, const CmpCounters (&C)[2]) {
  std::string Payload = formatString("total %" PRIu64 "\n", Total);
  for (size_t I = 0; I != 2; ++I) {
    Payload += formatString(
        "cmp %zu %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
        "\n",
        I, C[I].Equal, C[I].Differing, C[I].Comparable, C[I].OurMorePrecise,
        C[I].BaselineMorePrecise);
    for (const auto &[Bucket, Count] : C[I].Buckets)
      Payload += formatString("bucket %zu %" PRId64 " %" PRIu64 "\n", I,
                              Bucket, Count);
  }
  return Payload;
}

/// The shard serializeShard wrote: accepted only if it writes back the
/// same bytes (support/Record.h), which also requires both "cmp" lines.
bool parseShard(const std::string &Payload, uint64_t &Total,
                CmpCounters (&C)[2]) {
  std::string_view Text = Payload;
  if (!takeNumber(Text, Total))
    return false;
  while (!Text.empty()) {
    // "cmp <i> <five counters>" or "bucket <i> <bucket> <count>". A missing
    // word reads as empty and fails to parse; the round trip refuses a
    // wrong key, an extra word or a line out of order.
    std::vector<std::string_view> Words = splitWords(takeLine(Text));
    Words.resize(7);
    std::optional<size_t> CI = parseNumber<size_t>(Words[1]);
    std::optional<int64_t> Bucket = parseNumber<int64_t>(Words[2]);
    std::optional<uint64_t> V[5];
    for (size_t I = 0; I != 5; ++I)
      V[I] = parseNumber<uint64_t>(Words[I + 2]);
    if (!CI || *CI >= 2)
      return false;
    if (Words[0] == "bucket" && Bucket && V[1])
      C[*CI].Buckets[*Bucket] = *V[1];
    else if (V[0] && V[1] && V[2] && V[3] && V[4])
      C[*CI] = CmpCounters{*V[0], *V[1], *V[2], *V[3], *V[4], {}};
    else
      return false;
  }
  return serializeShard(Total, C) == Payload;
}

/// The Figure 4 property driver: the one width cell's pair walk, both
/// baseline-vs-our_mul comparisons accumulated per shard and folded as
/// order-independent sums / histogram multisets on merge.
class Fig4Driver final : public PropertyDriver {
  const unsigned Width;
  const uint64_t NumTnums;
  const SweepConfig &Config;
  Comparison (&Comparisons)[2];
  uint64_t &TotalPairs;
  uint64_t (&EqualBoth)[2];
  std::vector<Tnum> Universe; // Built lazily: resumed runs may not need it.

public:
  Fig4Driver(unsigned Width, const SweepConfig &Config,
             Comparison (&Comparisons)[2], uint64_t &TotalPairs,
             uint64_t (&EqualBoth)[2])
      : Width(Width), NumTnums(numWellFormedTnums(Width)), Config(Config),
        Comparisons(Comparisons), TotalPairs(TotalPairs),
        EqualBoth(EqualBoth) {}

  const char *name() const override { return "fig4-precision"; }
  unsigned payloadVersion() const override { return 1; }

  void runShard(size_t, uint64_t Begin, uint64_t End, std::string &Payload,
                bool &) override {
    // Resolve the universe BEFORE the parallel walk: the lazy build
    // must not race between pool workers.
    if (Universe.empty())
      Universe = allWellFormedTnums(Width);
    const std::vector<Tnum> &U = Universe;
    uint64_t ShardTotal = 0;
    CmpCounters Shard[2];
    std::mutex Merge;
    forEachIndexRangeParallel(
        Begin, End, Config, [&](uint64_t ChunkBegin, uint64_t ChunkEnd) {
          // Range-local accumulators; the CDF buckets merge as a
          // histogram (a multiset is order-independent, so the CDF is
          // deterministic).
          uint64_t LTotal = 0;
          CmpCounters Local[2];
          for (uint64_t Index = ChunkBegin; Index != ChunkEnd; ++Index) {
            const Tnum &P = U[Index / NumTnums];
            const Tnum &Q = U[Index % NumTnums];
            ++LTotal;
            Tnum ROur = tnumMul(P, Q, MulAlgorithm::Our, Width);
            for (size_t CI = 0; CI != 2; ++CI) {
              Tnum RBase = tnumMul(P, Q, Comparisons[CI].Baseline, Width);
              if (RBase == ROur) {
                ++Local[CI].Equal;
                continue;
              }
              ++Local[CI].Differing;
              if (!RBase.isComparableTo(ROur))
                continue;
              ++Local[CI].Comparable;
              // Comparable differing tnums differ exactly in
              // unknown-trit count, so the log2 set-size ratio is the
              // trit-count difference.
              int64_t Log2Ratio =
                  static_cast<int64_t>(RBase.concretizationSizeLog2()) -
                  static_cast<int64_t>(ROur.concretizationSizeLog2());
              ++Local[CI].Buckets[Log2Ratio];
              if (Log2Ratio > 0)
                ++Local[CI].OurMorePrecise;
              else
                ++Local[CI].BaselineMorePrecise;
            }
          }
          std::lock_guard<std::mutex> Lock(Merge);
          ShardTotal += LTotal;
          for (size_t CI = 0; CI != 2; ++CI) {
            Shard[CI].Equal += Local[CI].Equal;
            Shard[CI].Differing += Local[CI].Differing;
            Shard[CI].Comparable += Local[CI].Comparable;
            Shard[CI].OurMorePrecise += Local[CI].OurMorePrecise;
            Shard[CI].BaselineMorePrecise += Local[CI].BaselineMorePrecise;
            for (const auto &[Bucket, Count] : Local[CI].Buckets)
              Shard[CI].Buckets[Bucket] += Count;
          }
        });
    Payload = serializeShard(ShardTotal, Shard);
  }

  bool mergeShard(size_t, uint64_t, uint64_t, const std::string &Payload,
                  std::string &Error) override {
    uint64_t ShardTotal = 0;
    CmpCounters Shard[2];
    if (!parseShard(Payload, ShardTotal, Shard)) {
      Error = "malformed Figure 4 shard payload";
      return false;
    }
    TotalPairs += ShardTotal;
    for (size_t CI = 0; CI != 2; ++CI) {
      EqualBoth[CI] += Shard[CI].Equal;
      Comparisons[CI].Differing += Shard[CI].Differing;
      Comparisons[CI].Comparable += Shard[CI].Comparable;
      Comparisons[CI].OurMorePrecise += Shard[CI].OurMorePrecise;
      Comparisons[CI].BaselineMorePrecise += Shard[CI].BaselineMorePrecise;
      for (const auto &[Bucket, Count] : Shard[CI].Buckets)
        Comparisons[CI].RatioCdf.addCount(Bucket, Count);
    }
    return true;
  }
};

} // namespace

int main(int Argc, char **Argv) {
  unsigned Width = 8;
  bool Csv = false;
  unsigned Jobs = 0; // SweepConfig convention: 0 = hardware concurrency.
  CampaignIO IO;
  ArgParser Args(Argc, Argv);
  while (Args.more()) {
    if (Args.matchUnsigned("--width", 2, 9, Width))
      continue;
    if (Args.matchFlag("--csv")) {
      Csv = true;
      continue;
    }
    if (Args.matchJobs(Jobs))
      continue;
    if (matchCampaignArgs(Args, IO))
      continue;
    Args.reject();
  }
  if (Args.failed()) {
    std::fprintf(stderr,
                 "usage: %s [--width 2..9] [--csv] [--jobs 0..1024] %s\n",
                 Argv[0], CampaignArgsUsage);
    return 1;
  }

  std::printf("Figure 4: precision of our_mul vs prior algorithms "
              "(exhaustive, width %u)\n\n",
              Width);

  Comparison Comparisons[2] = {
      {"kern_mul", MulAlgorithm::Kern, 0, 0, 0, 0, {}},
      {"bitwise_mul", MulAlgorithm::BitwiseOpt, 0, 0, 0, 0, {}},
  };

  SweepConfig Config;
  Config.NumThreads = Jobs;
  const uint64_t NumTnums = numWellFormedTnums(Width);

  Fnv1a Hash;
  Hash.mixString("tnums-fig4 v2");
  Hash.mixU64(Width);
  Hash.mixU64(IO.ShardPairs);

  // Content fingerprint of the one cell: the figure compares kern_mul and
  // bitwise_mul_opt against our_mul, so a version bump of any of the
  // three invalidates checkpointed shards on resume.
  Fnv1a CellHash;
  CellHash.mixString("tnums-fig4-cell v2");
  CellHash.mixU64(Width);
  CellHash.mixU64(opFingerprint(BinaryOp::Mul, MulAlgorithm::Kern));
  CellHash.mixU64(opFingerprint(BinaryOp::Mul, MulAlgorithm::BitwiseOpt));
  CellHash.mixU64(opFingerprint(BinaryOp::Mul, MulAlgorithm::Our));

  uint64_t TotalPairs = 0;
  uint64_t EqualBoth[2] = {0, 0};
  Fig4Driver Driver(Width, Config, Comparisons, TotalPairs, EqualBoth);
  std::vector<PropertyCampaignCell> Cells = {
      PropertyCampaignCell{NumTnums * NumTnums, CellHash.digest(), &Driver}};
  ShardDriveResult Drive = runPropertyCampaign(Cells, Hash.digest(), IO);
  if (!Drive.ok()) {
    std::fprintf(stderr, "error: %s\n", Drive.Error.c_str());
    return 1;
  }
  printCampaignStatus(Drive.ShardsTotal, Drive.ShardsRun,
                      Drive.ShardsResumed, Drive.ShardsSkipped,
                      Drive.ShardsInvalidated, IO.CheckpointDir);
  if (!Drive.Complete) {
    std::printf("campaign PARTIAL: run the remaining --shard-index "
                "invocations (or --resume) against the same "
                "--checkpoint-dir to complete the figure\n");
    return 0;
  }
  std::printf("\n");

  TextTable Summary({"comparison", "total pairs", "equal", "differing",
                     "comparable", "our more precise", "% of differing"});
  for (size_t I = 0; I != 2; ++I) {
    const Comparison &C = Comparisons[I];
    Summary.addRowOf(
        formatString("%s vs our_mul", C.Name), TotalPairs, EqualBoth[I],
        C.Differing, C.Comparable, C.OurMorePrecise,
        formatString("%.2f%%", C.Differing == 0
                                   ? 0.0
                                   : 100.0 * static_cast<double>(
                                                 C.OurMorePrecise) /
                                         static_cast<double>(C.Differing)));
  }
  Summary.printAligned(stdout);

  for (const Comparison &C : Comparisons) {
    std::printf("\nCDF of log2(|gamma(%s)| / |gamma(our_mul)|) over "
                "differing, comparable pairs:\n",
                C.Name);
    TextTable CdfTable({"log2 ratio", "P[ratio <= x]"});
    for (const CdfPoint &Point : C.RatioCdf.points())
      CdfTable.addRowOf(formatString("%+g", Point.X),
                        formatString("%.4f", Point.CumulativeFraction));
    CdfTable.printAligned(stdout);
    if (Csv) {
      std::printf("csv:comparison,log2_ratio,cum_fraction\n");
      for (const CdfPoint &Point : C.RatioCdf.points())
        std::printf("csv:%s,%g,%.6f\n", C.Name, Point.X,
                    Point.CumulativeFraction);
    }
  }

  std::printf("\npaper reference (width 8): our_mul more precise in ~80%% "
              "of differing cases; outputs always comparable; 99.92%% of "
              "all pairs equal for kern_mul.\n");
  return 0;
}
