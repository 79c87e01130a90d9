//===- bench/table1_bitwidth_sweep.cpp - Reproduce paper Table I ----------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table I (supplementary §VII-E): for each bitwidth, over all tnum input
/// pairs, compare kern_mul and our_mul outputs -- how many are equal, how
/// many differ, how many of the differing pairs are comparable under ⊑A,
/// and which algorithm wins among the comparable ones. The paper's trend:
/// the differing fraction grows with width and our_mul wins an increasing
/// share (75% at n=5 up to 80.2% at n=10).
///
/// Usage: table1_bitwidth_sweep [--min-width N] [--max-width N] [--jobs N]
///                              [--checkpoint-dir D] [--resume]
///                              [--shards K] [--shard-index I]
///                              [--shard-pairs N]
///
///   Widths default to 5..8 exhaustively (9^N pairs). Each width is one
///   cell of a checkpointed property campaign (verify/Campaign.h): the
///   Table I driver plugs into runPropertyCampaign, its pair walk shards
///   like the verification sweeps, every shard's six counters are
///   checkpointed under the versioned payload header, and the merge is
///   an order-independent sum -- so the table is identical for every job
///   count, shard split, or resume.
///   Width 9-10 match the paper's full table; with --checkpoint-dir a
///   preempted width-10 run resumes instead of restarting.
///
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/Record.h"
#include "support/Table.h"
#include "tnum/TnumEnum.h"
#include "tnum/TnumMul.h"
#include "verify/Campaign.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

using namespace tnums;

namespace {

/// The six order-independent counters of one Table I row (= one cell).
struct Row {
  uint64_t Total = 0;
  uint64_t Equal = 0;
  uint64_t Differ = 0;
  uint64_t Comparable = 0;
  uint64_t KernWins = 0;
  uint64_t OurWins = 0;
};

/// Accumulates [Begin, End) of \p Universe's pair grid into \p Out,
/// parallel over the sweep pool. Deterministic: plain sums.
void scanRange(const std::vector<Tnum> &Universe, unsigned Width,
               uint64_t Begin, uint64_t End, const SweepConfig &Config,
               Row &Out) {
  const uint64_t NumTnums = Universe.size();
  std::mutex Merge;
  forEachIndexRangeParallel(Begin, End, Config, [&](uint64_t ChunkBegin,
                                                    uint64_t ChunkEnd) {
    Row Local;
    for (uint64_t Index = ChunkBegin; Index != ChunkEnd; ++Index) {
      const Tnum &P = Universe[Index / NumTnums];
      const Tnum &Q = Universe[Index % NumTnums];
      ++Local.Total;
      Tnum RKern = tnumMul(P, Q, MulAlgorithm::Kern, Width);
      Tnum ROur = tnumMul(P, Q, MulAlgorithm::Our, Width);
      if (RKern == ROur) {
        ++Local.Equal;
        continue;
      }
      ++Local.Differ;
      if (!RKern.isComparableTo(ROur))
        continue;
      ++Local.Comparable;
      if (ROur.isSubsetOf(RKern))
        ++Local.OurWins;
      else
        ++Local.KernWins;
    }
    std::lock_guard<std::mutex> Lock(Merge);
    Out.Total += Local.Total;
    Out.Equal += Local.Equal;
    Out.Differ += Local.Differ;
    Out.Comparable += Local.Comparable;
    Out.KernWins += Local.KernWins;
    Out.OurWins += Local.OurWins;
  });
}

std::string serializeRow(const Row &R) {
  return formatString("total %" PRIu64 "\nequal %" PRIu64 "\ndiffer %" PRIu64
                      "\ncomparable %" PRIu64 "\nkern_wins %" PRIu64
                      "\nour_wins %" PRIu64 "\n",
                      R.Total, R.Equal, R.Differ, R.Comparable, R.KernWins,
                      R.OurWins);
}

/// Accepts only what serializeRow writes back byte for byte.
bool parseRow(const std::string &Payload, Row &R) {
  std::string_view Text = Payload;
  return takeNumber(Text, R.Total) && takeNumber(Text, R.Equal) &&
         takeNumber(Text, R.Differ) && takeNumber(Text, R.Comparable) &&
         takeNumber(Text, R.KernWins) && takeNumber(Text, R.OurWins) &&
         serializeRow(R) == Payload;
}

/// The Table I property driver: one width per cell, one Row of six
/// order-independent counters per shard, summed on merge. Universes
/// build lazily, so a resumed invocation whose widths are all
/// checkpointed never enumerates them.
class Table1Driver final : public PropertyDriver {
  const unsigned MinWidth;
  const SweepConfig &Config;
  std::vector<Row> &Rows;
  std::vector<std::vector<Tnum>> Universes;

public:
  Table1Driver(unsigned MinWidth, unsigned NumWidths,
               const SweepConfig &Config, std::vector<Row> &Rows)
      : MinWidth(MinWidth), Config(Config), Rows(Rows),
        Universes(NumWidths) {}

  const char *name() const override { return "table1-row"; }
  unsigned payloadVersion() const override { return 1; }

  void runShard(size_t Cell, uint64_t Begin, uint64_t End,
                std::string &Payload, bool &) override {
    if (Universes[Cell].empty())
      Universes[Cell] = allWellFormedTnums(MinWidth + Cell);
    Row Shard;
    scanRange(Universes[Cell], MinWidth + Cell, Begin, End, Config, Shard);
    Payload = serializeRow(Shard);
  }

  bool mergeShard(size_t Cell, uint64_t, uint64_t,
                  const std::string &Payload, std::string &Error) override {
    Row Shard;
    if (!parseRow(Payload, Shard)) {
      Error = formatString("malformed Table I shard for width %zu",
                           MinWidth + Cell);
      return false;
    }
    Row &R = Rows[Cell];
    R.Total += Shard.Total;
    R.Equal += Shard.Equal;
    R.Differ += Shard.Differ;
    R.Comparable += Shard.Comparable;
    R.KernWins += Shard.KernWins;
    R.OurWins += Shard.OurWins;
    return true;
  }
};

} // namespace

int main(int Argc, char **Argv) {
  unsigned MinWidth = 5;
  unsigned MaxWidth = 8;
  unsigned Jobs = 0; // SweepConfig convention: 0 = hardware concurrency.
  CampaignIO IO;
  ArgParser Args(Argc, Argv);
  while (Args.more()) {
    if (Args.matchUnsigned("--min-width", 2, 10, MinWidth))
      continue;
    if (Args.matchUnsigned("--max-width", 2, 10, MaxWidth))
      continue;
    if (Args.matchJobs(Jobs))
      continue;
    if (matchCampaignArgs(Args, IO))
      continue;
    Args.reject();
  }
  if (Args.failed() || MinWidth > MaxWidth) {
    std::fprintf(stderr,
                 "usage: %s [--min-width N] [--max-width N] [--jobs N] %s "
                 "with 2 <= min <= max <= 10\n",
                 Argv[0], CampaignArgsUsage);
    return 1;
  }

  std::printf("Table I: kern_mul vs our_mul across bitwidths (exhaustive "
              "over all tnum pairs)\n\n");

  SweepConfig Config;
  Config.NumThreads = Jobs;

  const unsigned NumWidths = MaxWidth - MinWidth + 1;

  Fnv1a Hash;
  Hash.mixString("tnums-table1 v2");
  Hash.mixU64(MinWidth);
  Hash.mixU64(MaxWidth);
  Hash.mixU64(IO.ShardPairs);

  // One campaign cell per width, all driven by the Table I property
  // driver. Per-cell content fingerprints: each width cell compares
  // kern_mul against our_mul, so bumping either algorithm's version tag
  // invalidates (and re-runs) exactly the checkpointed width cells on
  // resume, like the verification campaigns. The registry layer extends
  // them with the driver's name and payload version.
  std::vector<Row> Rows(NumWidths);
  Table1Driver Driver(MinWidth, NumWidths, Config, Rows);
  std::vector<PropertyCampaignCell> Cells;
  for (unsigned Width = MinWidth; Width <= MaxWidth; ++Width) {
    Fnv1a CellHash;
    CellHash.mixString("tnums-table1-cell v2");
    CellHash.mixU64(Width);
    CellHash.mixU64(opFingerprint(BinaryOp::Mul, MulAlgorithm::Kern));
    CellHash.mixU64(opFingerprint(BinaryOp::Mul, MulAlgorithm::Our));
    uint64_t NumTnums = numWellFormedTnums(Width);
    Cells.push_back(PropertyCampaignCell{NumTnums * NumTnums,
                                         CellHash.digest(), &Driver});
  }

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
                "--checkpoint-dir to complete the table\n");
    return 0;
  }
  std::printf("\n");

  TextTable Table({"bitwidth", "total pairs", "equal", "equal %",
                   "differing", "differ %", "comparable %", "kern wins %",
                   "our wins %"});
  for (size_t Cell = 0; Cell != Rows.size(); ++Cell) {
    const Row &R = Rows[Cell];
    auto Pct = [](uint64_t Part, uint64_t Whole) {
      return formatString("%.3f%%", Whole == 0 ? 0.0
                                               : 100.0 *
                                                     static_cast<double>(Part) /
                                                     static_cast<double>(Whole));
    };
    Table.addRowOf(MinWidth + Cell, R.Total, R.Equal, Pct(R.Equal, R.Total),
                   R.Differ, Pct(R.Differ, R.Total),
                   Pct(R.Comparable, R.Differ),
                   Pct(R.KernWins, R.Comparable),
                   Pct(R.OurWins, R.Comparable));
  }
  Table.printAligned(stdout);
  std::printf("\npaper reference: equal %% falls 99.986 -> 99.895, our-wins "
              "%% rises 75.0 -> 80.2 as width goes 5 -> 10; all differing "
              "outputs comparable through width 8.\n");
  return 0;
}
