//===- bench/precision_atlas.cpp - Per-operator optimality-gap atlas ------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The precision atlas (docs/ATLAS.md): for every operator and every
/// multiplication algorithm, measure the optimality gap exhaustively --
/// per input pair, how many more unknown bits does the transfer function
/// produce than the best abstraction of the concrete result set? The
/// paper proves WHICH operators are optimal (§IV); the atlas quantifies
/// the others: gap histograms, mean/max lost bits, and the worst-case
/// witness pair per cell.
///
/// The binary-operator cells run on the checkpointed campaign engine
/// (verify/Campaign.h) as Precision property cells, so a width-10 atlas
/// survives preemption, shards across machines, and re-measures only the
/// cells whose algorithm changed on resume. The unary narrowing casts
/// (tnum_cast, tnumTruncate) are cheap one-axis scans measured inline --
/// they are exactly optimal, and the atlas RECORDS that rather than
/// assuming it.
///
/// Usage: precision_atlas [--width N] [--shift-width N] [--cast-width N]
///                        [--jobs N] [--simd=MODE] [--no-timing]
///                        [--metrics] [--json FILE]
///                        [--witness-corpus FILE] [--diff-baseline D]
///                        [--checkpoint-dir D] [--resume] [--shards K]
///                        [--shard-index I] [--shard-pairs N]
///
///   --width N           mul algorithms + non-shift ops (default 6: the
///                       smallest width where every mul algorithm has a
///                       measurable nonzero gap)
///   --shift-width N     lsh/rsh/arsh cells (default 4; must be 2^k for
///                       the shift semantics)
///   --cast-width N      the unary cast scans (default 12, so a 1-byte
///                       tnum_cast actually narrows)
///   --witness-corpus F  write every worst-case witness pair as a corpus
///                       file (bench/ablation_mul --witness-corpus
///                       replays it instead of private random sampling)
///   --diff-baseline D   report per-cell precision drift against an
///                       earlier run's checkpoint store ("0 precision
///                       deltas vs baseline" on an identical rerun)
///   --json FILE         BENCH_atlas.json for ci/compare_bench.py
///                       (e2e.atlas_baseline): gap fields are exact;
///                       campaign_pairs_per_s gets the throughput floor
///
/// Reports are bit-identical across schedulers, SIMD modes, shard splits,
/// and kill/resume interleavings (the campaign determinism contract).
/// The atlas measures; it does not judge: exit status is 0 unless a hard
/// error occurs.
///
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/Metrics.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "tnum/TnumEnum.h"
#include "tnum/TnumMul.h"
#include "tnum/TnumOps.h"
#include "verify/Campaign.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace tnums;

namespace {

/// Ops measured at --width besides the per-algorithm mul cells. Shifts
/// need a power-of-two width and get their own --shift-width axis.
constexpr BinaryOp WidthOps[] = {BinaryOp::Add, BinaryOp::Sub,
                                 BinaryOp::And, BinaryOp::Or,
                                 BinaryOp::Xor, BinaryOp::Div,
                                 BinaryOp::Mod};
constexpr BinaryOp ShiftOps[] = {BinaryOp::Lsh, BinaryOp::Rsh,
                                 BinaryOp::Arsh};

/// "mul[our_mul]" or "div" -- the atlas row / corpus label of a cell.
std::string cellOpLabel(const CampaignCell &Cell) {
  std::string Op = binaryOpName(Cell.Op);
  if (Cell.Op == BinaryOp::Mul)
    Op += formatString("[%s]", mulAlgorithmName(Cell.Mul));
  return Op;
}

/// One unary narrowing measurement: Op(P) vs the optimal abstraction of
/// {concrete(x) : x in gamma(P)}, exhaustively over every well-formed
/// tnum at the scan width. The narrowing operators are exactly optimal;
/// the atlas measures that instead of assuming it.
struct UnaryRow {
  const char *Op;     ///< "cast" or "truncate".
  unsigned Param;     ///< Bytes for cast, target width for truncate.
  unsigned Width;     ///< Input width of the scan.
  uint64_t Tnums = 0; ///< Inputs measured.
  uint64_t SumGap = 0;
  unsigned MaxGap = 0;
};

template <typename AbstractFnT, typename ConcreteFnT>
UnaryRow measureUnary(const char *Op, unsigned Param, unsigned Width,
                      AbstractFnT &&Abstract, ConcreteFnT &&Concrete) {
  UnaryRow Row{Op, Param, Width, 0, 0, 0};
  for (const Tnum &P : allWellFormedTnums(Width)) {
    Tnum Actual = Abstract(P);
    Tnum Optimal = Tnum::makeBottom();
    forEachMember(P, [&](uint64_t X) {
      Optimal = abstractInsert(Optimal, Concrete(X));
    });
    unsigned ActualBits =
        static_cast<unsigned>(std::popcount(Actual.mask()));
    unsigned OptimalBits =
        static_cast<unsigned>(std::popcount(Optimal.mask()));
    unsigned Gap = ActualBits > OptimalBits ? ActualBits - OptimalBits : 0;
    ++Row.Tnums;
    Row.SumGap += Gap;
    Row.MaxGap = std::max(Row.MaxGap, Gap);
  }
  return Row;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Width = 6;
  unsigned ShiftWidth = 4;
  unsigned CastWidth = 12;
  unsigned Jobs = ThreadPool::hardwareConcurrency();
  SimdMode Simd = SimdMode::Auto;
  bool NoTiming = false;
  bool UseMetrics = false;
  const char *SimdText = nullptr;
  const char *JsonPath = nullptr;
  const char *CorpusPath = nullptr;
  const char *DiffBaselineDir = nullptr;
  CampaignIO IO;
  ArgParser Args(Argc, Argv);
  while (Args.more()) {
    if (Args.matchUnsigned("--width", 2, 12, Width))
      continue;
    if (Args.matchUnsigned("--shift-width", 2, 8, ShiftWidth))
      continue;
    if (Args.matchUnsigned("--cast-width", 2, 14, CastWidth))
      continue;
    if (Args.matchJobs(Jobs))
      continue;
    if (Args.matchString("--simd", SimdText))
      continue;
    if (Args.matchString("--json", JsonPath))
      continue;
    if (Args.matchString("--witness-corpus", CorpusPath))
      continue;
    if (Args.matchString("--diff-baseline", DiffBaselineDir))
      continue;
    if (Args.matchFlag("--no-timing")) {
      NoTiming = true;
      continue;
    }
    if (Args.matchFlag("--metrics")) {
      UseMetrics = true;
      continue;
    }
    if (matchCampaignArgs(Args, IO))
      continue;
    Args.reject();
  }
  bool BadArgs = Args.failed();
  if (SimdText) {
    if (std::optional<SimdMode> Parsed = parseSimdMode(SimdText))
      Simd = *Parsed;
    else
      BadArgs = true;
  }
  if ((ShiftWidth & (ShiftWidth - 1)) != 0) {
    std::fprintf(stderr,
                 "error: --shift-width must be a power of two (the shift "
                 "semantics mask the amount to the width)\n");
    BadArgs = true;
  }
  if (Jobs == 0) // Keeps the SweepConfig convention: hardware concurrency.
    Jobs = ThreadPool::hardwareConcurrency();
  if (BadArgs) {
    std::fprintf(stderr,
                 "usage: %s [--width 2..12] [--shift-width {2,4,8}] "
                 "[--cast-width 2..14] [--jobs N] [--simd=%s] "
                 "[--no-timing] [--metrics] [--json FILE] "
                 "[--witness-corpus FILE] [--diff-baseline D] %s\n",
                 Argv[0], SimdModeUsage, CampaignArgsUsage);
    return 1;
  }
  if (UseMetrics)
    enableProcessMetrics();

  SweepConfig Sweep;
  Sweep.NumThreads = Jobs;
  Sweep.Simd = Simd;

  std::printf("precision atlas: optimality gap per operator (mul + ops at "
              "width %u, shifts at width %u, casts at width %u)\n\n",
              Width, ShiftWidth, CastWidth);

  // The atlas campaign: every mul algorithm, then the non-shift
  // operators, then the shifts -- all Precision cells on the shared
  // checkpointed engine.
  CampaignSpec Spec;
  for (MulAlgorithm Algorithm : AllMulAlgorithms)
    Spec.Cells.push_back(
        {BinaryOp::Mul, Algorithm, Width, CampaignProperty::Precision});
  for (BinaryOp Op : WidthOps)
    Spec.Cells.push_back(
        {Op, MulAlgorithm::Our, Width, CampaignProperty::Precision});
  for (BinaryOp Op : ShiftOps)
    Spec.Cells.push_back(
        {Op, MulAlgorithm::Our, ShiftWidth, CampaignProperty::Precision});

  CampaignResult Campaign = runCampaign(Spec, IO, Sweep);
  if (!Campaign.ok()) {
    std::fprintf(stderr, "error: %s\n", Campaign.Error.c_str());
    return 1;
  }
  printCampaignStatus(Campaign.ShardsTotal, Campaign.ShardsRun,
                      Campaign.ShardsResumed, Campaign.ShardsSkipped,
                      Campaign.ShardsInvalidated, IO.CheckpointDir);
  if (!IO.CheckpointDir.empty()) {
    // Executed-cell accounting, "campaign"-prefixed like the banner so
    // CI's byte-for-byte report diffs can filter the lines that
    // legitimately vary across resumes.
    for (const CampaignCellResult &Cell : Campaign.Cells)
      std::printf("campaign cell %s/w%u: %llu run, %llu resumed, "
                  "%llu invalidated\n",
                  cellOpLabel(Cell.Cell).c_str(), Cell.Cell.Width,
                  static_cast<unsigned long long>(Cell.ShardsRun),
                  static_cast<unsigned long long>(Cell.ShardsResumed),
                  static_cast<unsigned long long>(Cell.ShardsInvalidated));
  }
  if (!Campaign.Complete) {
    std::printf("campaign PARTIAL: run the remaining --shard-index "
                "invocations (or --resume) against the same "
                "--checkpoint-dir to complete the atlas\n");
    return 0;
  }
  if (DiffBaselineDir) {
    CampaignDiffResult Diff =
        diffCampaignBaseline(Spec, IO, DiffBaselineDir, Campaign);
    if (!Diff.ok()) {
      std::fprintf(stderr, "error: --diff-baseline: %s\n",
                   Diff.Error.c_str());
      return 1;
    }
    std::printf("\n");
    printPrecisionDeltas(Spec, Diff, Campaign, stdout);
  }
  std::printf("\n");

  TextTable Table({"op", "width", "pairs", "optimal %", "mean gap",
                   "max gap", "worst pair", "seconds"});
  uint64_t CampaignPairs = 0;
  double CampaignSeconds = 0;
  for (const CampaignCellResult &Cell : Campaign.Cells) {
    const PrecisionReport &R = Cell.Precision;
    CampaignPairs += R.PairsChecked;
    CampaignSeconds += Cell.Seconds;
    Table.addRowOf(
        cellOpLabel(Cell.Cell), Cell.Cell.Width, R.PairsChecked,
        formatString("%.3f%%",
                     R.PairsChecked
                         ? 100.0 * static_cast<double>(R.optimalPairs()) /
                               static_cast<double>(R.PairsChecked)
                         : 0.0),
        formatString("%.4f", R.meanGap()), R.MaxGap,
        R.Worst ? R.Worst->toString(Cell.Cell.Width) : std::string("-"),
        NoTiming ? std::string("-") : formatString("%.3f", Cell.Seconds));
  }
  Table.printAligned(stdout);
  if (!NoTiming)
    std::printf("campaign: %" PRIu64 " pairs in %.3f s (%.1f Mpairs/s, "
                "--simd=%s)\n",
                CampaignPairs, CampaignSeconds,
                CampaignSeconds > 0
                    ? CampaignPairs / CampaignSeconds / 1e6
                    : 0.0,
                simdModeName(Simd));

  // The unary narrowing casts: one-axis exhaustive scans, measured inline
  // (no pair grid, so no campaign cell). Both are exactly optimal -- the
  // zero rows below are a measurement, not an assumption.
  std::printf("\nunary narrowing operators at width %u (exhaustive over "
              "all %" PRIu64 " well-formed tnums)\n\n",
              CastWidth, numWellFormedTnums(CastWidth));
  std::vector<UnaryRow> UnaryRows;
  for (unsigned Bytes = 1; Bytes * 8 < CastWidth; ++Bytes)
    UnaryRows.push_back(measureUnary(
        "cast", Bytes, CastWidth,
        [&](const Tnum &P) { return tnumCast(P, Bytes); },
        [&](uint64_t X) {
          return X & ((uint64_t(1) << (8 * Bytes)) - 1);
        }));
  for (unsigned Target : {1u, CastWidth / 2}) {
    UnaryRows.push_back(measureUnary(
        "truncate", Target, CastWidth,
        [&](const Tnum &P) { return tnumTruncate(P, Target); },
        [&](uint64_t X) { return X & ((uint64_t(1) << Target) - 1); }));
  }
  TextTable UnaryTable({"op", "param", "width", "tnums", "sum gap",
                        "max gap", "verdict"});
  for (const UnaryRow &Row : UnaryRows)
    UnaryTable.addRowOf(Row.Op, Row.Param, Row.Width, Row.Tnums, Row.SumGap,
                        Row.MaxGap,
                        Row.MaxGap == 0 ? "measured: optimal"
                                        : "measured: imprecise");
  UnaryTable.printAligned(stdout);
  std::printf("paper: truncation distributes over the tnum pair, so the "
              "narrowing casts are exactly optimal -- the atlas measures "
              "it rather than assuming it.\n");

  // Witness corpus: one worst-case pair per cell that has one (gap > 0),
  // in deterministic cell order. bench/ablation_mul --witness-corpus
  // replays the mul entries as its sample seeds.
  if (CorpusPath) {
    std::vector<WitnessPair> Pairs;
    for (const CampaignCellResult &Cell : Campaign.Cells)
      if (const std::optional<PrecisionWitness> &W = Cell.Precision.Worst)
        Pairs.push_back({Cell.Cell.Op, Cell.Cell.Mul, Cell.Cell.Width, W->P,
                         W->Q, W->Gap});
    std::FILE *Corpus = std::fopen(CorpusPath, "w");
    if (!Corpus) {
      std::fprintf(stderr, "error: cannot write %s\n", CorpusPath);
      return 1;
    }
    std::fputs(encodeWitnessCorpus(Pairs).c_str(), Corpus);
    std::fclose(Corpus);
    std::printf("\nwrote %s (%zu worst-case witness pairs)\n", CorpusPath,
                Pairs.size());
  }

  //===--------------------------------------------------------------------===//
  // BENCH_atlas.json: every gap figure is exact cross-machine (the scans
  // are exhaustive and deterministic); campaign_pairs_per_s is the
  // machine-dependent perf number ci/compare_bench.py floors.
  //===--------------------------------------------------------------------===//
  if (JsonPath) {
    std::FILE *Json = std::fopen(JsonPath, "w");
    if (!Json) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(Json,
                 "{\n"
                 "  \"bench\": \"precision_atlas\",\n"
                 "  \"build_info\": %s,\n"
                 "  \"width\": %u,\n"
                 "  \"shift_width\": %u,\n"
                 "  \"cast_width\": %u,\n"
                 "  \"jobs\": %u,\n"
                 "  \"simd\": \"%s\",\n"
                 "  \"campaign_pairs\": %" PRIu64 ",\n"
                 "  \"campaign_seconds\": %.6f,\n"
                 "  \"campaign_pairs_per_s\": %.3f,\n"
                 "  \"cells\": [\n",
                 buildInfoJson().c_str(), Width, ShiftWidth, CastWidth,
                 Sweep.NumThreads, simdModeName(Simd), CampaignPairs,
                 CampaignSeconds,
                 CampaignSeconds > 0 ? CampaignPairs / CampaignSeconds
                                     : 0.0);
    for (size_t I = 0; I != Campaign.Cells.size(); ++I) {
      const CampaignCellResult &Cell = Campaign.Cells[I];
      const PrecisionReport &R = Cell.Precision;
      // Cumulative gap counts 0..MaxGap: an exact-integer CDF (the last
      // entry equals pairs), compact even at width 64's 65 buckets.
      std::string Cdf = "[";
      uint64_t Running = 0;
      for (unsigned Gap = 0; Gap <= R.MaxGap; ++Gap) {
        Running += R.Buckets[Gap];
        Cdf += formatString("%s%" PRIu64, Gap ? ", " : "", Running);
      }
      Cdf += "]";
      std::fprintf(
          Json,
          "    {\"op\": \"%s\", \"algorithm\": \"%s\", \"width\": %u, "
          "\"pairs\": %" PRIu64 ", \"sum_gap\": %" PRIu64
          ", \"max_gap\": %u, \"mean_gap\": %.6f, \"gap_cdf\": %s, "
          "\"witness\": %s}%s\n",
          binaryOpName(Cell.Cell.Op), mulAlgorithmName(Cell.Cell.Mul),
          Cell.Cell.Width, R.PairsChecked, R.SumGap, R.MaxGap, R.meanGap(),
          Cdf.c_str(),
          R.Worst ? ("\"" +
                     jsonEscape(R.Worst->toString(Cell.Cell.Width)) + "\"")
                        .c_str()
                  : "null",
          I + 1 == Campaign.Cells.size() ? "" : ",");
    }
    std::fprintf(Json, "  ],\n  \"cast\": [\n");
    for (size_t I = 0; I != UnaryRows.size(); ++I) {
      const UnaryRow &Row = UnaryRows[I];
      std::fprintf(Json,
                   "    {\"op\": \"%s\", \"param\": %u, \"width\": %u, "
                   "\"tnums\": %" PRIu64 ", \"sum_gap\": %" PRIu64
                   ", \"max_gap\": %u}%s\n",
                   Row.Op, Row.Param, Row.Width, Row.Tnums, Row.SumGap,
                   Row.MaxGap, I + 1 == UnaryRows.size() ? "" : ",");
    }
    if (UseMetrics) {
      MetricsSnapshot Snapshot = MetricsRegistry::instance().snapshot();
      std::fprintf(Json, "  ],\n  \"metrics\": %s\n}\n",
                   Snapshot.toJson().c_str());
    } else {
      std::fprintf(Json, "  ]\n}\n");
    }
    std::fclose(Json);
    std::printf("\nwrote %s\n", JsonPath);
  }
  return 0;
}
