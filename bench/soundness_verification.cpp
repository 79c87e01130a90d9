//===- bench/soundness_verification.cpp - Reproduce §III-A results --------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §III-A bounded verification campaign, re-run on the offline
/// substitute engine (exhaustive enumeration = the same bounded property
/// the SMT queries decide, plus randomized 64-bit refutation):
///
///   1. soundness + optimality of every tnum operator, exhaustively;
///   2. soundness of every multiplication algorithm (the paper verified
///      kern_mul only up to n = 8; --mul-width 8 reproduces that instance,
///      and the widest campaign on record is --mul-width 9);
///   3. randomized 64-bit refutation;
///   4. the three §III-A observations with concrete witnesses;
///   5. the §III-B/§VII proof lemmas swept exhaustively;
///   6. monotonicity of the multiplication algorithms.
///
/// The exhaustive sections (1, 2, 6) compile into ONE declarative
/// CampaignSpec (verify/Campaign.h) and run on the checkpointed, sharded
/// campaign engine:
///
///   --checkpoint-dir D   durable shard store; a killed run resumes with
///                        --resume and loses at most one shard of work
///   --resume             reuse shards already in --checkpoint-dir
///   --shards K           split the shard manifest across K invocations
///   --shard-index I      this invocation's slice (0-based); every
///                        invocation points at the same --checkpoint-dir,
///                        and whichever one finds the manifest complete
///                        prints the merged report
///   --shard-pairs N      pair indices per shard (default 2^20)
///
/// Merged reports are bit-identical to an uninterrupted serial run no
/// matter how the shards were split, killed, or resumed (the campaign
/// determinism contract, docs/CAMPAIGN.md).
///
/// Campaigns are also *incremental across transfer-function changes*
/// (docs/CAMPAIGN.md): every checkpointed cell is keyed on the content
/// fingerprint of the operator it verified, so resuming after an
/// algorithm change re-runs only the invalidated cells.
///
///   --diff-baseline D    compare this run against the checkpoint store
///                        of an earlier run of the same campaign shape:
///                        which cells an incremental resume would reuse
///                        vs re-run, and whether any verdict changed
///   --flip-mul ALGO      test-only: re-register the named multiplication
///                        algorithm under a flipped content fingerprint
///                        (semantics unchanged). Resuming against a
///                        checkpoint written without the flip re-executes
///                        exactly that algorithm's soundness cells -- the
///                        CI incremental smoke leg drives this
///
/// --simd={auto,off} selects the member-scan path (support/SimdBatch.h):
/// the row scan, or its off switch, the scalar reference. Reports are
/// bit-identical across the two, so --simd=auto vs --simd=off is the A/B
/// measurement of the row scan. --compare-serial times the scalar serial
/// checkers on the multiplication campaign.
/// --optimality={first,full} picks first-witness-only (default; the
/// ROADMAP's deterministic early-exit mode) or exact-total optimality
/// scans, and --compare-optimality re-times each operator's soundness and
/// optimality cells -- one pass of their grid -- on the scalar per-pair
/// path (--simd=off, the row scan's off switch), which must report
/// identically to the main run.
/// --json FILE dumps the campaign figures of merit as BENCH_sweep.json
/// for ci/compare_bench.py (e2e.sweep_baseline); with --metrics it also
/// holds the metrics snapshot, which splits the sweeps' time between
/// alpha and the checks (docs/OBSERVABILITY.md).
/// --precision (opt-in) appends precision cells to the campaign -- the
/// per-operator optimality-gap measurement of docs/ATLAS.md -- printed as
/// section [7] and diffed by --diff-baseline as "precision deltas";
/// measurements never affect the exit code.
///
/// Usage: soundness_verification [--width N] [--mul-width N]
///                               [--random-pairs N] [--jobs N]
///                               [--simd=MODE] [--compare-serial]
///                               [--optimality={first,full}]
///                               [--compare-optimality] [--precision]
///                               [--json FILE] [--metrics]
///                               [--diff-baseline D] [--flip-mul ALGO]
///                               [--checkpoint-dir D] [--resume]
///                               [--shards K] [--shard-index I]
///                               [--shard-pairs N]
///
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "tnum/TnumEnum.h"
#include "verify/AlgebraicProperties.h"
#include "verify/Campaign.h"
#include "verify/LemmaChecks.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

using namespace tnums;

namespace {
/// Wall-clock seconds spent in \p Fn.
template <typename FnT> double timeSeconds(FnT &&Fn) {
  auto Start = std::chrono::steady_clock::now();
  Fn();
  std::chrono::duration<double> Elapsed =
      std::chrono::steady_clock::now() - Start;
  return Elapsed.count();
}

/// Mul algorithms whose monotonicity section 6 reports (the paper-adjacent
/// trio; the campaign accepts any).
constexpr MulAlgorithm MonoAlgorithms[] = {
    MulAlgorithm::Kern, MulAlgorithm::BitwiseOpt, MulAlgorithm::Our};

/// Parses a multiplication algorithm by its stable name ("our_mul", ...).
std::optional<MulAlgorithm> parseMulAlgorithmName(const char *Text) {
  for (MulAlgorithm Algorithm : AllMulAlgorithms)
    if (std::strcmp(mulAlgorithmName(Algorithm), Text) == 0)
      return Algorithm;
  return std::nullopt;
}

/// The cell label used by the accounting and diff reports:
/// "mul[our_mul]/w5/soundness", "add/w4/optimality", ...
std::string cellLabel(const CampaignCell &Cell) {
  std::string Op = binaryOpName(Cell.Op);
  if (Cell.Op == BinaryOp::Mul)
    Op += formatString("[%s]", mulAlgorithmName(Cell.Mul));
  return formatString("%s/w%u/%s", Op.c_str(), Cell.Width,
                      campaignPropertyName(Cell.Property));
}
} // namespace

int main(int Argc, char **Argv) {
  unsigned Width = 4;
  unsigned MulWidth = 5;
  uint64_t RandomPairs = 20000;
  unsigned Jobs = ThreadPool::hardwareConcurrency();
  SimdMode Simd = SimdMode::Auto;
  bool CompareSerial = false;
  bool CompareOptimality = false;
  bool NoTiming = false;
  bool Precision = false;
  bool UseMetrics = false;
  const char *SimdText = nullptr;
  const char *OptimalityText = nullptr;
  const char *DiffBaselineDir = nullptr;
  const char *FlipMulText = nullptr;
  const char *JsonPath = nullptr;
  CampaignIO IO;
  ArgParser Args(Argc, Argv);
  while (Args.more()) {
    // Widths live in [1, 16]: 3^17 tnum pairs is already out of
    // enumeration reach, and rejecting early beats exploding inside the
    // sweep.
    if (Args.matchUnsigned("--width", 1, 16, Width))
      continue;
    if (Args.matchUnsigned("--mul-width", 1, 16, MulWidth))
      continue;
    if (Args.matchU64("--random-pairs", 0, UINT64_MAX, RandomPairs))
      continue;
    if (Args.matchJobs(Jobs))
      continue;
    if (Args.matchString("--simd", SimdText)) // --simd=MODE or --simd MODE
      continue;
    if (Args.matchString("--optimality", OptimalityText))
      continue;
    // Incremental re-verification: report reuse/re-run/verdict deltas
    // against an earlier run's checkpoint store.
    if (Args.matchString("--diff-baseline", DiffBaselineDir))
      continue;
    // Test-only: flip one mul algorithm's content fingerprint without
    // changing its semantics (the CI incremental smoke leg).
    if (Args.matchString("--flip-mul", FlipMulText))
      continue;
    // Machine-readable campaign figures of merit (BENCH_sweep.json).
    if (Args.matchString("--json", JsonPath))
      continue;
    if (Args.matchFlag("--compare-serial")) {
      CompareSerial = true;
      continue;
    }
    // Opt-in so the default campaign spec (and CI's exact cell-count
    // greps over the incremental smoke leg) keeps its historical shape.
    if (Args.matchFlag("--precision")) {
      Precision = true;
      continue;
    }
    if (Args.matchFlag("--compare-optimality")) {
      CompareOptimality = true;
      continue;
    }
    if (Args.matchFlag("--metrics")) {
      UseMetrics = true;
      continue;
    }
    // Suppress wall-clock columns so the report is byte-for-byte
    // deterministic -- how CI diffs a sharded+resumed campaign against
    // the single-invocation run.
    if (Args.matchFlag("--no-timing")) {
      NoTiming = true;
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
  bool OptimalityEarlyExit = true;
  if (OptimalityText) {
    if (std::strcmp(OptimalityText, "first") == 0)
      OptimalityEarlyExit = true;
    else if (std::strcmp(OptimalityText, "full") == 0)
      OptimalityEarlyExit = false;
    else
      BadArgs = true;
  }
  std::optional<MulAlgorithm> FlipMul;
  if (FlipMulText) {
    FlipMul = parseMulAlgorithmName(FlipMulText);
    if (!FlipMul)
      BadArgs = true;
  }
  if (Jobs == 0) // Keeps the SweepConfig convention: hardware concurrency.
    Jobs = ThreadPool::hardwareConcurrency();
  if (BadArgs) {
    std::fprintf(
        stderr,
        "usage: %s [--width 1..16] [--mul-width 1..16] [--random-pairs N] "
        "[--jobs 0..1024] [--simd=%s] [--compare-serial] "
        "[--optimality={first,full}] [--compare-optimality] [--no-timing] "
        "[--precision] [--json FILE] [--metrics] [--diff-baseline D] "
        "[--flip-mul ALGO] %s\n",
        Argv[0], SimdModeUsage, CampaignArgsUsage);
    return 1;
  }
  if (UseMetrics)
    enableProcessMetrics();
  SweepConfig Sweep;
  Sweep.NumThreads = Jobs;
  Sweep.Simd = Simd;
  std::printf("member-scan path: --simd=%s runs the %s\n\n",
              simdModeName(Simd),
              simdModeBatches(Simd) ? "row scan" : "scalar reference");

  //===--------------------------------------------------------------------===//
  // Compile the exhaustive sections into one campaign spec.
  //===--------------------------------------------------------------------===//
  CampaignSpec Spec;
  Spec.OptimalityEarlyExit = OptimalityEarlyExit;

  // Section 1: soundness + optimality of every operator at --width.
  struct OpCells {
    BinaryOp Op;
    bool Skipped;
    size_t Soundness; ///< Cell indices into Spec.Cells.
    size_t Optimality;
  };
  std::vector<OpCells> Sec1;
  for (BinaryOp Op : AllBinaryOps) {
    if (isShiftOp(Op) && (Width & (Width - 1)) != 0) {
      Sec1.push_back({Op, true, 0, 0});
      continue;
    }
    size_t Soundness = Spec.Cells.size();
    Spec.Cells.push_back(
        {Op, MulAlgorithm::Our, Width, CampaignProperty::Soundness});
    size_t Optimality = Spec.Cells.size();
    Spec.Cells.push_back(
        {Op, MulAlgorithm::Our, Width, CampaignProperty::Optimality});
    Sec1.push_back({Op, false, Soundness, Optimality});
  }

  // Section 2: soundness of every mul algorithm at --mul-width.
  std::vector<size_t> Sec2;
  for (MulAlgorithm Algorithm : AllMulAlgorithms) {
    Sec2.push_back(Spec.Cells.size());
    Spec.Cells.push_back({BinaryOp::Mul, Algorithm, MulWidth,
                          CampaignProperty::Soundness});
  }

  // Section 6: monotonicity of the mul trio at widths 4-5.
  struct MonoCell {
    MulAlgorithm Algorithm;
    unsigned Width;
    size_t Cell;
  };
  std::vector<MonoCell> Sec6;
  for (MulAlgorithm Algorithm : MonoAlgorithms)
    for (unsigned W = 4; W <= 5; ++W) {
      Sec6.push_back({Algorithm, W, Spec.Cells.size()});
      Spec.Cells.push_back(
          {BinaryOp::Mul, Algorithm, W, CampaignProperty::Monotonicity});
    }

  // Section 7 (opt-in --precision): optimality-gap measurement of every
  // operator at --width plus every mul algorithm at --mul-width. These
  // are measurements, not verdicts: they never feed the exit code.
  std::vector<size_t> Sec7;
  if (Precision) {
    for (BinaryOp Op : AllBinaryOps) {
      if (isShiftOp(Op) && (Width & (Width - 1)) != 0)
        continue;
      if (Op == BinaryOp::Mul)
        continue; // Measured per-algorithm at --mul-width below.
      Sec7.push_back(Spec.Cells.size());
      Spec.Cells.push_back(
          {Op, MulAlgorithm::Our, Width, CampaignProperty::Precision});
    }
    for (MulAlgorithm Algorithm : AllMulAlgorithms) {
      Sec7.push_back(Spec.Cells.size());
      Spec.Cells.push_back({BinaryOp::Mul, Algorithm, MulWidth,
                            CampaignProperty::Precision});
    }
  }

  if (FlipMul) {
    // Same semantics, different registered fingerprint: resuming against
    // a pre-flip checkpoint invalidates exactly this algorithm's
    // soundness (and, with --precision, precision) cells, and the merged
    // report stays byte-identical.
    MulAlgorithm Algorithm = *FlipMul;
    Spec.OperatorOverride = [Algorithm](const Tnum &P, const Tnum &Q,
                                        unsigned Width) {
      return applyAbstractBinary(BinaryOp::Mul, P, Q, Width, Algorithm);
    };
    Spec.OverrideTag =
        formatString("fingerprint-flip %s", mulAlgorithmName(Algorithm));
    Spec.OverrideOp = BinaryOp::Mul;
    Spec.OverrideMul = Algorithm;
  }

  CampaignResult Campaign = runCampaign(Spec, IO, Sweep);
  if (!Campaign.ok()) {
    std::fprintf(stderr, "error: %s\n", Campaign.Error.c_str());
    return 1;
  }
  printCampaignStatus(Campaign.ShardsTotal, Campaign.ShardsRun,
                      Campaign.ShardsResumed, Campaign.ShardsSkipped,
                      Campaign.ShardsInvalidated, IO.CheckpointDir);
  if (!IO.CheckpointDir.empty()) {
    // Executed-cell accounting: which cells this invocation computed vs
    // served from the store (the incremental-reuse evidence). Prefixed
    // "campaign" like the banner, so CI's byte-for-byte report diffs can
    // filter every line that legitimately varies across resumes.
    for (const CampaignCellResult &Cell : Campaign.Cells)
      std::printf("campaign cell %s: %llu run, %llu resumed, "
                  "%llu invalidated\n",
                  cellLabel(Cell.Cell).c_str(),
                  static_cast<unsigned long long>(Cell.ShardsRun),
                  static_cast<unsigned long long>(Cell.ShardsResumed),
                  static_cast<unsigned long long>(Cell.ShardsInvalidated));
  }
  if (!Campaign.Complete) {
    uint64_t Merged = 0, Needed = 0;
    for (const CampaignCellResult &Cell : Campaign.Cells) {
      Merged += Cell.ShardsMerged;
      // A complete cell needed exactly what it merged (early exit may
      // leave the rest of its manifest dead forever); an incomplete cell
      // may still terminate early, so its full manifest is an upper
      // bound, not a promise.
      Needed += Cell.Complete ? Cell.ShardsMerged : Cell.ShardsTotal;
    }
    std::printf("campaign PARTIAL: %llu/%llu shards merged (upper bound; "
                "early exits can retire cells sooner); run the remaining "
                "--shard-index invocations (or --resume) against the same "
                "--checkpoint-dir to complete and print the merged "
                "report\n",
                static_cast<unsigned long long>(Merged),
                static_cast<unsigned long long>(Needed));
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
    std::printf("\nincremental diff vs baseline %s: %llu cells reused, "
                "%llu re-run, %llu verdicts changed\n",
                DiffBaselineDir,
                static_cast<unsigned long long>(Diff.CellsReused),
                static_cast<unsigned long long>(Diff.CellsRerun),
                static_cast<unsigned long long>(Diff.CellsVerdictChanged));
    TextTable DiffTable({"cell", "incremental resume", "verdict", "report"});
    for (const CampaignCellDiff &Cell : Diff.Cells) {
      const char *Status = !Cell.InBaseline ? "absent"
                           : Cell.Reused    ? "reused"
                                            : "re-run";
      bool Comparable = Cell.BaselineComplete;
      DiffTable.addRowOf(cellLabel(Cell.Cell), Status,
                         !Comparable           ? "-"
                         : Cell.VerdictChanged ? "CHANGED"
                                               : "unchanged",
                         !Comparable          ? "-"
                         : Cell.ReportChanged ? "differs"
                                              : "identical");
    }
    DiffTable.printAligned(stdout);
    // Precision drift is a report change, not a verdict change: name the
    // cells whose measured gap moved (CI greps "0 precision deltas" on an
    // identical rerun).
    if (Precision)
      printPrecisionDeltas(Spec, Diff, Campaign, stdout);
  }
  std::printf("\n");

  bool AllHold = true;

  //===--------------------------------------------------------------------===//
  std::printf("[1] exhaustive soundness + optimality of every operator at "
              "width %u (%u jobs, optimality=%s)\n\n",
              Width, Sweep.NumThreads, OptimalityEarlyExit ? "first" : "full");
  TextTable OpTable({"op", "soundness", "optimality", "concrete evals",
                     "opt seconds"});
  for (const OpCells &Row : Sec1) {
    if (Row.Skipped) {
      OpTable.addRowOf(binaryOpName(Row.Op), "skipped (width not 2^k)", "-",
                       "-", "-");
      continue;
    }
    const CampaignCellResult &Sound = Campaign.Cells[Row.Soundness];
    const CampaignCellResult &Precise = Campaign.Cells[Row.Optimality];
    AllHold &= Sound.holds();
    OpTable.addRowOf(binaryOpName(Row.Op),
                     Sound.holds() ? "sound" : "UNSOUND",
                     Precise.holds() ? "optimal" : "not optimal",
                     Sound.Soundness.ConcreteChecked,
                     NoTiming ? std::string("-")
                              : formatString("%.3f", Precise.Seconds));
  }
  OpTable.printAligned(stdout);
  std::printf("paper: all ops sound; add/sub/bitwise also optimal; div/mod "
              "conservatively imprecise.\n\n");

  if (CompareOptimality) {
    // A/B the row scan against its off switch: rerun section 1's grids on
    // the scalar per-pair path (SimdMode::Off) and diff the reports,
    // witnesses included (they must be identical). An operator's soundness
    // and optimality cells share one pass with every other fold-reading
    // cell of their grid, so the rerun takes all of them: both sides then
    // book each cell the same share of the same passes, and each row times
    // the operator's two cells together.
    CampaignSpec ScalarSpec = Spec;
    ScalarSpec.Cells.clear();
    std::vector<size_t> ScalarIndex(Spec.Cells.size(), SIZE_MAX);
    for (size_t I = 0; I != Spec.Cells.size(); ++I)
      if (Spec.Cells[I].Width == Width &&
          Spec.Cells[I].Property != CampaignProperty::Monotonicity) {
        ScalarIndex[I] = ScalarSpec.Cells.size();
        ScalarSpec.Cells.push_back(Spec.Cells[I]);
      }
    SweepConfig Scalar = Sweep;
    Scalar.Simd = SimdMode::Off;
    CampaignResult ScalarRun = runCampaign(ScalarSpec, CampaignIO(), Scalar);
    if (!ScalarRun.ok()) {
      std::fprintf(stderr, "error: %s\n", ScalarRun.Error.c_str());
      return 1;
    }
    TextTable CmpTable({"op", "row scan s", "scalar s", "speedup",
                        "reports"});
    bool Identical = true;
    for (const OpCells &Row : Sec1) {
      if (Row.Skipped)
        continue;
      double RowSeconds = 0, ScalarSeconds = 0;
      bool Same = true;
      for (size_t I = 0; I != Spec.Cells.size(); ++I) {
        if (ScalarIndex[I] == SIZE_MAX || Spec.Cells[I].Op != Row.Op)
          continue;
        const CampaignCellResult &Main = Campaign.Cells[I];
        const CampaignCellResult &Off = ScalarRun.Cells[ScalarIndex[I]];
        Same &= Main.Soundness == Off.Soundness &&
                Main.Optimality == Off.Optimality &&
                Main.Precision == Off.Precision;
        if (I == Row.Soundness || I == Row.Optimality) {
          RowSeconds += Main.Seconds;
          ScalarSeconds += Off.Seconds;
        }
      }
      Identical &= Same;
      CmpTable.addRowOf(binaryOpName(Row.Op), formatString("%.3f", RowSeconds),
                        formatString("%.3f", ScalarSeconds),
                        formatString("%.2fx", RowSeconds > 0
                                                  ? ScalarSeconds / RowSeconds
                                                  : 0.0),
                        Same ? "identical" : "DIVERGED");
    }
    std::printf("soundness + optimality row scan vs the scalar per-pair "
                "path (--simd=off):\n");
    CmpTable.printAligned(stdout);
    std::printf("\n");
    AllHold &= Identical;
  }

  //===--------------------------------------------------------------------===//
  std::printf("[2] exhaustive soundness of each multiplication algorithm at "
              "width %u (%u jobs)\n\n",
              MulWidth, Sweep.NumThreads);
  TextTable MulTable({"algorithm", "soundness", "pairs", "concrete evals",
                      "seconds", "Mevals/s"});
  double ParallelSeconds = 0;
  uint64_t CampaignEvals = 0;
  for (size_t Cell : Sec2) {
    const CampaignCellResult &Row = Campaign.Cells[Cell];
    AllHold &= Row.holds();
    ParallelSeconds += Row.Seconds;
    CampaignEvals += Row.Soundness.ConcreteChecked;
    MulTable.addRowOf(mulAlgorithmName(Row.Cell.Mul),
                      Row.holds() ? "sound" : "UNSOUND",
                      Row.Soundness.PairsChecked,
                      Row.Soundness.ConcreteChecked,
                      NoTiming ? std::string("-")
                               : formatString("%.3f", Row.Seconds),
                      NoTiming ? std::string("-")
                               : formatString(
                                     "%.1f",
                                     Row.Seconds > 0
                                         ? Row.Soundness.ConcreteChecked /
                                               Row.Seconds / 1e6
                                         : 0.0));
  }
  MulTable.printAligned(stdout);
  // ConcreteChecked/sec over the whole campaign: the A/B figure of merit
  // for --simd=auto vs --simd=off (identical eval counts, different
  // wall-clock).
  if (!NoTiming)
    std::printf("campaign throughput: %.1f Mevals/s "
                "(%llu concrete evals in %.3f s; --simd=%s, %u jobs)\n",
                ParallelSeconds > 0 ? CampaignEvals / ParallelSeconds / 1e6
                                    : 0.0,
                static_cast<unsigned long long>(CampaignEvals),
                ParallelSeconds, simdModeName(Simd), Sweep.NumThreads);
  if (CompareSerial) {
    // The reference is the scalar serial checker whatever --simd selected,
    // so the speedup always reads "fast path vs the pre-batching
    // baseline".
    double SerialSeconds = timeSeconds([&] {
      for (size_t Cell : Sec2)
        AllHold &= checkSoundnessExhaustive(BinaryOp::Mul, MulWidth,
                                            Campaign.Cells[Cell].Cell.Mul)
                       .holds();
    });
    std::printf("scalar serial %.3f s vs parallel %.3f s with %u jobs "
                "(--simd=%s): speedup %.2fx\n",
                SerialSeconds, ParallelSeconds, Sweep.NumThreads,
                simdModeName(Simd),
                ParallelSeconds > 0 ? SerialSeconds / ParallelSeconds : 0.0);
  }
  std::printf("paper: kern_mul SMT-verified up to n = 8 (pass --mul-width 8 "
              "to rerun that exact instance; the widest run on record is "
              "--mul-width 9, all six muls in 29.7-33.2 s at --jobs 4 on "
              "a 4-core x86 host).\n\n");

  //===--------------------------------------------------------------------===//
  std::printf("[3] randomized 64-bit refutation campaign (%llu pairs/op)\n\n",
              static_cast<unsigned long long>(RandomPairs));
  TextTable RandTable({"op", "verdict", "concrete evals"});
  Xoshiro256 Rng(2022);
  for (BinaryOp Op : AllBinaryOps) {
    SoundnessReport Report =
        checkSoundnessRandom(Op, 64, RandomPairs, /*SamplesPerPair=*/8, Rng);
    AllHold &= Report.holds();
    RandTable.addRowOf(binaryOpName(Op),
                       Report.holds() ? "no counterexample" : "UNSOUND",
                       Report.ConcreteChecked);
  }
  RandTable.printAligned(stdout);
  std::printf("paper: SMT proves add/sub/bitwise at full 64-bit width in "
              "seconds; this randomized campaign is the offline "
              "falsification analogue.\n\n");

  //===--------------------------------------------------------------------===//
  std::printf("[4] §III-A observations\n\n");
  if (std::optional<AssociativityWitness> W =
          findAddNonAssociativityWitness(2)) {
    std::printf("  (1) tnum addition is NOT associative, e.g. P=%s Q=%s "
                "R=%s: (P+Q)+R = %s but P+(Q+R) = %s\n",
                W->P.toString(2).c_str(), W->Q.toString(2).c_str(),
                W->R.toString(2).c_str(), W->LeftFirst.toString(2).c_str(),
                W->RightFirst.toString(2).c_str());
  }
  if (std::optional<InverseWitness> W = findAddSubNonInverseWitness(2)) {
    std::printf("  (2) add/sub are NOT inverses, e.g. P=%s Q=%s: "
                "(P+Q)-Q = %s != P\n",
                W->P.toString(2).c_str(), W->Q.toString(2).c_str(),
                W->RoundTrip.toString(2).c_str());
  }
  for (unsigned SearchWidth = 2; SearchWidth <= 6; ++SearchWidth) {
    if (std::optional<CommutativityWitness> W =
            findMulNonCommutativityWitness(MulAlgorithm::Kern, SearchWidth)) {
      std::printf("  (3) kern_mul is NOT commutative (smallest witness at "
                  "width %u): P=%s Q=%s: P*Q = %s but Q*P = %s\n",
                  SearchWidth, W->P.toString(SearchWidth).c_str(),
                  W->Q.toString(SearchWidth).c_str(),
                  W->Forward.toString(SearchWidth).c_str(),
                  W->Backward.toString(SearchWidth).c_str());
      break;
    }
  }
  std::printf("\n");

  //===--------------------------------------------------------------------===//
  std::printf("[5] proof-lemma sweeps (exhaustive, width %u)\n\n", Width);
  TextTable LemmaTable({"lemma", "verdict"});
  for (const char *const *Name = AllLemmaNames; *Name; ++Name) {
    std::optional<std::string> Failure = sweepLemmaExhaustive(*Name, Width);
    AllHold &= !Failure.has_value();
    LemmaTable.addRowOf(*Name,
                        Failure ? Failure->c_str() : "holds everywhere");
  }
  LemmaTable.printAligned(stdout);

  //===--------------------------------------------------------------------===//
  std::printf("\n[6] monotonicity of the multiplication algorithms "
              "(extension beyond the paper)\n\n");
  TextTable MonoTable({"algorithm", "width", "verdict"});
  for (const MonoCell &Row : Sec6) {
    const CampaignCellResult &Cell = Campaign.Cells[Row.Cell];
    MonoTable.addRowOf(mulAlgorithmName(Row.Algorithm), Row.Width,
                       Cell.holds()
                           ? std::string("monotone")
                           : "NON-MONOTONE: " +
                                 Cell.Monotonicity.Failure->toString(
                                     Row.Width));
  }
  MonoTable.printAligned(stdout);
  std::printf("finding: the strength-reduced accumulators (P.v * Q.v) make "
              "kern_mul non-monotone at width 5 and our_mul at width 6; "
              "bitwise_mul_opt, a plain composition of monotone operators, "
              "stays monotone. Soundness is unaffected.\n");

  //===--------------------------------------------------------------------===//
  if (Precision) {
    std::printf("\n[7] precision atlas: measured optimality gap per operator "
                "(ops at width %u, mul algorithms at width %u)\n\n",
                Width, MulWidth);
    // Measurement, not verdict: a nonzero gap is the paper's documented
    // imprecision (div/mod/mul are conservatively imprecise), so this
    // table never flips AllHold or the exit code.
    TextTable PrecTable({"op", "width", "pairs", "optimal %", "mean gap",
                         "max gap", "worst pair", "seconds"});
    for (size_t Cell : Sec7) {
      const CampaignCellResult &Row = Campaign.Cells[Cell];
      const PrecisionReport &R = Row.Precision;
      std::string Op = binaryOpName(Row.Cell.Op);
      if (Row.Cell.Op == BinaryOp::Mul)
        Op += formatString("[%s]", mulAlgorithmName(Row.Cell.Mul));
      PrecTable.addRowOf(
          Op, Row.Cell.Width, R.PairsChecked,
          formatString("%.3f%%",
                       R.PairsChecked
                           ? 100.0 * static_cast<double>(R.optimalPairs()) /
                                 static_cast<double>(R.PairsChecked)
                           : 0.0),
          formatString("%.4f", R.meanGap()), R.MaxGap,
          R.Worst ? R.Worst->toString(Row.Cell.Width) : std::string("-"),
          NoTiming ? std::string("-")
                   : formatString("%.3f", Row.Seconds));
    }
    PrecTable.printAligned(stdout);
    std::printf("paper: add/sub/bitwise are optimal (gap 0 everywhere); "
                "div/mod and every mul algorithm trade precision for "
                "speed -- the gap histogram quantifies by how much.\n");
  }

  //===--------------------------------------------------------------------===//
  // BENCH_sweep.json: the campaign figures of merit for the CI perf gate.
  // Identity fields (width/mul_width/jobs/simd/algorithm totals) are exact
  // across machines; campaign_mevals_per_s is the machine-dependent perf
  // number ci/compare_bench.py floors with a generous ratio.
  //===--------------------------------------------------------------------===//
  if (JsonPath) {
    std::FILE *Json = std::fopen(JsonPath, "w");
    if (!Json) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(Json,
                 "{\n"
                 "  \"bench\": \"sweep_campaign\",\n"
                 "  \"build_info\": %s,\n"
                 "  \"width\": %u,\n"
                 "  \"mul_width\": %u,\n"
                 "  \"jobs\": %u,\n"
                 "  \"simd\": \"%s\",\n"
                 "  \"all_hold\": %s,\n"
                 "  \"campaign_evals\": %llu,\n"
                 "  \"campaign_seconds\": %.6f,\n"
                 "  \"campaign_mevals_per_s\": %.3f,\n"
                 "  \"algorithms\": [\n",
                 buildInfoJson().c_str(), Width, MulWidth, Sweep.NumThreads,
                 simdModeName(Simd), AllHold ? "true" : "false",
                 static_cast<unsigned long long>(CampaignEvals),
                 ParallelSeconds,
                 ParallelSeconds > 0 ? CampaignEvals / ParallelSeconds / 1e6
                                     : 0.0);
    for (size_t I = 0; I != Sec2.size(); ++I) {
      const CampaignCellResult &Row = Campaign.Cells[Sec2[I]];
      std::fprintf(
          Json,
          "    {\"name\": \"%s\", \"pairs\": %llu, \"evals\": %llu, "
          "\"seconds\": %.6f}%s\n",
          mulAlgorithmName(Row.Cell.Mul),
          static_cast<unsigned long long>(Row.Soundness.PairsChecked),
          static_cast<unsigned long long>(Row.Soundness.ConcreteChecked),
          Row.Seconds, I + 1 == Sec2.size() ? "" : ",");
    }
    if (UseMetrics)
      std::fprintf(Json, "  ],\n  \"metrics\": %s\n}\n",
                   MetricsRegistry::instance().snapshot().toJson().c_str());
    else
      std::fprintf(Json, "  ]\n}\n");
    std::fclose(Json);
    std::printf("\nwrote %s\n", JsonPath);
  }

  std::printf("\noverall: %s\n",
              AllHold ? "ALL CHECKS PASSED" : "SOME CHECKS FAILED");
  return AllHold ? 0 : 1;
}
