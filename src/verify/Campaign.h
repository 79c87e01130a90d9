//===- verify/Campaign.h - Checkpointed, sharded campaigns ------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign engine: the paper's exhaustive soundness / optimality /
/// monotonicity / precision verification restated as a declarative spec
/// that compiles
/// to a deterministic shard manifest, survives preemption through the
/// durable shard store (support/Checkpoint.h), splits across machines
/// (--shards=K / --shard-index=i), merges order-independently into
/// reports that are bit-identical to an uninterrupted serial run, and --
/// since the v2 store -- re-verifies *incrementally* across transfer-
/// function changes.
///
///  * A CampaignSpec is a list of cells (operator x mul-algorithm x width
///    x property). Each cell's row-major (P, Q) pair grid is cut into
///    contiguous shards of CampaignIO::ShardPairs indices; the manifest
///    (cell-major, ranges ascending) is a pure function of the spec and
///    ShardPairs, so every invocation -- any thread count, SIMD mode, or
///    chunk size -- agrees on shard identities. That is what lets shard
///    files from different machines and different runs merge.
///
///  * Every cell is content-fingerprinted (campaignCellFingerprint): a
///    digest of the cell coordinates plus the *implementation version* of
///    the transfer function it verifies (Oracle::opFingerprint over the
///    version tags in tnum/TnumOps.cpp and tnum/TnumMul.cpp). Shard files
///    carry their cell's fingerprint; on resume, shards whose fingerprint
///    still matches are served from the store and only invalidated cells
///    -- exactly the ones whose operator changed -- are GC'd and re-run.
///    Swapping one mul algorithm therefore re-verifies only the mul
///    cells, which is the paper's whole re-checking workflow (it was
///    written because the kernel's mul changed) made cheap.
///
///  * Shard results are normalized before they are recorded: a failing
///    shard stores the exact *serial-prefix* counters (what the serial
///    checker would have counted walking the shard's range and stopping
///    at the witness) instead of the parallel engine's scheduling-
///    dependent progress counters. Merging therefore reproduces the
///    serial checkers' reports bit-for-bit -- including the serial-order
///    first counterexample -- from ANY interleaving of shard
///    completions, partial resumes, multi-invocation splits, or
///    incremental re-runs.
///
///  * Optimality cells default to full scans (exact OptimalPairs totals,
///    matching checkOptimalityExhaustive with StopAtFirst = false). With
///    CampaignSpec::OptimalityEarlyExit the first witness-carrying shard
///    is terminal: later shards of that cell are skipped (and may stay
///    missing forever), and the merged report equals the serial
///    StopAtFirst = true report. Soundness and monotonicity cells are
///    always terminal-on-witness, mirroring their serial checkers.
///
/// Every property IS a driver (PropertyDriver below): a named,
/// payload-versioned scan/merge pair that runPropertyCampaign runs through
/// the manifest / checkpoint / merge / reuse machinery. The four built-in
/// properties are drivers inside runCampaign, and the Table I / Fig. 4
/// front ends plug their custom order-independent reductions in as drivers
/// of their own, which is how every sweep front end shares one resume
/// story AND one payload-versioning story. runCampaign runs the
/// soundness, optimality and precision cells of one (concrete op, width)
/// grid as one pass per shard range: they all read one fold, alpha of the
/// concrete operator (checkFoldRangeParallel), which it computes once.
///
/// runCampaign is the one batched entry point over whole grids: a one-shot
/// check is a spec of one or more cells run with a default (in-memory)
/// CampaignIO. The serial checkers stay the independent scalar oracle the
/// tests hold it to.
///
/// diffCampaignBaseline compares a finished run against an earlier
/// checkpoint directory -- the --diff-baseline report of which cells an
/// incremental resume would reuse, which it would re-run, and whether any
/// verdict changed. See docs/CAMPAIGN.md for the format and the
/// determinism contract.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_CAMPAIGN_H
#define TNUMS_VERIFY_CAMPAIGN_H

#include "support/Checkpoint.h"
#include "verify/ParallelSweep.h"

#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tnums {

/// The properties a campaign can verify (or, for Precision, measure) per
/// cell.
enum class CampaignProperty : uint8_t {
  Soundness,
  Optimality,
  Monotonicity,
  /// Not a verdict but a measurement: the per-pair distance to the
  /// optimal abstraction (PrecisionReport's 65-bucket gap histogram plus
  /// the worst-case witness). holds() means "measured optimal
  /// everywhere"; front ends treat it as data, not a failure.
  Precision,
};

/// Stable lower-case name ("soundness", ...).
const char *campaignPropertyName(CampaignProperty Property);

/// The payload-format version of a built-in property's shard
/// serialization. Mixed into every cell fingerprint
/// (propertyCellFingerprint), so bumping it when encodePropertyShard
/// changes format invalidates stored shards instead of merging bytes they
/// cannot parse -- the refusal-safety contract for stores that outlive
/// binaries.
unsigned campaignPropertyPayloadVersion(CampaignProperty Property);

/// One (operator, algorithm, width, property) cell of a campaign. Mul is
/// only meaningful for BinaryOp::Mul cells; keep it MulAlgorithm::Our
/// elsewhere so equal cells fingerprint equally.
struct CampaignCell {
  BinaryOp Op = BinaryOp::Add;
  MulAlgorithm Mul = MulAlgorithm::Our;
  unsigned Width = 4;
  CampaignProperty Property = CampaignProperty::Soundness;
};

/// A width-aware injectable transfer function: the cell's width is the
/// third argument, so one override can serve cells of several widths.
using OperatorOverrideFn =
    std::function<Tnum(const Tnum &, const Tnum &, unsigned)>;

/// A declarative campaign: which cells to verify and how optimality
/// cells terminate.
struct CampaignSpec {
  std::vector<CampaignCell> Cells;

  /// First-witness-only optimality (the ROADMAP's deterministic
  /// early-exit mode): an optimality shard that finds a witness is
  /// terminal for its cell, and the merged cell report equals the serial
  /// checker's StopAtFirst = true report.
  bool OptimalityEarlyExit = false;

  /// Injectable-operator hook: when set, the Soundness and Precision
  /// cells selected by OverrideOp / OverrideMul verify (or measure) this
  /// operator instead of applyAbstractBinary, so deliberately broken (or
  /// deliberately *changed*) transfer functions flow through the full
  /// shard/checkpoint/merge machinery. OverrideTag must then name the
  /// override -- it stands in for the (unhashable) function in the
  /// affected cells' content fingerprints, which is also how the
  /// incremental tests emulate "this operator's implementation changed":
  /// same spec shape, different cell fingerprint, so a resume
  /// invalidates and re-runs exactly the overridden cells (soundness
  /// re-verification AND precision re-measurement alike).
  OperatorOverrideFn OperatorOverride;
  std::string OverrideTag;

  /// Scope of OperatorOverride: unset applies it to every Soundness and
  /// Precision cell; OverrideOp restricts it to that operator's cells,
  /// and OverrideMul (meaningful with OverrideOp == Mul) to one named
  /// multiplication algorithm's.
  std::optional<BinaryOp> OverrideOp;
  std::optional<MulAlgorithm> OverrideMul;

  /// True when OperatorOverride replaces \p Cell's transfer function.
  bool overrideApplies(const CampaignCell &Cell) const;

  /// Appends the cross product of \p Properties over \p Widths for one
  /// (Op, Mul) -- the "algorithms x widths x properties" builder.
  void addGrid(BinaryOp Op, MulAlgorithm Mul,
               const std::vector<unsigned> &Widths,
               const std::vector<CampaignProperty> &Properties);
};

/// Sharding / checkpointing knobs, shared by every campaign front end.
struct CampaignIO {
  /// Directory for the durable shard store. Empty runs the campaign
  /// entirely in memory (no resume, single invocation).
  std::string CheckpointDir;

  /// Allow shards this invocation owns to be satisfied by files already
  /// in CheckpointDir. Off (the default) refuses a directory that
  /// already holds owned shards, so stale state is never reused by
  /// accident. Shards owned by OTHER invocations of a --shards split are
  /// always readable at merge time -- that is the farming mode's data
  /// path, not a resume. Incremental re-verification IS a resume: pass
  /// --resume after a transfer-function change and only the invalidated
  /// cells re-run.
  bool Resume = false;

  /// Split the manifest across \p Shards invocations; this invocation
  /// executes the shards with (manifest index % Shards) == ShardIndex.
  /// Requires a CheckpointDir when Shards > 1 (results meet on disk).
  unsigned Shards = 1;
  unsigned ShardIndex = 0;

  /// Pair indices per shard before the final short shard. The manifest
  /// -- and therefore the campaign fingerprint -- depends on this value
  /// and nothing else about scheduling, so a campaign may be resumed
  /// with a different thread count, chunk size, or SIMD mode.
  uint64_t ShardPairs = uint64_t(1) << 20;

  /// Stop executing after this many shards have been RUN this invocation
  /// (0 = unlimited). Time-boxes an invocation at a shard boundary; the
  /// kill-and-resume tests drive it to drop checkpoints mid-flight.
  uint64_t MaxShardsThisRun = 0;
};

/// One cell's merged outcome. Exactly the report field matching
/// Cell.Property is meaningful.
struct CampaignCellResult {
  CampaignCell Cell;
  SoundnessReport Soundness;
  OptimalityReport Optimality;
  MonotonicityReport Monotonicity;
  PrecisionReport Precision;

  /// All shards this cell needs were available and merged. (An early-exit
  /// optimality cell is complete at its terminal shard.)
  bool Complete = false;
  uint64_t ShardsTotal = 0;
  uint64_t ShardsMerged = 0;
  /// Executed-cell accounting: shards of THIS cell executed by this
  /// invocation, served from the store, found stale (op-fingerprint
  /// mismatch, GC'd and re-run), and skipped past an early-exit terminal
  /// shard. A cell with ShardsRun == 0 and ShardsResumed == ShardsMerged
  /// was reused wholesale; a cell with ShardsInvalidated > 0 is one an
  /// operator change forced back through the engine.
  uint64_t ShardsRun = 0;
  uint64_t ShardsResumed = 0;
  uint64_t ShardsInvalidated = 0;
  uint64_t ShardsSkipped = 0;
  /// Compute seconds summed over merged shards (informational: it is the
  /// one merged quantity that is NOT deterministic). A shard run in a pass
  /// of n shards carries 1/n of the pass's compute time.
  double Seconds = 0;

  /// Property-specific "no counterexample" (meaningful when Complete).
  bool holds() const;
};

/// A built-in property shard's payload body (docs/CAMPAIGN.md): the report
/// for \p Shard.Cell.Property and \p Shard.Seconds.
std::string encodePropertyShard(const CampaignCellResult &Shard);

/// Parses \p Body into a fresh \p Shard. False unless encodePropertyShard
/// reproduces \p Body byte for byte (support/Record.h), seconds is finite
/// and not negative, and every gap is below PrecisionGapBuckets.
bool parsePropertyShard(std::string_view Body, CampaignCellResult &Shard);

/// One line of a witness corpus ("tnums-witness-corpus v1", written by
/// bench/precision_atlas and replayed by bench/ablation_mul): a precision
/// cell's worst-case pair, "pair <op> <algorithm> <width> <P.v> <P.m>
/// <Q.v> <Q.m> <gap>" with the tnum words in hex without leading zeros.
struct WitnessPair {
  BinaryOp Op = BinaryOp::Add;
  MulAlgorithm Mul = MulAlgorithm::Our;
  unsigned Width = 0;
  Tnum P;
  Tnum Q;
  unsigned Gap = 0;

  bool operator==(const WitnessPair &) const = default;
};

/// The corpus text: the header line, then one line per pair.
std::string encodeWitnessCorpus(const std::vector<WitnessPair> &Pairs);

/// Parses a witness corpus; nullopt with a "<name>:<line>: why" diagnostic
/// unless encodeWitnessCorpus writes back every line, whose names are in
/// the rosters, width is 1..64, and tnums are well formed, fit the width
/// and lose at most width bits.
std::optional<std::vector<WitnessPair>>
parseWitnessCorpus(std::string_view Text, const std::string &Name,
                   std::string &Error);

/// Outcome of one runCampaign invocation.
struct CampaignResult {
  /// Every cell merged to completion. False is normal for a partial
  /// --shards / MaxShardsThisRun invocation: the missing shards live in
  /// other invocations, and a later resume merges them.
  bool Complete = false;
  std::vector<CampaignCellResult> Cells; ///< 1:1 with CampaignSpec::Cells.

  uint64_t ShardsTotal = 0;   ///< Manifest size.
  uint64_t ShardsRun = 0;     ///< Executed by this invocation.
  uint64_t ShardsResumed = 0; ///< Owned shards satisfied from checkpoint.
  uint64_t ShardsSkipped = 0; ///< Skipped past a terminal (early-exit) shard.
  /// Owned shards whose stored cell fingerprint no longer matched the
  /// spec (the operator implementation changed): GC'd and re-run.
  uint64_t ShardsInvalidated = 0;

  /// Non-empty on hard failure (bad IO config, checkpoint mismatch, I/O
  /// error); Cells are then meaningless.
  std::string Error;

  bool ok() const { return Error.empty(); }
};

class ArgParser;

/// Consumes one of the shared campaign flags at \p Args' cursor into
/// \p IO -- --checkpoint-dir D, --resume, --shards K, --shard-index I,
/// --shard-pairs N, --max-shards N -- returning true when it did. The
/// one place the flag names and bounds live; every campaign front end
/// calls this once per parse-loop iteration like the other match*
/// helpers (support/ArgParse.h).
bool matchCampaignArgs(ArgParser &Args, CampaignIO &IO);

/// The usage-string fragment matching matchCampaignArgs, so the front
/// ends' help text cannot drift from the parser.
inline constexpr const char *CampaignArgsUsage =
    "[--checkpoint-dir D] [--resume] [--shards K] [--shard-index I] "
    "[--shard-pairs N] [--max-shards N]";

/// The spec SHAPE fingerprint guarding checkpoint directories: a digest
/// of the format version, every cell's coordinates, the early-exit mode,
/// and ShardPairs. Deliberately excluded: scheduling knobs (threads,
/// chunk size, SIMD mode -- reports are bit-identical across them) AND
/// the operator implementation versions / override tag -- those key
/// individual CELLS (campaignCellFingerprint), not the directory, so that
/// a transfer-function change invalidates cells instead of the whole
/// store.
uint64_t campaignFingerprint(const CampaignSpec &Spec, const CampaignIO &IO);

/// The per-cell content fingerprint: cell coordinates plus the
/// implementation version of the transfer function the cell verifies
/// (opFingerprint, or Spec.OverrideTag where the override applies).
/// Stored in every shard file; a mismatch on resume means the operator
/// changed and the shard must be re-run.
uint64_t campaignCellFingerprint(const CampaignSpec &Spec,
                                 const CampaignCell &Cell);

/// Runs (its slice of) the campaign, checkpointing each completed shard,
/// then merges every available shard in manifest order. With a default
/// CampaignIO the whole campaign runs in memory in one invocation.
CampaignResult runCampaign(const CampaignSpec &Spec, const CampaignIO &IO,
                           const SweepConfig &Config);

//===----------------------------------------------------------------------===//
// Baseline diffing -- the --diff-baseline report
//===----------------------------------------------------------------------===//

/// One cell of a diffCampaignBaseline report.
struct CampaignCellDiff {
  CampaignCell Cell;
  /// The baseline directory held at least one shard of this cell.
  bool InBaseline = false;
  /// The baseline's stored cell fingerprint (of its first present shard).
  uint64_t BaselineFingerprint = 0;
  /// The baseline fingerprint matches the current spec's: an incremental
  /// resume against this baseline would serve the cell from the store.
  bool Reused = false;
  /// Every shard the cell needs is present and fingerprint-consistent in
  /// the baseline, so a baseline verdict exists to compare against.
  bool BaselineComplete = false;
  /// The baseline's merged report for this cell (meaningful when
  /// BaselineComplete).
  CampaignCellResult Baseline;
  /// holds() flipped between the baseline merge and \p Current.
  bool VerdictChanged = false;
  /// Any merged counter or witness differs (a superset of VerdictChanged;
  /// e.g. an optimality cell may stay non-optimal with a different
  /// OptimalPairs count).
  bool ReportChanged = false;
};

/// Outcome of diffCampaignBaseline.
struct CampaignDiffResult {
  std::vector<CampaignCellDiff> Cells; ///< 1:1 with the spec's cells.
  uint64_t CellsReused = 0;
  uint64_t CellsRerun = 0; ///< In baseline but fingerprint-stale.
  uint64_t CellsVerdictChanged = 0;
  std::string Error;
  bool ok() const { return Error.empty(); }
};

/// Compares \p Current -- a completed runCampaign result for \p Spec /
/// \p IO -- against the shard store in \p BaselineDir written by an
/// earlier run of the same campaign SHAPE (same cells and ShardPairs;
/// anything else is a hard error). Reports, per cell, whether an
/// incremental resume would reuse or re-run it (op-fingerprint match)
/// and whether the merged verdict/report changed -- the workflow for
/// "the kernel swapped its mul algorithm; what did that change?".
CampaignDiffResult diffCampaignBaseline(const CampaignSpec &Spec,
                                        const CampaignIO &IO,
                                        const std::string &BaselineDir,
                                        const CampaignResult &Current);

/// Renders \p Diff's precision drift -- one line per Precision cell of
/// \p Spec whose merged measurement differs from the baseline's
/// ("precision delta <cell>: sum_gap A -> B, max_gap C -> D"), then the
/// "N precision deltas vs baseline" summary -- and returns the delta
/// count. Shared by every front end with a --diff-baseline flag so the
/// wording (and what counts as a delta: ReportChanged on a cell both
/// sides merged to completion) cannot drift between benches. Prints only
/// the summary when the spec has no Precision cells with a comparable
/// baseline verdict.
uint64_t printPrecisionDeltas(const CampaignSpec &Spec,
                              const CampaignDiffResult &Diff,
                              const CampaignResult &Current, std::FILE *Out);

//===----------------------------------------------------------------------===//
// Property drivers -- the extensible registry under runCampaign. A
// property is a driver: scan a shard range into payload bytes, merge
// payloads order-independently, version the payload format. The four
// built-in properties are expressed through it inside runCampaign, and
// front ends whose per-pair work is not one of them (the Table I /
// Fig. 4 walks) plug their own drivers into runPropertyCampaign.
//===----------------------------------------------------------------------===//

/// Aggregate outcome of runPropertyCampaign.
struct ShardDriveResult {
  bool Complete = false;
  uint64_t ShardsTotal = 0;
  uint64_t ShardsRun = 0;
  uint64_t ShardsResumed = 0;
  uint64_t ShardsSkipped = 0;
  uint64_t ShardsInvalidated = 0;
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// Per-cell shard accounting runPropertyCampaign can report back.
struct CellShardCounts {
  uint64_t Run = 0;
  uint64_t Resumed = 0;
  uint64_t Invalidated = 0;
  uint64_t Skipped = 0;
};

/// Prints the one-line shard-progress banner every campaign front end
/// emits ("campaign: N shards total, ..."), so the wording cannot drift
/// between benches. The skipped and invalidated counts only appear when
/// nonzero (skips need an early-exit property campaign; invalidations
/// need an operator change since the checkpoint was written).
void printCampaignStatus(uint64_t ShardsTotal, uint64_t ShardsRun,
                         uint64_t ShardsResumed, uint64_t ShardsSkipped,
                         uint64_t ShardsInvalidated,
                         const std::string &CheckpointDir);

/// One shard handed to PropertyDriver::runShards: the cell and pair range
/// in, the payload body and the terminal flag out.
struct ShardJob {
  size_t Cell = 0;
  uint64_t Begin = 0;
  uint64_t End = 0;
  std::string Payload;
  bool Terminal = false;
};

/// One campaign property as the engine sees it. A driver owns its
/// payload format end to end: runShard serializes a deterministic BODY,
/// mergeShard folds bodies back in manifest order, and payloadVersion
/// names the format. The engine wraps every body in a
/// "payload <name> <version>" header line: the header is verified and
/// stripped before mergeShard ever sees the bytes, so a store whose
/// payload format predates the binary is refused with a migration
/// message instead of being misparsed -- defense in depth behind the
/// fingerprint-level invalidation that a payloadVersion bump triggers.
class PropertyDriver {
public:
  virtual ~PropertyDriver() = default;

  /// Stable lower-case property name; stamped into every payload header
  /// and mixed into every cell fingerprint.
  virtual const char *name() const = 0;

  /// Payload-format version; bump on ANY serialization change so stored
  /// shards invalidate instead of misparse.
  virtual unsigned payloadVersion() const = 0;

  /// Scans pair range [\p Begin, \p End) of cell \p Cell into a
  /// deterministic payload body. Set \p Terminal to end the cell at this
  /// shard (early exit); later shards of the cell are then skipped.
  virtual void runShard(size_t Cell, uint64_t Begin, uint64_t End,
                        std::string &Payload, bool &Terminal) = 0;

  /// Runs one pass: shards of cells that share a Pass key
  /// (PropertyCampaignCell), all over the same pair range. The engine
  /// calls it on the first job's driver with every job of the pass; the
  /// default runs each job through runShard, which is right when the pass
  /// has one cell. A driver that shares work across a pass writes each
  /// job's payload as runShard would, and books each job an even share of
  /// the pass's compute time.
  virtual void runShards(std::span<ShardJob> Jobs) {
    for (ShardJob &Job : Jobs)
      runShard(Job.Cell, Job.Begin, Job.End, Job.Payload, Job.Terminal);
  }

  /// Folds one payload body into the driver's accumulators. Called in
  /// manifest order (cell-major, ranges ascending), never past a
  /// terminal shard. Return false (with \p Error set) on a malformed
  /// body; the merge fold must be order-independent across shard
  /// *producers* (any invocation may have written any shard).
  virtual bool mergeShard(size_t Cell, uint64_t Begin, uint64_t End,
                          const std::string &Payload,
                          std::string &Error) = 0;
};

/// One cell of a property campaign: a pair-range size, the content
/// fingerprint of whatever implementation the cell measures (operator
/// version tags, override tag, front-end format tag...), and the driver
/// that scans and merges it. The engine derives the cell's stored
/// fingerprint from all three (propertyCellFingerprint), so a change to
/// the implementation OR the payload format invalidates stored shards.
struct PropertyCampaignCell {
  uint64_t TotalPairs = 0;
  uint64_t ContentFingerprint = 0;
  PropertyDriver *Driver = nullptr;
  /// Cells with the same nonzero Pass run as one pass per shard range:
  /// the engine hands each range's runnable shards of all of them to one
  /// runShards call. They must have equal TotalPairs (so equal shard
  /// ranges) and drivers that run each other's jobs. 0 runs alone.
  uint64_t Pass = 0;
};

/// The fingerprint actually stored in a property campaign's shard files:
/// the cell's content fingerprint extended by the driver's property name
/// and payload-format version. This is what makes stores refusal-safe
/// across format changes -- bumping a driver's payloadVersion changes
/// every one of its cells' fingerprints, so resumes invalidate and
/// re-run them instead of parsing bytes written by an older format.
uint64_t propertyCellFingerprint(uint64_t ContentFingerprint,
                                 const char *PropertyName,
                                 unsigned PayloadVersion);

/// Drives a property campaign: shards each cell's [0, TotalPairs) range
/// per \p IO, executes this invocation's slice through the cells' drivers
/// (stamping the payload header, persisting to IO.CheckpointDir when set),
/// then merges every available shard in manifest order through the
/// drivers' mergeShard (verifying and stripping the header first).
/// Execution walks the manifest, except that a pass's shards of one range
/// run together when the walk reaches its first cell's shard: each joins
/// if this invocation owns it, its cell has not ended at an earlier
/// terminal shard, the store holds no current copy, and it fits the
/// MaxShardsThisRun budget. Only the execution order depends on passes;
/// shard ids, payloads and the merge do not.
/// \p Fingerprint guards the store directory (campaignFingerprint for
/// runCampaign's specs). Stored shards are served only while their cell
/// fingerprint (propertyCellFingerprint) still matches; stale owned shards
/// are GC'd and re-executed. \p CellComplete (optional, resized to the
/// cell count) reports which cells merged to completion; \p CellCounts
/// (optional) the per-cell execution accounting. This is the one sharding
/// layer every front end shares -- runCampaign's four built-in properties
/// and the Table I / Fig. 4 reductions run through the same code path.
ShardDriveResult
runPropertyCampaign(const std::vector<PropertyCampaignCell> &Cells,
                    uint64_t Fingerprint, const CampaignIO &IO,
                    std::vector<bool> *CellComplete = nullptr,
                    std::vector<CellShardCounts> *CellCounts = nullptr);

} // namespace tnums

#endif // TNUMS_VERIFY_CAMPAIGN_H
