//===- verify/Campaign.cpp - Checkpointed, sharded campaigns --------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/Campaign.h"

#include "support/ArgParse.h"
#include "support/Metrics.h"
#include "support/Record.h"
#include "support/Table.h"
#include "support/Trace.h"
#include "tnum/TnumEnum.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>

#include <sys/stat.h>

using namespace tnums;

const char *tnums::campaignPropertyName(CampaignProperty Property) {
  switch (Property) {
  case CampaignProperty::Soundness:
    return "soundness";
  case CampaignProperty::Optimality:
    return "optimality";
  case CampaignProperty::Monotonicity:
    return "monotonicity";
  case CampaignProperty::Precision:
    return "precision";
  }
  return "?";
}

unsigned tnums::campaignPropertyPayloadVersion(CampaignProperty Property) {
  // Bump a property's version whenever encodePropertyShard changes its
  // format; the fingerprint mix then invalidates stored shards of that
  // property and nothing else.
  switch (Property) {
  case CampaignProperty::Soundness:
  case CampaignProperty::Optimality:
  case CampaignProperty::Monotonicity:
  case CampaignProperty::Precision:
    return 1;
  }
  return 0;
}

void CampaignSpec::addGrid(BinaryOp Op, MulAlgorithm Mul,
                           const std::vector<unsigned> &Widths,
                           const std::vector<CampaignProperty> &Properties) {
  for (unsigned Width : Widths)
    for (CampaignProperty Property : Properties)
      Cells.push_back(CampaignCell{Op, Mul, Width, Property});
}

bool CampaignSpec::overrideApplies(const CampaignCell &Cell) const {
  // The override stands in for the transfer function wherever the cell
  // EXECUTES it per pair: soundness verification and precision
  // measurement. Optimality/monotonicity cells always check the real
  // operator (their semantics are defined against applyAbstractBinary).
  if (!OperatorOverride || (Cell.Property != CampaignProperty::Soundness &&
                            Cell.Property != CampaignProperty::Precision))
    return false;
  if (OverrideOp && Cell.Op != *OverrideOp)
    return false;
  if (OverrideMul && (Cell.Op != BinaryOp::Mul || Cell.Mul != *OverrideMul))
    return false;
  return true;
}

bool CampaignCellResult::holds() const {
  switch (Cell.Property) {
  case CampaignProperty::Soundness:
    return Soundness.holds();
  case CampaignProperty::Optimality:
    return Optimality.isOptimalEverywhere();
  case CampaignProperty::Monotonicity:
    return Monotonicity.holds();
  case CampaignProperty::Precision:
    // "Measured optimal everywhere" -- informational for a measurement
    // property (front ends report precision cells, they do not fail on
    // them), but exactly what diff-baseline verdict flips should track.
    return Precision.MaxGap == 0;
  }
  return false;
}

void tnums::printCampaignStatus(uint64_t ShardsTotal, uint64_t ShardsRun,
                                uint64_t ShardsResumed,
                                uint64_t ShardsSkipped,
                                uint64_t ShardsInvalidated,
                                const std::string &CheckpointDir) {
  std::printf("campaign: %llu shards total, %llu run here, %llu resumed "
              "from checkpoint",
              static_cast<unsigned long long>(ShardsTotal),
              static_cast<unsigned long long>(ShardsRun),
              static_cast<unsigned long long>(ShardsResumed));
  if (ShardsSkipped)
    std::printf(", %llu skipped past early-exit witnesses",
                static_cast<unsigned long long>(ShardsSkipped));
  if (ShardsInvalidated)
    std::printf(", %llu invalidated by operator changes",
                static_cast<unsigned long long>(ShardsInvalidated));
  if (!CheckpointDir.empty())
    std::printf("; checkpoint dir %s", CheckpointDir.c_str());
  std::printf("\n");
}

bool tnums::matchCampaignArgs(ArgParser &Args, CampaignIO &IO) {
  const char *Dir = nullptr;
  if (Args.matchString("--checkpoint-dir", Dir)) {
    if (Dir) // Unset when the value was missing (the parser latched it).
      IO.CheckpointDir = Dir;
    return true;
  }
  if (Args.matchFlag("--resume")) {
    IO.Resume = true;
    return true;
  }
  if (Args.matchUnsigned("--shards", 1, 4096, IO.Shards))
    return true;
  if (Args.matchUnsigned("--shard-index", 0, 4095, IO.ShardIndex))
    return true;
  if (Args.matchU64("--shard-pairs", 1, UINT64_MAX, IO.ShardPairs))
    return true;
  // Time-box the invocation: stop after N shards (resume later). Also how
  // CI simulates preemption at a shard boundary.
  if (Args.matchU64("--max-shards", 1, UINT64_MAX, IO.MaxShardsThisRun))
    return true;
  return false;
}

uint64_t tnums::campaignFingerprint(const CampaignSpec &Spec,
                                    const CampaignIO &IO) {
  // The SHAPE only: operator implementation versions and the override tag
  // key individual cells (campaignCellFingerprint), never the directory --
  // an algorithm change must invalidate cells, not refuse the store.
  Fnv1a Hash;
  Hash.mixString("tnums-campaign v2");
  Hash.mixU64(Spec.Cells.size());
  for (const CampaignCell &Cell : Spec.Cells) {
    Hash.mixU64(static_cast<uint64_t>(Cell.Op));
    Hash.mixU64(static_cast<uint64_t>(Cell.Mul));
    Hash.mixU64(Cell.Width);
    Hash.mixU64(static_cast<uint64_t>(Cell.Property));
  }
  Hash.mixU64(Spec.OptimalityEarlyExit ? 1 : 0);
  Hash.mixU64(IO.ShardPairs);
  return Hash.digest();
}

namespace {

/// The implementation-content half of a built-in cell's fingerprint: the
/// coordinates plus the version of the transfer function under test.
/// propertyCellFingerprint extends it with the property name and payload
/// version to form what shard files actually store.
uint64_t cellContentFingerprint(const CampaignSpec &Spec,
                                const CampaignCell &Cell) {
  Fnv1a Hash;
  Hash.mixString("tnums-campaign-cell v3");
  Hash.mixU64(static_cast<uint64_t>(Cell.Op));
  Hash.mixU64(static_cast<uint64_t>(Cell.Mul));
  Hash.mixU64(Cell.Width);
  Hash.mixU64(static_cast<uint64_t>(Cell.Property));
  if (Spec.overrideApplies(Cell)) {
    // The override IS the implementation under test; its tag stands in
    // for the unhashable function.
    Hash.mixString("override");
    Hash.mixString(Spec.OverrideTag);
  } else {
    Hash.mixU64(opFingerprint(Cell.Op, Cell.Mul));
  }
  return Hash.digest();
}

} // namespace

uint64_t tnums::propertyCellFingerprint(uint64_t ContentFingerprint,
                                        const char *PropertyName,
                                        unsigned PayloadVersion) {
  Fnv1a Hash;
  Hash.mixString("tnums-property-cell v1");
  Hash.mixU64(ContentFingerprint);
  Hash.mixString(PropertyName);
  Hash.mixU64(PayloadVersion);
  return Hash.digest();
}

uint64_t tnums::campaignCellFingerprint(const CampaignSpec &Spec,
                                        const CampaignCell &Cell) {
  return propertyCellFingerprint(
      cellContentFingerprint(Spec, Cell),
      campaignPropertyName(Cell.Property),
      campaignPropertyPayloadVersion(Cell.Property));
}

//===----------------------------------------------------------------------===//
// The shard manifest
//===----------------------------------------------------------------------===//

namespace {

/// One manifest entry: a contiguous pair-index range of one cell.
struct ShardRef {
  size_t Cell;
  uint64_t Begin;
  uint64_t End;
};

/// The deterministic manifest: cell-major, ranges ascending. A pure
/// function of the cell sizes and ShardPairs -- every invocation of a
/// campaign computes the identical list, which is what shard files are
/// keyed by.
std::vector<ShardRef> buildManifest(const std::vector<uint64_t> &CellPairs,
                                    uint64_t ShardPairs) {
  std::vector<ShardRef> Manifest;
  for (size_t Cell = 0; Cell != CellPairs.size(); ++Cell) {
    uint64_t Total = CellPairs[Cell];
    if (Total == 0) {
      // A degenerate empty cell still occupies one manifest slot so the
      // merge sees it and can mark it complete.
      Manifest.push_back(ShardRef{Cell, 0, 0});
      continue;
    }
    for (uint64_t Begin = 0; Begin < Total;) {
      uint64_t End = Total - Begin > ShardPairs ? Begin + ShardPairs : Total;
      Manifest.push_back(ShardRef{Cell, Begin, End});
      Begin = End;
    }
  }
  return Manifest;
}

} // namespace

//===----------------------------------------------------------------------===//
// Property shard payloads
//
// Line-oriented key/value text (hex for tnum words). Every field that
// the merge folds into a report is a deterministic function of the
// shard's range; only the informational "seconds" field varies between
// writers, which is why it is excluded from every bit-identity claim.
//===----------------------------------------------------------------------===//

namespace {

/// The engine-stamped first line of every property payload, naming the
/// driver and its payload-format version. The header travels with the
/// shard so a store can be refused BY CONTENT, independently of the
/// fingerprint-level invalidation a version bump triggers.
std::string payloadHeaderLine(const char *Name, unsigned Version) {
  return formatString("payload %s %u\n", Name, Version);
}

/// Verifies and strips \p Payload's header line, leaving the body the
/// driver's mergeShard parses. A mismatch is the migration refusal: the
/// stored bytes were written by a different property or payload version
/// and must not be merged.
bool stripPayloadHeader(const std::string &Payload, const char *Name,
                        unsigned Version, size_t CellIndex, std::string &Body,
                        std::string &Error) {
  std::string_view Text = Payload;
  const std::string Header(takeLine(Text));
  const std::string Expected = formatString("payload %s %u", Name, Version);
  if (Header != Expected) {
    Error = formatString(
        "cell %zu shard payload declares format \"%s\" but this binary "
        "expects \"%s\"; the store was written by an incompatible payload "
        "version -- re-run the campaign against a fresh checkpoint "
        "directory to migrate it",
        CellIndex, Header.c_str(), Expected.c_str());
    return false;
  }
  Body = Text;
  return true;
}

/// A witness line: the words as 16-digit hex, a tnum as its value and mask.
std::string witnessLine(std::initializer_list<uint64_t> Words) {
  std::string Line = "witness";
  for (uint64_t Word : Words)
    Line += formatString(" %016" PRIx64, Word);
  return Line + "\n";
}

} // namespace

std::string tnums::encodePropertyShard(const CampaignCellResult &Shard) {
  std::string Payload;
  switch (Shard.Cell.Property) {
  case CampaignProperty::Soundness: {
    const SoundnessReport &R = Shard.Soundness;
    Payload = formatString("pairs %" PRIu64 "\nconcrete %" PRIu64
                           "\nseconds %.9g\n",
                           R.PairsChecked, R.ConcreteChecked, Shard.Seconds);
    if (const std::optional<SoundnessCounterexample> &W = R.Failure)
      Payload += witnessLine({W->P.value(), W->P.mask(), W->Q.value(),
                              W->Q.mask(), W->X, W->Y, W->Z, W->R.value(),
                              W->R.mask()});
    break;
  }
  case CampaignProperty::Optimality: {
    const OptimalityReport &R = Shard.Optimality;
    Payload = formatString("pairs %" PRIu64 "\noptimal %" PRIu64
                           "\nseconds %.9g\n",
                           R.PairsChecked, R.OptimalPairs, Shard.Seconds);
    if (const std::optional<OptimalityCounterexample> &W = R.Failure)
      Payload += witnessLine({W->P.value(), W->P.mask(), W->Q.value(),
                              W->Q.mask(), W->Actual.value(),
                              W->Actual.mask(), W->Optimal.value(),
                              W->Optimal.mask()});
    break;
  }
  case CampaignProperty::Monotonicity: {
    const MonotonicityReport &R = Shard.Monotonicity;
    Payload = formatString("quadruples %" PRIu64 "\nseconds %.9g\n",
                           R.QuadruplesChecked, Shard.Seconds);
    if (const std::optional<MonotonicityCounterexample> &W = R.Failure)
      Payload += witnessLine({W->P1.value(), W->P1.mask(), W->Q1.value(),
                              W->Q1.mask(), W->P2.value(), W->P2.mask(),
                              W->Q2.value(), W->Q2.mask(), W->R1.value(),
                              W->R1.mask(), W->R2.value(), W->R2.mask()});
    break;
  }
  case CampaignProperty::Precision: {
    const PrecisionReport &R = Shard.Precision;
    Payload = formatString("pairs %" PRIu64 "\nsumgap %" PRIu64
                           "\nmaxgap %u\nseconds %.9g\n",
                           R.PairsChecked, R.SumGap, R.MaxGap, Shard.Seconds);
    // Sparse histogram, one line per nonzero bucket.
    for (unsigned G = 0; G != PrecisionGapBuckets; ++G)
      if (R.Buckets[G])
        Payload += formatString("hist%u %" PRIu64 "\n", G, R.Buckets[G]);
    if (const std::optional<PrecisionWitness> &W = R.Worst)
      Payload += witnessLine({W->P.value(), W->P.mask(), W->Q.value(),
                              W->Q.mask(), W->Actual.value(),
                              W->Actual.mask(), W->Optimal.value(),
                              W->Optimal.mask()});
    break;
  }
  }
  return Payload;
}

bool tnums::parsePropertyShard(std::string_view Body,
                               CampaignCellResult &Shard) {
  // Every line is read by position; the round trip at the end checks the
  // keys, the spelling and that nothing is missing or left over.
  std::string_view Text = Body;
  PrecisionReport &Precision = Shard.Precision;
  bool Counted = false;
  switch (Shard.Cell.Property) {
  case CampaignProperty::Soundness:
    Counted = takeNumber(Text, Shard.Soundness.PairsChecked) &&
              takeNumber(Text, Shard.Soundness.ConcreteChecked);
    break;
  case CampaignProperty::Optimality:
    Counted = takeNumber(Text, Shard.Optimality.PairsChecked) &&
              takeNumber(Text, Shard.Optimality.OptimalPairs);
    break;
  case CampaignProperty::Monotonicity:
    Counted = takeNumber(Text, Shard.Monotonicity.QuadruplesChecked);
    break;
  case CampaignProperty::Precision:
    Counted = takeNumber(Text, Precision.PairsChecked) &&
              takeNumber(Text, Precision.SumGap) &&
              takeNumber(Text, Precision.MaxGap) &&
              Precision.MaxGap < PrecisionGapBuckets;
    break;
  }
  if (!Counted || !takeNumber(Text, Shard.Seconds))
    return false;
  while (Text.starts_with("hist")) { // "hist<gap> <count>"
    std::string_view Line = takeLine(Text).substr(4);
    std::optional<unsigned> Gap =
        parseNumber<unsigned>(Line.substr(0, Line.find(' ')));
    std::optional<uint64_t> Count = parseNumber<uint64_t>(takeField(Line));
    if (!Gap || *Gap >= PrecisionGapBuckets || !Count)
      return false;
    Precision.Buckets[*Gap] = *Count;
  }
  std::vector<uint64_t> W; // The witness line's hex words, if any.
  if (!Text.empty())
    for (std::string_view Word : splitWords(takeField(Text))) {
      std::optional<uint64_t> Value = parseNumber<uint64_t>(Word, 16);
      if (!Value)
        return false;
      W.push_back(*Value);
    }
  auto T = [&](size_t I) { return Tnum(W[I], W[I + 1]); };
  switch (Shard.Cell.Property) {
  case CampaignProperty::Soundness:
    if (W.size() == 9)
      Shard.Soundness.Failure =
          SoundnessCounterexample{T(0), T(2), W[4], W[5], W[6], T(7)};
    break;
  case CampaignProperty::Optimality:
    if (W.size() == 8)
      Shard.Optimality.Failure =
          OptimalityCounterexample{T(0), T(2), T(4), T(6)};
    break;
  case CampaignProperty::Monotonicity:
    if (W.size() == 12)
      Shard.Monotonicity.Failure =
          MonotonicityCounterexample{T(0), T(2), T(4), T(6), T(8), T(10)};
    break;
  case CampaignProperty::Precision:
    // The worst pair's gap IS maxgap, so it is not stored twice.
    if (W.size() == 8)
      Precision.Worst =
          PrecisionWitness{T(0), T(2), T(4), T(6), Precision.MaxGap};
    break;
  }
  // "%.9g" writes nan and -5 back as they were read, so the round trip
  // cannot refuse them.
  return std::isfinite(Shard.Seconds) && !std::signbit(Shard.Seconds) &&
         encodePropertyShard(Shard) == Body;
}

namespace {

constexpr const char *WitnessCorpusHeader = "tnums-witness-corpus v1\n";

std::string witnessCorpusLine(const WitnessPair &W) {
  return formatString("pair %s %s %u %" PRIx64 " %" PRIx64 " %" PRIx64
                      " %" PRIx64 " %u\n",
                      binaryOpName(W.Op), mulAlgorithmName(W.Mul), W.Width,
                      W.P.value(), W.P.mask(), W.Q.value(), W.Q.mask(),
                      W.Gap);
}

/// The pair a witness-corpus line spells, if it passes the checks a round
/// trip cannot make; the caller compares the line with witnessCorpusLine.
std::optional<WitnessPair> parseWitnessLine(std::string_view Line) {
  std::vector<std::string_view> Words = splitWords(Line);
  if (Words.size() != 9)
    return std::nullopt;
  std::optional<BinaryOp> Op;
  for (BinaryOp Each : AllBinaryOps)
    if (Words[1] == binaryOpName(Each))
      Op = Each;
  std::optional<MulAlgorithm> Mul;
  for (MulAlgorithm Each : AllMulAlgorithms)
    if (Words[2] == mulAlgorithmName(Each))
      Mul = Each;
  uint64_t N[6]; // Width, P.v, P.m, Q.v, Q.m and gap.
  for (size_t I = 0; I != 6; ++I) {
    std::optional<uint64_t> Value =
        parseNumber<uint64_t>(Words[3 + I], I == 0 || I == 5 ? 10 : 16);
    if (!Value)
      return std::nullopt;
    N[I] = *Value;
  }
  const Tnum P(N[1], N[2]), Q(N[3], N[4]);
  if (!Op || !Mul || N[0] == 0 || N[0] > 64 || N[5] > N[0] ||
      !P.isWellFormed() || !Q.isWellFormed() || !P.fitsWidth(N[0]) ||
      !Q.fitsWidth(N[0]))
    return std::nullopt;
  return WitnessPair{*Op, *Mul, static_cast<unsigned>(N[0]), P, Q,
                     static_cast<unsigned>(N[5])};
}

} // namespace

std::string tnums::encodeWitnessCorpus(const std::vector<WitnessPair> &Pairs) {
  std::string Text = WitnessCorpusHeader;
  for (const WitnessPair &W : Pairs)
    Text += witnessCorpusLine(W);
  return Text;
}

std::optional<std::vector<WitnessPair>>
tnums::parseWitnessCorpus(std::string_view Text, const std::string &Name,
                          std::string &Error) {
  if (!Text.starts_with(WitnessCorpusHeader)) {
    Error = formatString("%s:1: expected header \"tnums-witness-corpus v1\"",
                         Name.c_str());
    return std::nullopt;
  }
  takeLine(Text);
  std::vector<WitnessPair> Pairs;
  for (size_t LineNo = 2; !Text.empty(); ++LineNo) {
    const std::string_view Rest = Text;
    std::optional<WitnessPair> W = parseWitnessLine(takeLine(Text));
    if (!W || !Rest.starts_with(witnessCorpusLine(*W))) {
      Error = formatString("%s:%zu: not a witness pair as precision_atlas "
                           "writes one",
                           Name.c_str(), LineNo);
      return std::nullopt;
    }
    Pairs.push_back(*W);
  }
  return Pairs;
}

namespace {

/// Parses one shard payload BODY (header already stripped) and folds it
/// into \p Cell according to the cell's property -- the one merge used
/// by both the built-in drivers and the baseline loader, so a
/// --diff-baseline merge can never drift from the live one. False (with
/// \p Error set) on a malformed payload.
bool mergePropertyShard(CampaignCellResult &Cell, size_t CellIndex,
                        const std::string &Payload, std::string &Error) {
  CampaignCellResult Shard;
  Shard.Cell = Cell.Cell;
  if (!parsePropertyShard(Payload, Shard)) {
    Error = formatString("malformed %s shard payload for cell %zu",
                         campaignPropertyName(Cell.Cell.Property), CellIndex);
    return false;
  }
  switch (Cell.Cell.Property) {
  case CampaignProperty::Soundness:
    Cell.Soundness.PairsChecked += Shard.Soundness.PairsChecked;
    Cell.Soundness.ConcreteChecked += Shard.Soundness.ConcreteChecked;
    if (Shard.Soundness.Failure && !Cell.Soundness.Failure)
      Cell.Soundness.Failure = Shard.Soundness.Failure;
    break;
  case CampaignProperty::Optimality:
    Cell.Optimality.PairsChecked += Shard.Optimality.PairsChecked;
    Cell.Optimality.OptimalPairs += Shard.Optimality.OptimalPairs;
    if (Shard.Optimality.Failure && !Cell.Optimality.Failure)
      Cell.Optimality.Failure = Shard.Optimality.Failure;
    break;
  case CampaignProperty::Monotonicity:
    Cell.Monotonicity.QuadruplesChecked +=
        Shard.Monotonicity.QuadruplesChecked;
    if (Shard.Monotonicity.Failure && !Cell.Monotonicity.Failure)
      Cell.Monotonicity.Failure = Shard.Monotonicity.Failure;
    break;
  case CampaignProperty::Precision:
    Cell.Precision.PairsChecked += Shard.Precision.PairsChecked;
    Cell.Precision.SumGap += Shard.Precision.SumGap;
    for (unsigned G = 0; G != PrecisionGapBuckets; ++G)
      Cell.Precision.Buckets[G] += Shard.Precision.Buckets[G];
    // Strictly-greater replacement in manifest order keeps the earliest
    // shard's witness on ties -- exactly the serial scan's first pair
    // attaining the global maximum.
    if (Shard.Precision.MaxGap > Cell.Precision.MaxGap) {
      Cell.Precision.MaxGap = Shard.Precision.MaxGap;
      Cell.Precision.Worst = Shard.Precision.Worst;
    }
    break;
  }
  Cell.Seconds += Shard.Seconds;
  ++Cell.ShardsMerged;
  return true;
}

//===----------------------------------------------------------------------===//
// Serial-prefix normalization
//
// The range sweeps' work counters are scheduling-dependent when a shard
// fails (cancellation). Checkpointed shards must be deterministic, so a
// failing shard is re-normalized to the exact counts a serial walk of
// [Begin, FailIndex] would have produced -- which also makes the merged
// campaign report equal the *serial* checker's report bit for bit.
//===----------------------------------------------------------------------===//

/// Quadruples a serial scan of the witness pair performs, analogously.
uint64_t quadsUpToViolation(BinaryOp Op, MulAlgorithm Mul, unsigned Width,
                            const Tnum &P2, const Tnum &Q2) {
  Tnum R2 = applyAbstractBinary(Op, P2, Q2, Width, Mul);
  uint64_t Count = 0;
  bool Done = false;
  forEachSubTnum(P2, [&](Tnum P1) {
    if (Done)
      return;
    forEachSubTnum(Q2, [&](Tnum Q1) {
      if (Done)
        return;
      ++Count;
      if (!applyAbstractBinary(Op, P1, Q1, Width, Mul).isSubsetOf(R2))
        Done = true;
    });
  });
  return Count;
}

uint64_t pow3(unsigned Exp) {
  uint64_t Value = 1;
  while (Exp--)
    Value *= 3;
  return Value;
}

void normalizeSoundnessFailure(BinaryOp Concrete, const SweepGrid &Grid,
                               uint64_t Begin, uint64_t FailIndex,
                               SoundnessReport &Report) {
  assert(Report.Failure && "nothing to normalize");
  Report.PairsChecked = FailIndex - Begin + 1;
  uint64_t Concrete2 = 0;
  for (uint64_t Index = Begin; Index != FailIndex; ++Index) {
    const Tnum &P = Grid.Universe[Index / Grid.NumTnums];
    const Tnum &Q = Grid.Universe[Index % Grid.NumTnums];
    // Fully-scanned pairs cost exactly |gamma(P)| * |gamma(Q)| evals.
    Concrete2 += uint64_t(1) << (std::popcount(P.mask()) +
                                 std::popcount(Q.mask()));
  }
  // The witness pair costs what its serial scan evaluates: every member
  // pair up to and including the first violating one.
  const SoundnessCounterexample &W = *Report.Failure;
  scanPairMembers(Concrete, Grid.Width, W.P, W.Q, W.R, Concrete2);
  Report.ConcreteChecked = Concrete2;
}

void normalizeMonotonicityFailure(BinaryOp Op, MulAlgorithm Mul,
                                  const SweepGrid &Grid, uint64_t Begin,
                                  uint64_t FailIndex,
                                  MonotonicityReport &Report) {
  assert(Report.Failure && "nothing to normalize");
  uint64_t Quads = 0;
  for (uint64_t Index = Begin; Index != FailIndex; ++Index) {
    const Tnum &P = Grid.Universe[Index / Grid.NumTnums];
    const Tnum &Q = Grid.Universe[Index % Grid.NumTnums];
    // A fully-scanned pair visits every refinement pair: the down-set of
    // a tnum with k unknown trits has 3^k elements.
    Quads += pow3(static_cast<unsigned>(std::popcount(P.mask()))) *
             pow3(static_cast<unsigned>(std::popcount(Q.mask())));
  }
  const MonotonicityCounterexample &W = *Report.Failure;
  Quads += quadsUpToViolation(Op, Mul, Grid.Width, W.P2, W.Q2);
  Report.QuadruplesChecked = Quads;
}

/// Early-exit optimality: a one-cell full-scan optimality pass over
/// [Begin, FailIndex) recovers the exact prefix OptimalPairs count. The
/// witness is almost always in the first shard of a non-optimal cell, so
/// the rescan is short in practice.
void normalizeOptimalityFailure(BinaryOp Op, const FoldTransfer &Transfer,
                                SweepGrid &Grid, const SweepConfig &Config,
                                uint64_t Begin, uint64_t FailIndex,
                                OptimalityReport &Report) {
  assert(Report.Failure && "nothing to normalize");
  FoldCell Prefix(FoldCheck::Optimality, Transfer);
  checkFoldRangeParallel(Op, Grid, Begin, FailIndex, Config, {&Prefix, 1});
  Report.PairsChecked = FailIndex - Begin + 1;
  Report.OptimalPairs = Prefix.Optimality.OptimalPairs;
}

/// The per-cell pair totals of \p Spec (one grid dimension per width).
std::vector<uint64_t> specCellPairs(const CampaignSpec &Spec) {
  std::vector<uint64_t> CellPairs;
  CellPairs.reserve(Spec.Cells.size());
  for (const CampaignCell &Cell : Spec.Cells) {
    uint64_t NumTnums = numWellFormedTnums(Cell.Width);
    CellPairs.push_back(NumTnums * NumTnums);
  }
  return CellPairs;
}

/// The per-cell content fingerprints of \p Spec.
std::vector<uint64_t> specCellFingerprints(const CampaignSpec &Spec) {
  std::vector<uint64_t> Fingerprints;
  Fingerprints.reserve(Spec.Cells.size());
  for (const CampaignCell &Cell : Spec.Cells)
    Fingerprints.push_back(campaignCellFingerprint(Spec, Cell));
  return Fingerprints;
}

} // namespace

//===----------------------------------------------------------------------===//
// runPropertyCampaign -- the one sharding layer: manifest, durable store,
// execution of this invocation's slice through the cells' drivers, and
// the manifest-order merge.
//===----------------------------------------------------------------------===//

ShardDriveResult tnums::runPropertyCampaign(
    const std::vector<PropertyCampaignCell> &Cells, uint64_t Fingerprint,
    const CampaignIO &IO, std::vector<bool> *CellComplete,
    std::vector<CellShardCounts> *CellCounts) {
  ShardDriveResult Result;
  if (IO.Shards == 0 || IO.ShardIndex >= IO.Shards) {
    Result.Error = formatString("bad shard split: index %u of %u",
                                IO.ShardIndex, IO.Shards);
    return Result;
  }
  if (IO.Shards > 1 && IO.CheckpointDir.empty()) {
    Result.Error = "--shards > 1 requires a checkpoint directory "
                   "(shard results meet on disk)";
    return Result;
  }
  if (IO.ShardPairs == 0) {
    Result.Error = "ShardPairs must be positive";
    return Result;
  }

  // A cell's stored fingerprint extends its content fingerprint by the
  // driver's property name and payload version.
  // Each pass's cells, in cell order.
  std::vector<uint64_t> CellPairs;
  std::vector<uint64_t> CellFingerprints;
  std::map<uint64_t, std::vector<size_t>> PassCells;
  CellPairs.reserve(Cells.size());
  CellFingerprints.reserve(Cells.size());
  for (size_t Index = 0; Index != Cells.size(); ++Index) {
    const PropertyCampaignCell &Cell = Cells[Index];
    assert(Cell.Driver && "every property cell needs a driver");
    CellPairs.push_back(Cell.TotalPairs);
    CellFingerprints.push_back(
        propertyCellFingerprint(Cell.ContentFingerprint, Cell.Driver->name(),
                                Cell.Driver->payloadVersion()));
    if (!Cell.Pass)
      continue;
    std::vector<size_t> &Members = PassCells[Cell.Pass];
    if (!Members.empty() && Cells[Members[0]].TotalPairs != Cell.TotalPairs) {
      Result.Error = formatString("cells %zu and %zu share pass %" PRIu64
                                  " but not their pair count",
                                  Members[0], Index, Cell.Pass);
      return Result;
    }
    Members.push_back(Index);
  }
  const std::vector<ShardRef> Manifest =
      buildManifest(CellPairs, IO.ShardPairs);
  // A cell's shards are consecutive manifest entries from FirstShard on,
  // so the k-th shards of a pass's cells cover the same range.
  std::vector<uint64_t> FirstShard(Cells.size());
  for (uint64_t Id = Manifest.size(); Id-- != 0;)
    FirstShard[Manifest[Id].Cell] = Id;
  Result.ShardsTotal = Manifest.size();
  if (CellCounts)
    CellCounts->assign(Cells.size(), CellShardCounts{});

  std::optional<CheckpointStore> Store;
  if (!IO.CheckpointDir.empty()) {
    std::string Error;
    Store = CheckpointStore::open(IO.CheckpointDir, Fingerprint,
                                  Manifest.size(), Error);
    if (!Store) {
      Result.Error = std::move(Error);
      return Result;
    }
    if (!IO.Resume) {
      for (uint64_t Id = 0; Id != Manifest.size(); ++Id)
        if (Id % IO.Shards == IO.ShardIndex && Store->hasShard(Id)) {
          Result.Error = formatString(
              "checkpoint directory %s already holds shard %" PRIu64
              " of this invocation's slice; pass --resume to reuse it or "
              "point at a fresh directory",
              IO.CheckpointDir.c_str(), Id);
          return Result;
        }
    }
  }

  // Telemetry heartbeats: one JSONL row per shard executed by THIS
  // invocation plus a final invocation summary, appended to
  // telemetry.jsonl beside the shard store. The file accumulates across
  // resumes and is invisible to every fingerprint and bit-identity claim
  // (it is not a shard file and is never read back); an open failure
  // leaves the log inert rather than failing the campaign.
  EventLog Telemetry;
  if (!IO.CheckpointDir.empty()) {
    std::string TelemetryError;
    Telemetry.open(IO.CheckpointDir + "/telemetry.jsonl", TelemetryError);
  }
  const uint64_t InvocationStartNs = Telemetry.active() ? traceNowNs() : 0;

  // Results this invocation has in hand (computed or loaded), keyed by
  // manifest index. The merge below prefers this cache and falls back to
  // the store for shards other invocations completed after we passed
  // them in the execution loop.
  std::map<uint64_t, ShardRecord> Cache;
  // Lowest terminal shard per cell seen so far; later shards of that
  // cell are dead (early-exit) and are skipped, not run.
  std::map<size_t, uint64_t> CellTerminalShard;

  auto isDead = [&](const ShardRef &Ref, uint64_t Id) {
    auto It = CellTerminalShard.find(Ref.Cell);
    return It != CellTerminalShard.end() && Id > It->second;
  };

  /// Loads shard \p Id from the store and classifies it: a record whose
  /// cell fingerprint still matches is CURRENT (cached, terminal
  /// bookkeeping applied); a mismatch is STALE -- the operator
  /// implementation changed since it was written, so its verdict must
  /// not be merged; a file that disappeared between hasShard and
  /// loadShard is MISSING (another invocation's owner GC'd a stale shard
  /// under us -- the replacement, if any, lands later). A stored cell
  /// index disagreeing with the manifest is corruption, reported as a
  /// hard error.
  enum class Stored { Current, Stale, Missing, Error };
  auto classifyStored = [&](uint64_t Id, const ShardRef &Ref) -> Stored {
    std::string Error;
    std::optional<ShardRecord> Record = Store->loadShard(Id, Error);
    if (!Record) {
      if (Error.empty())
        return Stored::Missing;
      Result.Error = std::move(Error);
      return Stored::Error;
    }
    if (Record->Cell != Ref.Cell) {
      Result.Error = formatString(
          "shard %" PRIu64 " in %s records cell %" PRIu64
          " but the manifest places it in cell %zu; the store is corrupt",
          Id, IO.CheckpointDir.c_str(), Record->Cell, Ref.Cell);
      return Stored::Error;
    }
    if (Record->CellFingerprint != CellFingerprints[Ref.Cell])
      return Stored::Stale;
    if (Record->Terminal)
      CellTerminalShard.emplace(Ref.Cell, Id);
    Cache.emplace(Id, std::move(*Record));
    return Stored::Current;
  };

  /// Decides what this invocation does with shard \p Id when the walk
  /// reaches it: skip it past its cell's terminal shard, serve it from the
  /// store, GC it when stale, and set \p Run when it is owned, has no
  /// current stored copy, and fits the budget next to \p Queued shards
  /// already bound for the same pass. False on a hard error.
  auto admit = [&](uint64_t Id, uint64_t Queued, bool &Run) {
    Run = false;
    const ShardRef &Ref = Manifest[Id];
    if (isDead(Ref, Id)) {
      ++Result.ShardsSkipped;
      if (CellCounts)
        ++(*CellCounts)[Ref.Cell].Skipped;
      return true;
    }
    const bool Owned = Id % IO.Shards == IO.ShardIndex;
    if (Store && Store->hasShard(Id)) {
      switch (classifyStored(Id, Ref)) {
      case Stored::Error:
        return false;
      case Stored::Missing:
        break; // Vanished under us: fall through and run if owned.
      case Stored::Current:
        if (Owned) {
          ++Result.ShardsResumed;
          if (CellCounts)
            ++(*CellCounts)[Ref.Cell].Resumed;
        }
        return true;
      case Stored::Stale: {
        // Only the OWNER may GC: a non-owner unlinking here could race
        // the owner's re-run and delete the freshly renamed replacement.
        // Non-owners simply treat the stale shard as absent.
        if (!Owned)
          break;
        ++Result.ShardsInvalidated;
        if (CellCounts)
          ++(*CellCounts)[Ref.Cell].Invalidated;
        std::string Error;
        if (!Store->removeShard(Id, Error)) {
          Result.Error = std::move(Error);
          return false;
        }
        break; // Fall through to re-run below.
      }
      }
    }
    // Past the time box, the rest is left for a resume.
    Run = Owned && !(IO.MaxShardsThisRun &&
                     Result.ShardsRun + Queued >= IO.MaxShardsThisRun);
    return true;
  };

  //===--------------------------------------------------------------------===//
  // Execution: walk the manifest in order, running owned shards,
  // absorbing checkpointed ones whose cell fingerprint still matches,
  // and GC-ing + re-running owned shards invalidated by an operator
  // change. A pass's cells are walked together: at each shard of its
  // first cell, the same-range shards of all its cells run as one pass.
  //===--------------------------------------------------------------------===//
  for (uint64_t Id = 0; Id != Manifest.size(); ++Id) {
    const ShardRef &Ref = Manifest[Id];
    std::vector<uint64_t> Slot{Id};
    if (const uint64_t Pass = Cells[Ref.Cell].Pass) {
      const std::vector<size_t> &Members = PassCells[Pass];
      if (Members[0] != Ref.Cell)
        continue; // Walked with the pass's first cell.
      Slot.clear();
      for (size_t Member : Members)
        Slot.push_back(FirstShard[Member] + (Id - FirstShard[Ref.Cell]));
    }
    std::vector<uint64_t> JobIds;
    std::vector<ShardJob> Jobs;
    for (uint64_t Member : Slot) {
      bool Run = false;
      if (!admit(Member, Jobs.size(), Run))
        return Result;
      if (!Run)
        continue;
      const ShardRef &Shard = Manifest[Member];
      JobIds.push_back(Member);
      Jobs.push_back(ShardJob{Shard.Cell, Shard.Begin, Shard.End, {}, false});
    }
    if (Jobs.empty())
      continue;

    const uint64_t PassStartNs = Telemetry.active() ? traceNowNs() : 0;
    Cells[Jobs[0].Cell].Driver->runShards(Jobs);
    for (size_t J = 0; J != Jobs.size(); ++J) {
      // The cell's PropertyDriver computed the body; the engine stamps the
      // payload header.
      const ShardJob &Job = Jobs[J];
      PropertyDriver &Driver = *Cells[Job.Cell].Driver;
      ShardRecord Record;
      Record.Payload =
          payloadHeaderLine(Driver.name(), Driver.payloadVersion()) +
          Job.Payload;
      Record.Terminal = Job.Terminal;
      Record.Cell = Job.Cell;
      Record.CellFingerprint = CellFingerprints[Job.Cell];
      if (Store) {
        std::string Error;
        if (!Store->storeShard(JobIds[J], Record, Error)) {
          Result.Error = std::move(Error);
          return Result;
        }
      }
      if (Record.Terminal)
        CellTerminalShard.emplace(Job.Cell, JobIds[J]);
      Cache.emplace(JobIds[J], std::move(Record));
      ++Result.ShardsRun;
      if (CellCounts)
        ++(*CellCounts)[Job.Cell].Run;
    }
    if (Telemetry.active()) {
      // Each shard is booked an even share of its pass's wall time.
      const double WallS =
          double(traceNowNs() - PassStartNs) / 1e9 / double(Jobs.size());
      for (size_t J = 0; J != Jobs.size(); ++J) {
        const ShardJob &Job = Jobs[J];
        JsonLineBuilder Line;
        Line.field("ts_ms", traceWallMs())
            .field("event", "shard")
            .field("shard", JobIds[J])
            .field("cell", static_cast<uint64_t>(Job.Cell))
            .field("begin", Job.Begin)
            .field("end", Job.End)
            .field("wall_s", WallS)
            .field("pairs_per_s",
                   WallS > 0 ? double(Job.End - Job.Begin) / WallS : 0.0)
            .field("terminal", Job.Terminal);
        Telemetry.write(Line.str());
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Merge: manifest order, stopping each cell at its terminal shard (or
  // its first missing/stale one). Because the order is fixed and every
  // payload is deterministic, the merged result is bit-identical no
  // matter which invocations produced which shards, in how many runs, or
  // how many cells were served from the store vs recomputed.
  //===--------------------------------------------------------------------===//
  if (CellComplete)
    CellComplete->assign(Cells.size(), false);
  bool AllComplete = true;
  for (size_t Cell = 0; Cell != Cells.size(); ++Cell) {
    bool Complete = true;
    for (uint64_t Id = 0; Id != Manifest.size(); ++Id) {
      const ShardRef &Ref = Manifest[Id];
      if (Ref.Cell != Cell)
        continue;
      const ShardRecord *Record = nullptr;
      auto It = Cache.find(Id);
      if (It != Cache.end()) {
        Record = &It->second;
      } else if (Store && Store->hasShard(Id)) {
        switch (classifyStored(Id, Ref)) {
        case Stored::Error:
          return Result;
        case Stored::Current:
          Record = &Cache.find(Id)->second;
          break;
        case Stored::Stale:
        case Stored::Missing:
          Record = nullptr; // No current verdict: the cell stays partial.
          break;
        }
      }
      if (!Record) {
        Complete = false;
        break;
      }
      // Verify and strip the header before the cell's PropertyDriver
      // sees the body.
      PropertyDriver &Driver = *Cells[Cell].Driver;
      std::string Body, Error;
      if (!stripPayloadHeader(Record->Payload, Driver.name(),
                              Driver.payloadVersion(), Cell, Body, Error) ||
          !Driver.mergeShard(Cell, Ref.Begin, Ref.End, Body, Error)) {
        Result.Error = Error.empty() ? formatString("shard %" PRIu64
                                                    " failed to merge",
                                                    Id)
                                     : std::move(Error);
        return Result;
      }
      if (Record->Terminal)
        break; // The cell ends here by construction.
    }
    if (CellComplete)
      (*CellComplete)[Cell] = Complete;
    AllComplete &= Complete;
  }
  Result.Complete = AllComplete;
  if (Telemetry.active()) {
    JsonLineBuilder Line;
    Line.field("ts_ms", traceWallMs())
        .field("event", "invocation")
        .field("shards_total", Result.ShardsTotal)
        .field("run", Result.ShardsRun)
        .field("resumed", Result.ShardsResumed)
        .field("skipped", Result.ShardsSkipped)
        .field("invalidated", Result.ShardsInvalidated)
        .field("complete", Result.Complete)
        .field("wall_s", double(traceNowNs() - InvocationStartNs) / 1e9);
    Telemetry.write(Line.str());
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// The built-in property drivers + runCampaign
//===----------------------------------------------------------------------===//

namespace {

/// State the built-in driver shares: the spec and scheduling config, the
/// per-invocation result cells it folds into, and one sweep grid
/// (universe, member table and constant-row table slot) per width, shared
/// by every cell, shard, and property at that width and built on first
/// use.
struct CampaignEngine {
  const CampaignSpec &Spec;
  const SweepConfig &Config;
  CampaignResult &Result;
  std::map<unsigned, SweepGrid> Grids;

  SweepGrid &gridFor(unsigned Width) {
    auto It = Grids.find(Width);
    if (It == Grids.end())
      It = Grids.emplace(Width, makeSweepGrid(Width, Config)).first;
    return It->second;
  }

  /// The cell's built-in transfer function, or the spec's override bound
  /// to the cell's width.
  FoldTransfer transferFor(const CampaignCell &Cell) const {
    if (!Spec.overrideApplies(Cell))
      return FoldTransfer(Cell.Op, Cell.Mul, Cell.Width);
    unsigned Width = Cell.Width;
    OperatorOverrideFn Override = Spec.OperatorOverride;
    return FoldTransfer([Override, Width](const Tnum &P, const Tnum &Q) {
      return Override(P, Q, Width);
    });
  }

  FoldCheck foldCheckFor(CampaignProperty Property) const {
    switch (Property) {
    case CampaignProperty::Soundness:
      return FoldCheck::Soundness;
    case CampaignProperty::Optimality:
      return Spec.OptimalityEarlyExit ? FoldCheck::OptimalityFirst
                                      : FoldCheck::Optimality;
    case CampaignProperty::Precision:
      return FoldCheck::Precision;
    case CampaignProperty::Monotonicity:
      break;
    }
    assert(false && "monotonicity cells do not read the fold");
    return FoldCheck::Precision;
  }

  /// Runs one pass over one shard range: a monotonicity shard alone, or
  /// the shards of soundness, optimality and precision cells of one
  /// (concrete op, width) grid as one fold pass. Failing soundness,
  /// monotonicity and early-exit optimality shards are normalized to
  /// serial-prefix counts and end their cells. Every shard is booked an
  /// even share of the pass's compute time.
  void runPass(std::span<ShardJob> Jobs) {
    struct ScanMetrics {
      Counter Cells{"tnums_precision_cells_total"};
    };
    static ScanMetrics Metrics;
    const auto Start = std::chrono::steady_clock::now();
    const CampaignCell &First = Spec.Cells[Jobs[0].Cell];
    SweepGrid &Grid = gridFor(First.Width);
    const uint64_t Begin = Jobs[0].Begin;
    const uint64_t End = Jobs[0].End;
    auto seconds = [&] {
      std::chrono::duration<double> Elapsed =
          std::chrono::steady_clock::now() - Start;
      return Elapsed.count() / double(Jobs.size());
    };

    if (First.Property == CampaignProperty::Monotonicity) {
      assert(Jobs.size() == 1 && "monotonicity cells run alone");
      std::optional<uint64_t> FailIndex;
      MonotonicityReport Report = checkMonotonicityRangeParallel(
          First.Op, First.Mul, Grid, Begin, End, Config, &FailIndex);
      if (Report.Failure) {
        normalizeMonotonicityFailure(First.Op, First.Mul, Grid, Begin,
                                     *FailIndex, Report);
        Jobs[0].Terminal = true;
      }
      CampaignCellResult Shard;
      Shard.Cell = First;
      Shard.Monotonicity = Report;
      Shard.Seconds = seconds();
      Jobs[0].Payload = encodePropertyShard(Shard);
      return;
    }

    std::vector<FoldCell> Folds;
    Folds.reserve(Jobs.size());
    for (const ShardJob &Job : Jobs) {
      const CampaignCell &Cell = Spec.Cells[Job.Cell];
      assert(Cell.Op == First.Op && Cell.Width == First.Width &&
             Job.Begin == Begin && Job.End == End && "one grid, one range");
      if (Cell.Property == CampaignProperty::Precision && Begin == 0)
        Metrics.Cells.add(1);
      Folds.emplace_back(foldCheckFor(Cell.Property), transferFor(Cell));
    }
    checkFoldRangeParallel(First.Op, Grid, Begin, End, Config, Folds);
    for (size_t I = 0; I != Jobs.size(); ++I) {
      FoldCell &Fold = Folds[I];
      if (Fold.Check == FoldCheck::Soundness && Fold.Soundness.Failure) {
        normalizeSoundnessFailure(First.Op, Grid, Begin, *Fold.FailureIndex,
                                  Fold.Soundness);
        Jobs[I].Terminal = true; // Soundness cells stop at the first witness.
      } else if (Fold.Check == FoldCheck::OptimalityFirst &&
                 Fold.Optimality.Failure) {
        normalizeOptimalityFailure(First.Op, Fold.Transfer, Grid, Config,
                                   Begin, *Fold.FailureIndex,
                                   Fold.Optimality);
        Jobs[I].Terminal = true;
      }
    }
    const double Seconds = seconds();
    for (size_t I = 0; I != Jobs.size(); ++I) {
      CampaignCellResult Shard;
      Shard.Cell = Spec.Cells[Jobs[I].Cell];
      Shard.Soundness = Folds[I].Soundness;
      Shard.Optimality = Folds[I].Optimality;
      Shard.Precision = Folds[I].Precision;
      Shard.Seconds = Seconds;
      Jobs[I].Payload = encodePropertyShard(Shard);
    }
  }
};

/// The built-in properties' driver: name and payload version come from
/// the property enum, shards run through the shared engine (so one pass
/// may hold soundness, optimality and precision shards of one grid), and
/// merging goes through the shared mergePropertyShard fold (also used by
/// the baseline loader).
class BuiltinPropertyDriver final : public PropertyDriver {
  CampaignEngine &Engine;
  const CampaignProperty Property;

public:
  BuiltinPropertyDriver(CampaignEngine &Engine, CampaignProperty Property)
      : Engine(Engine), Property(Property) {}

  const char *name() const override { return campaignPropertyName(Property); }
  unsigned payloadVersion() const override {
    return campaignPropertyPayloadVersion(Property);
  }

  void runShard(size_t Cell, uint64_t Begin, uint64_t End,
                std::string &Payload, bool &Terminal) override {
    ShardJob Job{Cell, Begin, End, {}, false};
    Engine.runPass({&Job, 1});
    Payload = std::move(Job.Payload);
    Terminal = Job.Terminal;
  }

  void runShards(std::span<ShardJob> Jobs) override { Engine.runPass(Jobs); }

  bool mergeShard(size_t Cell, uint64_t, uint64_t,
                  const std::string &Payload, std::string &Error) override {
    struct MergeMetrics {
      Histogram MergeNs{"tnums_precision_merge_ns"};
    };
    static MergeMetrics Metrics;
    const bool Timed =
        Property == CampaignProperty::Precision && metricsEnabled();
    const uint64_t StartNs = Timed ? traceNowNs() : 0;
    bool Ok =
        mergePropertyShard(Engine.Result.Cells[Cell], Cell, Payload, Error);
    if (Timed)
      Metrics.MergeNs.record(traceNowNs() - StartNs);
    return Ok;
  }
};

} // namespace

CampaignResult tnums::runCampaign(const CampaignSpec &Spec,
                                  const CampaignIO &IO,
                                  const SweepConfig &Config) {
  CampaignResult Result;
  if (Spec.OperatorOverride && Spec.OverrideTag.empty()) {
    Result.Error = "an OperatorOverride requires an OverrideTag (the "
                   "fingerprint cannot hash a function)";
    return Result;
  }
  for (const CampaignCell &Cell : Spec.Cells)
    if (isShiftOp(Cell.Op) && (Cell.Width & (Cell.Width - 1)) != 0) {
      Result.Error = formatString(
          "cell %s/%s: shift verification requires a power-of-two width, "
          "got %u",
          binaryOpName(Cell.Op), campaignPropertyName(Cell.Property),
          Cell.Width);
      return Result;
    }

  std::vector<uint64_t> CellPairs = specCellPairs(Spec);

  Result.Cells.resize(Spec.Cells.size());
  for (size_t I = 0; I != Spec.Cells.size(); ++I)
    Result.Cells[I].Cell = Spec.Cells[I];

  CampaignEngine Engine{Spec, Config, Result, {}};
  BuiltinPropertyDriver Drivers[] = { // In CampaignProperty order.
      {Engine, CampaignProperty::Soundness},
      {Engine, CampaignProperty::Optimality},
      {Engine, CampaignProperty::Monotonicity},
      {Engine, CampaignProperty::Precision}};

  // One pass per (concrete op, width) grid for every cell that reads the
  // fold; monotonicity cells run alone.
  std::vector<PropertyCampaignCell> Cells;
  Cells.reserve(Spec.Cells.size());
  for (size_t I = 0; I != Spec.Cells.size(); ++I) {
    const CampaignCell &Cell = Spec.Cells[I];
    const uint64_t Pass =
        Cell.Property == CampaignProperty::Monotonicity
            ? 0
            : (uint64_t(Cell.Op) + 1) << 32 | Cell.Width;
    Cells.push_back(PropertyCampaignCell{
        CellPairs[I], cellContentFingerprint(Spec, Cell),
        &Drivers[static_cast<size_t>(Cell.Property)], Pass});
  }

  std::vector<bool> CellComplete;
  std::vector<CellShardCounts> CellCounts;
  uint64_t Fingerprint = campaignFingerprint(Spec, IO);
  ShardDriveResult Drive = runPropertyCampaign(Cells, Fingerprint, IO,
                                               &CellComplete, &CellCounts);
  Result.ShardsTotal = Drive.ShardsTotal;
  Result.ShardsRun = Drive.ShardsRun;
  Result.ShardsResumed = Drive.ShardsResumed;
  Result.ShardsSkipped = Drive.ShardsSkipped;
  Result.ShardsInvalidated = Drive.ShardsInvalidated;
  if (!Drive.ok()) {
    Result.Error = std::move(Drive.Error);
    return Result;
  }
  Result.Complete = Drive.Complete;
  for (size_t I = 0; I != Result.Cells.size(); ++I) {
    Result.Cells[I].Complete = CellComplete[I];
    Result.Cells[I].ShardsRun = CellCounts[I].Run;
    Result.Cells[I].ShardsResumed = CellCounts[I].Resumed;
    Result.Cells[I].ShardsInvalidated = CellCounts[I].Invalidated;
    Result.Cells[I].ShardsSkipped = CellCounts[I].Skipped;
    // ShardsTotal per cell: count manifest entries (recompute cheaply;
    // the (Total - 1) form cannot overflow for huge ShardPairs).
    uint64_t Total = CellPairs[I];
    Result.Cells[I].ShardsTotal =
        Total == 0 ? 1 : (Total - 1) / IO.ShardPairs + 1;
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// diffCampaignBaseline
//===----------------------------------------------------------------------===//

namespace {

/// Equality of the property-relevant report of two merged cells
/// (counters AND witness; the informational Seconds is ignored).
bool sameMergedReport(const CampaignCellResult &A,
                      const CampaignCellResult &B) {
  switch (A.Cell.Property) {
  case CampaignProperty::Soundness:
    return A.Soundness == B.Soundness;
  case CampaignProperty::Optimality:
    return A.Optimality == B.Optimality;
  case CampaignProperty::Monotonicity:
    return A.Monotonicity == B.Monotonicity;
  case CampaignProperty::Precision:
    return A.Precision == B.Precision;
  }
  return false;
}

/// "mul[our_mul]/w6"-style cell coordinates for the precision-delta
/// lines (the property is implied; only Precision cells are printed).
std::string precisionCellLabel(const CampaignCell &Cell) {
  if (Cell.Op == BinaryOp::Mul)
    return formatString("mul[%s]/w%u", mulAlgorithmName(Cell.Mul),
                        Cell.Width);
  return formatString("%s/w%u", binaryOpName(Cell.Op), Cell.Width);
}

} // namespace

CampaignDiffResult tnums::diffCampaignBaseline(const CampaignSpec &Spec,
                                               const CampaignIO &IO,
                                               const std::string &BaselineDir,
                                               const CampaignResult &Current) {
  CampaignDiffResult Diff;
  if (Current.Cells.size() != Spec.Cells.size()) {
    Diff.Error = "diff baseline: Current does not match Spec";
    return Diff;
  }
  std::vector<uint64_t> CellPairs = specCellPairs(Spec);
  std::vector<uint64_t> CellFingerprints = specCellFingerprints(Spec);
  const std::vector<ShardRef> Manifest =
      buildManifest(CellPairs, IO.ShardPairs);

  // A diff is a READ: a mistyped baseline path must be a hard error, not
  // a freshly created empty store reporting "0 cells reused" -- so check
  // for the manifest before open() (which would create dir + manifest).
  struct stat St;
  if (::stat((BaselineDir + "/campaign.manifest").c_str(), &St) != 0) {
    Diff.Error = formatString(
        "%s is not a campaign checkpoint directory (no campaign.manifest)",
        BaselineDir.c_str());
    return Diff;
  }

  // The baseline must be the same campaign SHAPE; its cell fingerprints
  // may of course differ -- that difference is the report.
  std::string Error;
  std::optional<CheckpointStore> Store = CheckpointStore::open(
      BaselineDir, campaignFingerprint(Spec, IO), Manifest.size(), Error);
  if (!Store) {
    Diff.Error = std::move(Error);
    return Diff;
  }

  Diff.Cells.resize(Spec.Cells.size());
  for (size_t Cell = 0; Cell != Spec.Cells.size(); ++Cell) {
    CampaignCellDiff &Out = Diff.Cells[Cell];
    Out.Cell = Spec.Cells[Cell];
    Out.Baseline.Cell = Spec.Cells[Cell];
    bool Complete = true;
    bool Consistent = true;
    for (uint64_t Id = 0; Id != Manifest.size() && Consistent; ++Id) {
      const ShardRef &Ref = Manifest[Id];
      if (Ref.Cell != Cell)
        continue;
      if (!Store->hasShard(Id)) {
        Complete = false;
        break;
      }
      std::optional<ShardRecord> Record = Store->loadShard(Id, Error);
      if (!Record) {
        Diff.Error = Error.empty()
                         ? formatString("baseline shard %" PRIu64
                                        " vanished",
                                        Id)
                         : std::move(Error);
        return Diff;
      }
      if (Record->Cell != Ref.Cell) {
        Diff.Error = formatString(
            "baseline shard %" PRIu64 " records cell %" PRIu64
            " but the manifest places it in cell %zu; the store is corrupt",
            Id, Record->Cell, Ref.Cell);
        return Diff;
      }
      if (!Out.InBaseline) {
        Out.InBaseline = true;
        Out.BaselineFingerprint = Record->CellFingerprint;
      } else if (Record->CellFingerprint != Out.BaselineFingerprint) {
        // A half-migrated cell (some shards re-run under a newer operator
        // than others) has no single coherent baseline verdict.
        Consistent = false;
        break;
      }
      // Baseline shards carry the same engine-stamped payload header as
      // live ones; verify and strip it with the same helper so a
      // baseline from an incompatible payload version is refused, not
      // misparsed.
      std::string Body;
      if (!stripPayloadHeader(
              Record->Payload, campaignPropertyName(Out.Cell.Property),
              campaignPropertyPayloadVersion(Out.Cell.Property), Cell, Body,
              Error) ||
          !mergePropertyShard(Out.Baseline, Cell, Body, Error)) {
        Diff.Error = std::move(Error);
        return Diff;
      }
      if (Record->Terminal)
        break; // The cell's merge ends here by construction.
    }
    Out.BaselineComplete = Out.InBaseline && Complete && Consistent;
    Out.Baseline.Complete = Out.BaselineComplete;
    Out.Reused = Out.InBaseline &&
                 Out.BaselineFingerprint == CellFingerprints[Cell];
    if (Out.InBaseline)
      ++(Out.Reused ? Diff.CellsReused : Diff.CellsRerun);
    if (Out.BaselineComplete && Current.Cells[Cell].Complete) {
      Out.ReportChanged = !sameMergedReport(Out.Baseline, Current.Cells[Cell]);
      Out.VerdictChanged =
          Out.Baseline.holds() != Current.Cells[Cell].holds();
      if (Out.VerdictChanged)
        ++Diff.CellsVerdictChanged;
    }
  }
  return Diff;
}

uint64_t tnums::printPrecisionDeltas([[maybe_unused]] const CampaignSpec &Spec,
                                     const CampaignDiffResult &Diff,
                                     const CampaignResult &Current,
                                     std::FILE *Out) {
  uint64_t Deltas = 0;
  assert(Diff.Cells.size() == Spec.Cells.size() &&
         Current.Cells.size() == Spec.Cells.size() &&
         "diff/current must match the spec");
  for (size_t I = 0; I != Diff.Cells.size(); ++I) {
    const CampaignCellDiff &Cell = Diff.Cells[I];
    if (Cell.Cell.Property != CampaignProperty::Precision)
      continue;
    if (!Cell.BaselineComplete || !Current.Cells[I].Complete ||
        !Cell.ReportChanged)
      continue;
    const PrecisionReport &Old = Cell.Baseline.Precision;
    const PrecisionReport &New = Current.Cells[I].Precision;
    std::fprintf(Out,
                 "precision delta %s: sum_gap %llu -> %llu, max_gap %u -> "
                 "%u\n",
                 precisionCellLabel(Cell.Cell).c_str(),
                 static_cast<unsigned long long>(Old.SumGap),
                 static_cast<unsigned long long>(New.SumGap), Old.MaxGap,
                 New.MaxGap);
    ++Deltas;
  }
  std::fprintf(Out, "%llu precision deltas vs baseline\n",
               static_cast<unsigned long long>(Deltas));
  return Deltas;
}
