//===- tests/CampaignTest.cpp - Checkpointed campaign engine tests --------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign engine's contract is that the merged report is
/// bit-identical to the serial checkers' -- counters AND witness -- no
/// matter how the shard manifest was split across invocations, killed at
/// shard boundaries, resumed, scheduled, or (since the v2 store)
/// incrementally re-verified after a transfer-function change. These
/// tests drive exactly those interleavings: multi-shard in-memory runs
/// across scheduler configs, kill-and-resume at several boundaries,
/// --shards splits executed out of order in separate invocations, a
/// deliberately broken operator flowing through checkpoint files, the
/// incremental op-fingerprint invalidation path (only changed cells
/// re-run; merged reports identical to from-scratch; kill mid-incremental
/// stays identical), the --diff-baseline report, and the durable store's
/// fingerprint / format-version guards and temp-file hygiene.
///
//===----------------------------------------------------------------------===//

#include "support/Table.h"
#include "tnum/TnumEnum.h"
#include "verify/Campaign.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>

using namespace tnums;

namespace {

/// Fresh unique checkpoint directory under the test temp root.
std::string makeCheckpointDir() {
  std::string Template = testing::TempDir() + "campaignXXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  const char *Dir = mkdtemp(Buf.data());
  EXPECT_NE(Dir, nullptr);
  return std::string(Dir) + "/ckpt"; // Let the store create the leaf dir.
}

/// Scheduler configs exercising the degenerate serial path, odd chunking,
/// and oversubscription (this mirrors ParallelSweepTest's kConfigs).
const SweepConfig kConfigs[] = {
    {/*NumThreads=*/1, /*ChunkPairs=*/1},
    {/*NumThreads=*/2, /*ChunkPairs=*/7},
    {/*NumThreads=*/8, /*ChunkPairs=*/64},
};

/// A mixed spec touching every property, with cells that hold and cells
/// that fail (mul optimality at width 4, kern_mul monotonicity at width
/// 5), so the serial-prefix normalization is exercised alongside the
/// full-scan sums.
CampaignSpec mixedSpec(bool EarlyExit) {
  CampaignSpec Spec;
  Spec.OptimalityEarlyExit = EarlyExit;
  Spec.Cells.push_back({BinaryOp::Add, MulAlgorithm::Our, 4,
                        CampaignProperty::Soundness});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Our, 4,
                        CampaignProperty::Soundness});
  Spec.Cells.push_back({BinaryOp::Add, MulAlgorithm::Our, 4,
                        CampaignProperty::Optimality});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Our, 4,
                        CampaignProperty::Optimality});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Kern, 5,
                        CampaignProperty::Monotonicity});
  return Spec;
}

/// Asserts the merged campaign equals the SERIAL checkers bit for bit:
/// the strongest form of the determinism contract (the parallel engines'
/// own counters are only scheduling-independent when the property holds;
/// the campaign normalizes failures back to serial-prefix counts).
void expectMatchesSerialCheckers(const CampaignSpec &Spec,
                                 const CampaignResult &Campaign) {
  ASSERT_TRUE(Campaign.ok()) << Campaign.Error;
  ASSERT_TRUE(Campaign.Complete);
  ASSERT_EQ(Campaign.Cells.size(), Spec.Cells.size());
  for (size_t I = 0; I != Spec.Cells.size(); ++I) {
    const CampaignCell &Cell = Spec.Cells[I];
    const CampaignCellResult &Got = Campaign.Cells[I];
    SCOPED_TRACE(testing::Message()
                 << binaryOpName(Cell.Op) << "/"
                 << campaignPropertyName(Cell.Property) << "/w"
                 << Cell.Width);
    EXPECT_TRUE(Got.Complete);
    switch (Cell.Property) {
    case CampaignProperty::Soundness:
      EXPECT_EQ(checkSoundnessExhaustive(Cell.Op, Cell.Width, Cell.Mul),
                Got.Soundness);
      break;
    case CampaignProperty::Optimality:
      EXPECT_EQ(
          checkOptimalityExhaustive(Cell.Op, Cell.Width, Cell.Mul,
                                    /*StopAtFirst=*/Spec.OptimalityEarlyExit),
          Got.Optimality);
      break;
    case CampaignProperty::Monotonicity:
      EXPECT_EQ(checkMonotonicityExhaustive(Cell.Op, Cell.Width, Cell.Mul),
                Got.Monotonicity);
      break;
    case CampaignProperty::Precision:
      EXPECT_EQ(measurePrecisionGap(Cell.Op, Cell.Width, Cell.Mul),
                Got.Precision);
      break;
    }
  }
}

/// The scalar one-thread fold pass of one cell over the whole width-\p Width
/// grid: it walks the grid in serial order (ascending chunks, stopping at
/// a violation), so its counters are the serial-prefix counts a campaign
/// must reproduce -- the oracle for cells under an OperatorOverride.
FoldCell serialFold(BinaryOp Op, unsigned Width, FoldCheck Check,
                    AbstractBinaryFn Abstract) {
  const SweepConfig Serial{/*NumThreads=*/1, /*ChunkPairs=*/1, SimdMode::Off};
  SweepGrid Grid = makeSweepGrid(Width, Serial);
  FoldCell Cell(Check, std::move(Abstract));
  checkFoldRangeParallel(Op, Grid, 0, Grid.TotalPairs, Serial, {&Cell, 1});
  return Cell;
}

//===----------------------------------------------------------------------===//
// Merged reports == serial checkers, across schedulers and shard sizes
//===----------------------------------------------------------------------===//

TEST(Campaign, MergedReportsMatchSerialCheckersAcrossConfigs) {
  for (bool EarlyExit : {true, false}) {
    CampaignSpec Spec = mixedSpec(EarlyExit);
    for (const SweepConfig &Config : kConfigs) {
      for (uint64_t ShardPairs : {uint64_t(100), uint64_t(1000),
                                  uint64_t(1) << 20}) {
        SCOPED_TRACE(testing::Message()
                     << "early-exit " << EarlyExit << " threads "
                     << Config.NumThreads << " shard-pairs " << ShardPairs);
        CampaignIO IO;
        IO.ShardPairs = ShardPairs;
        expectMatchesSerialCheckers(Spec, runCampaign(Spec, IO, Config));
      }
    }
  }
}

TEST(Campaign, EarlyExitSkipsShardsPastTheWitness) {
  CampaignSpec Spec;
  Spec.OptimalityEarlyExit = true;
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Our, 4,
                        CampaignProperty::Optimality});
  CampaignIO IO;
  IO.ShardPairs = 200; // 6561 pairs -> 33 shards; the witness comes early.
  CampaignResult Campaign = runCampaign(Spec, IO, kConfigs[1]);
  ASSERT_TRUE(Campaign.ok()) << Campaign.Error;
  ASSERT_TRUE(Campaign.Complete);
  EXPECT_GT(Campaign.ShardsSkipped, 0u);
  EXPECT_LT(Campaign.ShardsRun, Campaign.ShardsTotal);
  EXPECT_EQ(checkOptimalityExhaustive(BinaryOp::Mul, 4, MulAlgorithm::Our,
                                      /*StopAtFirst=*/true),
            Campaign.Cells[0].Optimality);
}

//===----------------------------------------------------------------------===//
// Kill-and-resume at shard boundaries
//===----------------------------------------------------------------------===//

TEST(Campaign, KillAndResumeMergesBitIdentical) {
  CampaignSpec Spec = mixedSpec(/*EarlyExit=*/true);
  for (const SweepConfig &Config : kConfigs) {
    // Drop the run at several shard boundaries: after 1, 3, and 7 shards.
    for (uint64_t KillAfter : {uint64_t(1), uint64_t(3), uint64_t(7)}) {
      SCOPED_TRACE(testing::Message() << "threads " << Config.NumThreads
                                      << " kill-after " << KillAfter);
      std::string Dir = makeCheckpointDir();
      CampaignIO IO;
      IO.CheckpointDir = Dir;
      IO.ShardPairs = 997; // Prime, so shard edges never align with rows.
      IO.MaxShardsThisRun = KillAfter;
      CampaignResult Killed = runCampaign(Spec, IO, Config);
      ASSERT_TRUE(Killed.ok()) << Killed.Error;
      EXPECT_FALSE(Killed.Complete);
      EXPECT_EQ(Killed.ShardsRun, KillAfter);

      // Resume with a DIFFERENT scheduler (the checkpoint format is
      // scheduling-agnostic) and merge to completion.
      CampaignIO ResumeIO;
      ResumeIO.CheckpointDir = Dir;
      ResumeIO.ShardPairs = IO.ShardPairs;
      ResumeIO.Resume = true;
      CampaignResult Resumed =
          runCampaign(Spec, ResumeIO, kConfigs[KillAfter % 3]);
      ASSERT_TRUE(Resumed.ok()) << Resumed.Error;
      EXPECT_EQ(Resumed.ShardsResumed, KillAfter);
      expectMatchesSerialCheckers(Spec, Resumed);
    }
  }
}

/// Row counts from a checkpoint directory's telemetry.jsonl, by "event".
struct TelemetryRows {
  unsigned Shards = 0;
  unsigned Invocations = 0;
  unsigned Lines = 0;
};

TelemetryRows readTelemetry(const std::string &Dir) {
  TelemetryRows Rows;
  std::ifstream In(Dir + "/telemetry.jsonl");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    ++Rows.Lines;
    EXPECT_EQ(Line.front(), '{') << Line;
    EXPECT_EQ(Line.back(), '}') << Line;
    if (Line.find("\"event\":\"shard\"") != std::string::npos) {
      ++Rows.Shards;
      EXPECT_NE(Line.find("\"wall_s\":"), std::string::npos) << Line;
      EXPECT_NE(Line.find("\"pairs_per_s\":"), std::string::npos) << Line;
    } else if (Line.find("\"event\":\"invocation\"") != std::string::npos) {
      ++Rows.Invocations;
    } else {
      ADD_FAILURE() << "unrecognized telemetry row: " << Line;
    }
  }
  return Rows;
}

TEST(Campaign, TelemetryAccumulatesAcrossKillAndResume) {
  // telemetry.jsonl sits beside the shard store and is append-only: the
  // killed run leaves its heartbeat rows behind and the resume ADDS its
  // own, ending with one shard row per shard EXECUTED (resumed shards
  // are loaded, not re-run, so they heartbeat only once ever) plus one
  // invocation summary per invocation. The file feeds no fingerprint --
  // KillAndResumeMergesBitIdentical above pins the reports regardless.
  CampaignSpec Spec;
  Spec.Cells.push_back({BinaryOp::Add, MulAlgorithm::Our, 4,
                        CampaignProperty::Soundness});
  std::string Dir = makeCheckpointDir();

  CampaignIO IO;
  IO.CheckpointDir = Dir;
  IO.ShardPairs = 997; // 81*81 = 6561 pairs -> 7 shards.
  IO.MaxShardsThisRun = 3;
  CampaignResult Killed = runCampaign(Spec, IO, kConfigs[1]);
  ASSERT_TRUE(Killed.ok()) << Killed.Error;
  EXPECT_FALSE(Killed.Complete);
  ASSERT_EQ(Killed.ShardsRun, 3u);

  TelemetryRows AfterKill = readTelemetry(Dir);
  EXPECT_EQ(AfterKill.Shards, 3u);
  EXPECT_EQ(AfterKill.Invocations, 1u);

  CampaignIO ResumeIO;
  ResumeIO.CheckpointDir = Dir;
  ResumeIO.ShardPairs = IO.ShardPairs;
  ResumeIO.Resume = true;
  CampaignResult Resumed = runCampaign(Spec, ResumeIO, kConfigs[0]);
  ASSERT_TRUE(Resumed.ok()) << Resumed.Error;
  EXPECT_TRUE(Resumed.Complete);
  EXPECT_EQ(Resumed.ShardsResumed, 3u);
  EXPECT_EQ(Resumed.ShardsRun, 4u);

  TelemetryRows AfterResume = readTelemetry(Dir);
  EXPECT_EQ(AfterResume.Shards, 7u);
  EXPECT_EQ(AfterResume.Invocations, 2u);
  EXPECT_GT(AfterResume.Lines, AfterKill.Lines)
      << "resume truncated the telemetry file instead of appending";
}

//===----------------------------------------------------------------------===//
// Multi-invocation --shards split
//===----------------------------------------------------------------------===//

TEST(Campaign, ShardSplitAcrossInvocationsMergesBitIdentical) {
  CampaignSpec Spec = mixedSpec(/*EarlyExit=*/false);
  std::string Dir = makeCheckpointDir();
  // Four invocations executed OUT of order, each its own runCampaign call
  // (as if farmed to four machines); one of them is killed mid-slice and
  // resumed. Whichever invocation sees the last shard completes the merge.
  const unsigned Order[] = {2, 0, 3, 1};
  CampaignResult Last;
  for (unsigned Step = 0; Step != 4; ++Step) {
    CampaignIO IO;
    IO.CheckpointDir = Dir;
    IO.ShardPairs = 1500;
    IO.Shards = 4;
    IO.ShardIndex = Order[Step];
    if (Order[Step] == 3) {
      // Kill this invocation after one shard, then resume it.
      IO.MaxShardsThisRun = 1;
      CampaignResult Killed = runCampaign(Spec, IO, kConfigs[0]);
      ASSERT_TRUE(Killed.ok()) << Killed.Error;
      EXPECT_FALSE(Killed.Complete);
      IO.MaxShardsThisRun = 0;
      IO.Resume = true;
    }
    Last = runCampaign(Spec, IO, kConfigs[Step % 3]);
    ASSERT_TRUE(Last.ok()) << Last.Error;
    EXPECT_EQ(Last.Complete, Step == 3);
  }
  expectMatchesSerialCheckers(Spec, Last);
}

//===----------------------------------------------------------------------===//
// Broken operator through the full checkpoint machinery
//===----------------------------------------------------------------------===//

/// tnum_add, except one specific pair's result drops a member (the
/// ParallelSweepTest idiom): deliberately unsound, deterministic witness.
Tnum brokenAdd(const Tnum &P, const Tnum &Q, unsigned Width) {
  Tnum R = applyAbstractBinary(BinaryOp::Add, P, Q, Width);
  Tnum BadP(1, 2);  // 0b0?1 at width >= 2
  Tnum BadQ(0, 1);  // 0b00?
  if (P == BadP && Q == BadQ)
    return Tnum(R.value(), 0); // Forget the unknown bits: drops members.
  return R;
}

TEST(Campaign, BrokenOperatorWitnessSurvivesKillResumeAndSplit) {
  constexpr unsigned Width = 4;
  CampaignSpec Spec;
  Spec.Cells.push_back({BinaryOp::Add, MulAlgorithm::Our, Width,
                        CampaignProperty::Soundness});
  Spec.OperatorOverride = [](const Tnum &P, const Tnum &Q, unsigned W) {
    return brokenAdd(P, Q, W);
  };
  Spec.OverrideTag = "broken-add-v1";

  SoundnessReport Want =
      serialFold(BinaryOp::Add, Width, FoldCheck::Soundness,
                 [](const Tnum &P, const Tnum &Q) {
                   return brokenAdd(P, Q, Width);
                 })
          .Soundness;
  ASSERT_TRUE(Want.Failure.has_value());

  for (const SweepConfig &Config : kConfigs) {
    SCOPED_TRACE(testing::Message() << "threads " << Config.NumThreads);
    std::string Dir = makeCheckpointDir();
    CampaignIO IO;
    IO.CheckpointDir = Dir;
    IO.ShardPairs = 313;
    IO.MaxShardsThisRun = 2; // Kill after two shards...
    CampaignResult Killed = runCampaign(Spec, IO, Config);
    ASSERT_TRUE(Killed.ok()) << Killed.Error;
    IO.MaxShardsThisRun = 0; // ...and resume to completion.
    IO.Resume = true;
    CampaignResult Campaign = runCampaign(Spec, IO, Config);
    ASSERT_TRUE(Campaign.ok()) << Campaign.Error;
    ASSERT_TRUE(Campaign.Complete);
    EXPECT_EQ(Want, Campaign.Cells[0].Soundness);
    // The failing shard is terminal: the cell needs no shards past it.
    EXPECT_FALSE(Campaign.Cells[0].holds());
  }
}

//===----------------------------------------------------------------------===//
// Durable store guards
//===----------------------------------------------------------------------===//

TEST(Campaign, RefusesCheckpointDirOfDifferentSpec) {
  std::string Dir = makeCheckpointDir();
  CampaignSpec Spec = mixedSpec(/*EarlyExit=*/true);
  CampaignIO IO;
  IO.CheckpointDir = Dir;
  IO.ShardPairs = 997;
  ASSERT_TRUE(runCampaign(Spec, IO, kConfigs[0]).ok());

  // Same directory, different spec (one more cell): must refuse.
  CampaignSpec Other = Spec;
  Other.Cells.push_back({BinaryOp::Xor, MulAlgorithm::Our, 4,
                         CampaignProperty::Soundness});
  CampaignResult Refused = runCampaign(Other, IO, kConfigs[0]);
  EXPECT_FALSE(Refused.ok());
  EXPECT_NE(Refused.Error.find("different campaign"), std::string::npos)
      << Refused.Error;

  // Different ShardPairs changes the manifest: also a different campaign.
  CampaignIO OtherIO = IO;
  OtherIO.ShardPairs = 500;
  EXPECT_FALSE(runCampaign(Spec, OtherIO, kConfigs[0]).ok());
}

TEST(Campaign, RefusesReusingOwnedShardsWithoutResume) {
  std::string Dir = makeCheckpointDir();
  CampaignSpec Spec = mixedSpec(/*EarlyExit=*/true);
  CampaignIO IO;
  IO.CheckpointDir = Dir;
  IO.ShardPairs = 997;
  ASSERT_TRUE(runCampaign(Spec, IO, kConfigs[0]).ok());
  CampaignResult Again = runCampaign(Spec, IO, kConfigs[0]);
  EXPECT_FALSE(Again.ok());
  EXPECT_NE(Again.Error.find("--resume"), std::string::npos) << Again.Error;
  IO.Resume = true;
  CampaignResult Resumed = runCampaign(Spec, IO, kConfigs[0]);
  ASSERT_TRUE(Resumed.ok()) << Resumed.Error;
  // Everything satisfied from disk: nothing re-run.
  EXPECT_EQ(Resumed.ShardsRun, 0u);
  expectMatchesSerialCheckers(Spec, Resumed);
}

TEST(Campaign, StoreRoundTripsShardsAndRejectsForeignFiles) {
  std::string Dir = makeCheckpointDir();
  std::string Error;
  std::optional<CheckpointStore> Store =
      CheckpointStore::open(Dir, /*Fingerprint=*/0xabcdef, /*NumShards=*/4,
                            Error);
  ASSERT_TRUE(Store.has_value()) << Error;
  ShardRecord Record;
  Record.Payload = "pairs 1\nconcrete 2\nseconds 0\n";
  Record.Terminal = true;
  Record.Cell = 7;
  Record.CellFingerprint = 0xFEEDFACE12345678ull;
  ASSERT_TRUE(Store->storeShard(2, Record, Error)) << Error;
  EXPECT_TRUE(Store->hasShard(2));
  EXPECT_FALSE(Store->hasShard(1));
  std::optional<ShardRecord> Loaded = Store->loadShard(2, Error);
  ASSERT_TRUE(Loaded.has_value()) << Error;
  EXPECT_EQ(Loaded->Payload, Record.Payload);
  EXPECT_TRUE(Loaded->Terminal);
  // The v2 per-cell header round-trips: the campaign layer's staleness
  // decision depends on it.
  EXPECT_EQ(Loaded->Cell, Record.Cell);
  EXPECT_EQ(Loaded->CellFingerprint, Record.CellFingerprint);
  for (uint64_t Index : {0, 1, 3})
    EXPECT_FALSE(Store->hasShard(Index)) << Index;

  // removeShard is the invalidated-cell GC; removing twice is fine (a
  // concurrent GC may win the race).
  ASSERT_TRUE(Store->removeShard(2, Error)) << Error;
  EXPECT_FALSE(Store->hasShard(2));
  EXPECT_TRUE(Store->removeShard(2, Error)) << Error;
  ASSERT_TRUE(Store->storeShard(2, Record, Error)) << Error;

  // A store opened with a different fingerprint must refuse the dir.
  EXPECT_FALSE(
      CheckpointStore::open(Dir, /*Fingerprint=*/0x123, 4, Error).has_value());

  // Torn/corrupt shard files are load errors, not silent absences.
  std::string Bogus = Dir + "/shard-00000003.ckpt";
  std::FILE *File = std::fopen(Bogus.c_str(), "w");
  ASSERT_NE(File, nullptr);
  std::fputs("not a shard\n", File);
  std::fclose(File);
  EXPECT_FALSE(Store->loadShard(3, Error).has_value());
  EXPECT_FALSE(Error.empty());
}

TEST(Campaign, RefusesV1CheckpointStoreWithMigrationMessage) {
  // A v1-era store must be refused outright -- its shards carry no
  // per-cell operator fingerprint, so "just reading" it could silently
  // serve verdicts of transfer functions that have since changed.
  std::string Dir = makeCheckpointDir();
  ASSERT_EQ(::mkdir(Dir.c_str(), 0755), 0);
  {
    std::FILE *File = std::fopen((Dir + "/campaign.manifest").c_str(), "w");
    ASSERT_NE(File, nullptr);
    std::fputs("tnums-campaign-manifest v1\n"
               "fingerprint 00000000000000ab\nshards 4\n",
               File);
    std::fclose(File);
  }
  std::string Error;
  EXPECT_FALSE(CheckpointStore::open(Dir, 0xab, 4, Error).has_value());
  EXPECT_NE(Error.find("v1"), std::string::npos) << Error;

  // A stray v1 shard inside an otherwise-v2 store is likewise a load
  // error naming the version, not a generic parse failure.
  std::string V2Dir = makeCheckpointDir();
  std::optional<CheckpointStore> Store =
      CheckpointStore::open(V2Dir, 0xab, 4, Error);
  ASSERT_TRUE(Store.has_value()) << Error;
  {
    std::FILE *File =
        std::fopen((V2Dir + "/shard-00000001.ckpt").c_str(), "w");
    ASSERT_NE(File, nullptr);
    std::fputs("tnums-campaign-shard v1\nfingerprint 00000000000000ab\n"
               "shard 1\nterminal 0\npairs 1\n",
               File);
    std::fclose(File);
  }
  EXPECT_FALSE(Store->loadShard(1, Error).has_value());
  EXPECT_NE(Error.find("v1"), std::string::npos) << Error;
}

TEST(Campaign, OpenSweepsOrphanedTempFilesButSparesLiveWriters) {
  std::string Dir = makeCheckpointDir();
  std::string Error;
  ASSERT_TRUE(CheckpointStore::open(Dir, 0x1, 2, Error).has_value())
      << Error;
  // An old orphan from a writer whose pid cannot exist (beyond
  // PID_MAX_LIMIT), a FRESH temp with the same dead pid (could be a
  // remote farming machine's live writer -- the pid test is only
  // meaningful locally), and a temp owned by THIS live process. The
  // nonces have the 16 hex digits writeFileDurable writes.
  std::string Orphan =
      Dir + "/shard-00000000.ckpt.tmp.536870911.00000000deadbeef";
  std::string FreshDeadPid =
      Dir + "/shard-00000000.ckpt.tmp.536870911.000000000badf00d";
  std::string Live = Dir + "/shard-00000001.ckpt.tmp." +
                     std::to_string(static_cast<long>(::getpid())) +
                     ".0000000000c0ffee";
  // Aged files with dead pids whose names writeFileDurable never writes:
  // no nonce, a foreign suffix, a signed pid. They are not the store's.
  const std::string Foreign[] = {
      Dir + "/notes.tmp.2147483000", Dir + "/my-results.tmp.2147483001.csv",
      Dir + "/shard-00000000.ckpt.tmp.+2147483002.0123456789abcdef"};
  for (const std::string &Path : {Orphan, FreshDeadPid, Live, Foreign[0],
                                  Foreign[1], Foreign[2]}) {
    std::FILE *File = std::fopen(Path.c_str(), "w");
    ASSERT_NE(File, nullptr);
    std::fputs("partial", File);
    std::fclose(File);
  }
  // Age the orphan and the foreign files past the sweep's grace period
  // (an hour is plenty).
  struct utimbuf Old;
  Old.actime = Old.modtime = ::time(nullptr) - 3600;
  for (const std::string &Path : {Orphan, Foreign[0], Foreign[1], Foreign[2]})
    ASSERT_EQ(::utime(Path.c_str(), &Old), 0);
  ASSERT_TRUE(CheckpointStore::open(Dir, 0x1, 2, Error).has_value())
      << Error;
  EXPECT_NE(::access(Orphan.c_str(), F_OK), 0)
      << "dead writer's old temp survived the sweep";
  EXPECT_EQ(::access(FreshDeadPid.c_str(), F_OK), 0)
      << "fresh temp was swept inside the grace period";
  EXPECT_EQ(::access(Live.c_str(), F_OK), 0)
      << "live writer's temp was swept";
  for (const std::string &Path : Foreign)
    EXPECT_EQ(::access(Path.c_str(), F_OK), 0)
        << "a file writeFileDurable never names was swept: " << Path;
  for (const std::string &Path : {FreshDeadPid, Live, Foreign[0], Foreign[1],
                                  Foreign[2]})
    ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Incremental re-verification across transfer-function changes
//===----------------------------------------------------------------------===//

/// our_mul, except one specific pair's result drops members -- the
/// "changed (and now broken) multiplication" the incremental tests swap
/// in. Re-verification must both RE-RUN the mul cells (not serve the old
/// sound verdict from the store) and surface the new witness.
Tnum brokenMul(const Tnum &P, const Tnum &Q, unsigned Width) {
  Tnum R = applyAbstractBinary(BinaryOp::Mul, P, Q, Width);
  Tnum BadP(1, 2); // 0b0?1: members {1, 3}
  Tnum BadQ(0, 1); // 0b00?: members {0, 1}
  if (P == BadP && Q == BadQ)
    return Tnum(R.value(), 0); // Forget the unknown bits: drops members.
  return R;
}

/// The spec the incremental tests run: mul cells of two algorithms plus
/// non-mul neighbors, every property represented.
CampaignSpec incrementalSpec() {
  CampaignSpec Spec;
  Spec.OptimalityEarlyExit = true;
  Spec.Cells.push_back({BinaryOp::Add, MulAlgorithm::Our, 4,
                        CampaignProperty::Soundness});
  Spec.Cells.push_back({BinaryOp::Xor, MulAlgorithm::Our, 4,
                        CampaignProperty::Soundness});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Our, 4,
                        CampaignProperty::Soundness}); // Index 2: the target.
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Kern, 4,
                        CampaignProperty::Soundness});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Our, 4,
                        CampaignProperty::Optimality});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Kern, 5,
                        CampaignProperty::Monotonicity});
  return Spec;
}

constexpr size_t ChangedCellIndex = 2; ///< Mul/Our soundness in the spec.

/// incrementalSpec with our_mul's soundness "implementation changed" to
/// brokenMul: same campaign shape, different cell fingerprint for exactly
/// the Mul/Our soundness cell.
CampaignSpec changedSpec() {
  CampaignSpec Spec = incrementalSpec();
  Spec.OperatorOverride = [](const Tnum &P, const Tnum &Q, unsigned W) {
    return brokenMul(P, Q, W);
  };
  Spec.OverrideTag = "our-mul-changed-v2";
  Spec.OverrideOp = BinaryOp::Mul;
  Spec.OverrideMul = MulAlgorithm::Our;
  return Spec;
}

/// Field-wise comparison of two complete campaign results (the
/// "incremental merge == from-scratch merge" bit-identity assertion).
void expectSameCampaign(const CampaignResult &Want,
                        const CampaignResult &Got) {
  ASSERT_TRUE(Want.ok()) << Want.Error;
  ASSERT_TRUE(Got.ok()) << Got.Error;
  ASSERT_TRUE(Want.Complete);
  ASSERT_TRUE(Got.Complete);
  ASSERT_EQ(Want.Cells.size(), Got.Cells.size());
  for (size_t I = 0; I != Want.Cells.size(); ++I) {
    SCOPED_TRACE(testing::Message() << "cell " << I);
    switch (Want.Cells[I].Cell.Property) {
    case CampaignProperty::Soundness:
      EXPECT_EQ(Want.Cells[I].Soundness, Got.Cells[I].Soundness);
      break;
    case CampaignProperty::Optimality:
      EXPECT_EQ(Want.Cells[I].Optimality, Got.Cells[I].Optimality);
      break;
    case CampaignProperty::Monotonicity:
      EXPECT_EQ(Want.Cells[I].Monotonicity, Got.Cells[I].Monotonicity);
      break;
    case CampaignProperty::Precision:
      EXPECT_EQ(Want.Cells[I].Precision, Got.Cells[I].Precision);
      break;
    }
  }
}

TEST(Campaign, IncrementalResumeReRunsOnlyTheChangedCells) {
  CampaignSpec Spec = incrementalSpec();
  std::string Dir = makeCheckpointDir();
  CampaignIO IO;
  IO.CheckpointDir = Dir;
  IO.ShardPairs = 997; // Prime: shard edges never align with grid rows.
  CampaignResult Baseline = runCampaign(Spec, IO, kConfigs[1]);
  ASSERT_TRUE(Baseline.ok()) << Baseline.Error;
  ASSERT_TRUE(Baseline.Complete);
  ASSERT_TRUE(Baseline.Cells[ChangedCellIndex].holds());

  // "The kernel swapped its mul algorithm": resume the SAME directory
  // with the changed spec, on a different scheduler for good measure.
  CampaignSpec Changed = changedSpec();
  CampaignIO ResumeIO = IO;
  ResumeIO.Resume = true;
  CampaignResult Inc = runCampaign(Changed, ResumeIO, kConfigs[2]);
  ASSERT_TRUE(Inc.ok()) << Inc.Error;
  ASSERT_TRUE(Inc.Complete);

  // Executed-cell accounting: ONLY the changed cell was invalidated and
  // re-run; every other cell was served from the store wholesale.
  EXPECT_GT(Inc.ShardsInvalidated, 0u);
  for (size_t I = 0; I != Inc.Cells.size(); ++I) {
    SCOPED_TRACE(testing::Message() << "cell " << I);
    const CampaignCellResult &Cell = Inc.Cells[I];
    if (I == ChangedCellIndex) {
      EXPECT_GT(Cell.ShardsRun, 0u);
      EXPECT_EQ(Cell.ShardsInvalidated, Cell.ShardsRun);
      EXPECT_EQ(Cell.ShardsResumed, 0u);
    } else {
      EXPECT_EQ(Cell.ShardsRun, 0u);
      EXPECT_EQ(Cell.ShardsInvalidated, 0u);
      EXPECT_EQ(Cell.ShardsResumed, Cell.ShardsMerged);
    }
  }

  // The re-run really used the new implementation: the changed cell now
  // carries the broken mul's witness, with exact serial-prefix counters.
  ASSERT_TRUE(Inc.Cells[ChangedCellIndex].Soundness.Failure.has_value());
  SoundnessReport Want =
      serialFold(BinaryOp::Mul, 4, FoldCheck::Soundness,
                 [](const Tnum &P, const Tnum &Q) {
                   return brokenMul(P, Q, 4);
                 })
          .Soundness;
  EXPECT_EQ(Want, Inc.Cells[ChangedCellIndex].Soundness);

  // And the merged report is bit-identical to a from-scratch run of the
  // changed spec -- reused cells and recomputed cells merge alike.
  CampaignIO FreshIO;
  FreshIO.ShardPairs = IO.ShardPairs;
  CampaignResult Fresh = runCampaign(Changed, FreshIO, kConfigs[0]);
  expectSameCampaign(Fresh, Inc);
}

TEST(Campaign, KillMidIncrementalResumeStaysBitIdentical) {
  CampaignSpec Spec = incrementalSpec();
  std::string Dir = makeCheckpointDir();
  CampaignIO IO;
  IO.CheckpointDir = Dir;
  IO.ShardPairs = 997;
  ASSERT_TRUE(runCampaign(Spec, IO, kConfigs[0]).Complete);

  // Kill the incremental re-run after one shard (some stale shards may
  // already be GC'd but not yet recomputed -- that must not matter)...
  CampaignSpec Changed = changedSpec();
  CampaignIO KillIO = IO;
  KillIO.Resume = true;
  KillIO.MaxShardsThisRun = 1;
  CampaignResult Killed = runCampaign(Changed, KillIO, kConfigs[1]);
  ASSERT_TRUE(Killed.ok()) << Killed.Error;
  EXPECT_EQ(Killed.ShardsRun, 1u);

  // ...then resume to completion under yet another scheduler.
  CampaignIO ResumeIO = IO;
  ResumeIO.Resume = true;
  CampaignResult Inc = runCampaign(Changed, ResumeIO, kConfigs[2]);
  ASSERT_TRUE(Inc.ok()) << Inc.Error;
  ASSERT_TRUE(Inc.Complete);

  CampaignIO FreshIO;
  FreshIO.ShardPairs = IO.ShardPairs;
  CampaignResult Fresh = runCampaign(Changed, FreshIO, kConfigs[0]);
  expectSameCampaign(Fresh, Inc);

  // The unchanged cells were still never recomputed across BOTH
  // incremental invocations.
  for (size_t I = 0; I != Inc.Cells.size(); ++I) {
    if (I == ChangedCellIndex)
      continue;
    EXPECT_EQ(Killed.Cells[I].ShardsRun + Inc.Cells[I].ShardsRun, 0u)
        << "cell " << I;
  }
}

TEST(Campaign, DiffBaselineReportsReuseAndVerdictChanges) {
  CampaignSpec Spec = incrementalSpec();
  std::string Dir = makeCheckpointDir();
  CampaignIO IO;
  IO.CheckpointDir = Dir;
  IO.ShardPairs = 997;
  ASSERT_TRUE(runCampaign(Spec, IO, kConfigs[1]).Complete);

  // Current state of the world: the changed spec, run in memory.
  CampaignSpec Changed = changedSpec();
  CampaignIO MemIO;
  MemIO.ShardPairs = IO.ShardPairs;
  CampaignResult Current = runCampaign(Changed, MemIO, kConfigs[0]);
  ASSERT_TRUE(Current.Complete);

  CampaignDiffResult Diff =
      diffCampaignBaseline(Changed, MemIO, Dir, Current);
  ASSERT_TRUE(Diff.ok()) << Diff.Error;
  ASSERT_EQ(Diff.Cells.size(), Changed.Cells.size());
  EXPECT_EQ(Diff.CellsReused, Changed.Cells.size() - 1);
  EXPECT_EQ(Diff.CellsRerun, 1u);
  EXPECT_EQ(Diff.CellsVerdictChanged, 1u);
  for (size_t I = 0; I != Diff.Cells.size(); ++I) {
    SCOPED_TRACE(testing::Message() << "cell " << I);
    const CampaignCellDiff &Cell = Diff.Cells[I];
    EXPECT_TRUE(Cell.InBaseline);
    EXPECT_TRUE(Cell.BaselineComplete);
    if (I == ChangedCellIndex) {
      EXPECT_FALSE(Cell.Reused);
      EXPECT_TRUE(Cell.VerdictChanged); // Sound before, witness now.
      EXPECT_TRUE(Cell.ReportChanged);
      EXPECT_TRUE(Cell.Baseline.holds());
    } else {
      EXPECT_TRUE(Cell.Reused);
      EXPECT_FALSE(Cell.VerdictChanged);
      EXPECT_FALSE(Cell.ReportChanged);
    }
  }

  // A baseline of a different shape (different ShardPairs) is refused.
  CampaignIO OtherIO = MemIO;
  OtherIO.ShardPairs = 500;
  CampaignResult OtherCurrent = runCampaign(Changed, OtherIO, kConfigs[0]);
  EXPECT_FALSE(
      diffCampaignBaseline(Changed, OtherIO, Dir, OtherCurrent).ok());

  // A nonexistent baseline path is a hard error -- and is NOT created (a
  // typo must not fabricate an empty store and report a clean diff).
  std::string Typo = Dir + "-typo";
  CampaignDiffResult Bad =
      diffCampaignBaseline(Changed, MemIO, Typo, Current);
  EXPECT_FALSE(Bad.ok());
  EXPECT_NE(::access(Typo.c_str(), F_OK), 0)
      << "--diff-baseline created the mistyped directory";
}

//===----------------------------------------------------------------------===//
// Payload-carrying properties: the precision measurement
//===----------------------------------------------------------------------===//

/// Precision cells spanning an optimal operator (add: gap 0 everywhere),
/// a conservatively imprecise one (div), and two mul algorithms -- the
/// histogram-payload merge gets exercised with and without witnesses.
CampaignSpec precisionSpec() {
  CampaignSpec Spec;
  Spec.Cells.push_back({BinaryOp::Add, MulAlgorithm::Our, 4,
                        CampaignProperty::Precision});
  Spec.Cells.push_back({BinaryOp::Div, MulAlgorithm::Our, 4,
                        CampaignProperty::Precision});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Our, 4,
                        CampaignProperty::Precision});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Kern, 4,
                        CampaignProperty::Precision});
  return Spec;
}

TEST(Campaign, PrecisionMergesBitIdenticalToSerialAcrossConfigs) {
  CampaignSpec Spec = precisionSpec();
  for (const SweepConfig &Config : kConfigs) {
    for (uint64_t ShardPairs : {uint64_t(100), uint64_t(1000),
                                uint64_t(1) << 20}) {
      SCOPED_TRACE(testing::Message() << "threads " << Config.NumThreads
                                      << " shard-pairs " << ShardPairs);
      CampaignIO IO;
      IO.ShardPairs = ShardPairs;
      CampaignResult Campaign = runCampaign(Spec, IO, Config);
      expectMatchesSerialCheckers(Spec, Campaign);
      // Gap semantics: add measures optimal (an informational holds());
      // div's conservative imprecision yields a nonzero gap WITH the
      // serial-order worst witness attached.
      EXPECT_TRUE(Campaign.Cells[0].holds());
      EXPECT_EQ(Campaign.Cells[0].Precision.MaxGap, 0u);
      EXPECT_FALSE(Campaign.Cells[0].Precision.Worst.has_value());
      EXPECT_FALSE(Campaign.Cells[1].holds());
      EXPECT_GT(Campaign.Cells[1].Precision.MaxGap, 0u);
      ASSERT_TRUE(Campaign.Cells[1].Precision.Worst.has_value());
      EXPECT_EQ(Campaign.Cells[1].Precision.Worst->Gap,
                Campaign.Cells[1].Precision.MaxGap);
    }
  }
}

TEST(Campaign, PrecisionKillResumeAndSplitStaysBitIdentical) {
  CampaignSpec Spec = precisionSpec();
  for (const SweepConfig &Config : kConfigs) {
    for (uint64_t KillAfter : {uint64_t(1), uint64_t(5)}) {
      SCOPED_TRACE(testing::Message() << "threads " << Config.NumThreads
                                      << " kill-after " << KillAfter);
      std::string Dir = makeCheckpointDir();
      CampaignIO IO;
      IO.CheckpointDir = Dir;
      IO.ShardPairs = 997; // Prime: shard edges never align with rows.
      IO.MaxShardsThisRun = KillAfter;
      CampaignResult Killed = runCampaign(Spec, IO, Config);
      ASSERT_TRUE(Killed.ok()) << Killed.Error;
      EXPECT_FALSE(Killed.Complete);

      // Resume as a 2-way split executed out of order, each slice under a
      // different scheduler; the second slice completes the merge.
      CampaignResult Last;
      for (unsigned Slice : {1u, 0u}) {
        CampaignIO SliceIO;
        SliceIO.CheckpointDir = Dir;
        SliceIO.ShardPairs = IO.ShardPairs;
        SliceIO.Shards = 2;
        SliceIO.ShardIndex = Slice;
        SliceIO.Resume = true;
        Last = runCampaign(Spec, SliceIO, kConfigs[(Slice + KillAfter) % 3]);
        ASSERT_TRUE(Last.ok()) << Last.Error;
      }
      ASSERT_TRUE(Last.Complete);
      expectMatchesSerialCheckers(Spec, Last);
    }
  }
}

TEST(Campaign, RefusesStalePrecisionPayloadVersionWithMigrationMessage) {
  // The payload-format guard: a stored shard whose payload header
  // declares an older serialization version -- but whose cell fingerprint
  // still matches (the fingerprint guards SEMANTIC versions; a payload
  // format revision without a campaignPropertyPayloadVersion bump is
  // exactly the bug this refuses) -- must fail the merge with the
  // migration message, never misparse the old bytes.
  CampaignSpec Spec = precisionSpec();
  std::string Dir = makeCheckpointDir();
  CampaignIO IO;
  IO.CheckpointDir = Dir;
  IO.ShardPairs = 997;
  ASSERT_TRUE(runCampaign(Spec, IO, kConfigs[1]).Complete);

  // Doctor one stored shard's payload header line down a version.
  std::string Shard = Dir + "/shard-00000000.ckpt";
  std::ifstream In(Shard);
  std::string Contents((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  In.close();
  size_t At = Contents.find("payload precision 1\n");
  ASSERT_NE(At, std::string::npos) << Contents;
  Contents.replace(At, std::strlen("payload precision 1\n"),
                   "payload precision 0\n");
  {
    std::ofstream Out(Shard, std::ios::trunc);
    Out << Contents;
  }

  CampaignIO ResumeIO = IO;
  ResumeIO.Resume = true;
  CampaignResult Refused = runCampaign(Spec, ResumeIO, kConfigs[0]);
  EXPECT_FALSE(Refused.ok());
  EXPECT_NE(Refused.Error.find("incompatible payload version"),
            std::string::npos)
      << Refused.Error;
}

/// our_mul, except one pair's result forgets everything it knew: still
/// sound, strictly less precise -- the "precision regression" the diff
/// tests must surface as a report (not verdict) change.
Tnum impreciseMul(const Tnum &P, const Tnum &Q, unsigned Width) {
  if (P == Tnum(1, 2) && Q == Tnum(0, 1))
    return Tnum(0, (uint64_t(1) << Width) - 1); // Top: every bit unknown.
  return applyAbstractBinary(BinaryOp::Mul, P, Q, Width);
}

TEST(Campaign, IncrementalFlipReRunsOnlyTheFlippedPrecisionCells) {
  // Mixed spec: precision cells of two mul algorithms and one non-mul
  // neighbor, plus a mul soundness cell -- the override must invalidate
  // BOTH properties of the overridden operator and nothing else.
  CampaignSpec Spec;
  Spec.Cells.push_back({BinaryOp::Add, MulAlgorithm::Our, 4,
                        CampaignProperty::Precision});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Our, 4,
                        CampaignProperty::Precision}); // Index 1: flipped.
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Kern, 4,
                        CampaignProperty::Precision});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Our, 4,
                        CampaignProperty::Soundness}); // Index 3: flipped.
  std::string Dir = makeCheckpointDir();
  CampaignIO IO;
  IO.CheckpointDir = Dir;
  IO.ShardPairs = 997;
  CampaignResult Baseline = runCampaign(Spec, IO, kConfigs[1]);
  ASSERT_TRUE(Baseline.ok()) << Baseline.Error;
  ASSERT_TRUE(Baseline.Complete);

  // Same semantics under a flipped fingerprint (the --flip-mul idiom).
  CampaignSpec Changed = Spec;
  Changed.OperatorOverride = [](const Tnum &P, const Tnum &Q, unsigned W) {
    return applyAbstractBinary(BinaryOp::Mul, P, Q, W, MulAlgorithm::Our);
  };
  Changed.OverrideTag = "our-mul-flip-v1";
  Changed.OverrideOp = BinaryOp::Mul;
  Changed.OverrideMul = MulAlgorithm::Our;
  CampaignIO ResumeIO = IO;
  ResumeIO.Resume = true;
  CampaignResult Inc = runCampaign(Changed, ResumeIO, kConfigs[2]);
  ASSERT_TRUE(Inc.ok()) << Inc.Error;
  ASSERT_TRUE(Inc.Complete);

  for (size_t I = 0; I != Inc.Cells.size(); ++I) {
    SCOPED_TRACE(testing::Message() << "cell " << I);
    const CampaignCellResult &Cell = Inc.Cells[I];
    if (I == 1 || I == 3) { // Mul/Our cells: re-measured.
      EXPECT_GT(Cell.ShardsRun, 0u);
      EXPECT_EQ(Cell.ShardsInvalidated, Cell.ShardsRun);
      EXPECT_EQ(Cell.ShardsResumed, 0u);
    } else {
      EXPECT_EQ(Cell.ShardsRun, 0u);
      EXPECT_EQ(Cell.ShardsInvalidated, 0u);
      EXPECT_EQ(Cell.ShardsResumed, Cell.ShardsMerged);
    }
  }

  // Byte-identical to a from-scratch run of the changed spec -- and,
  // since the flip preserved semantics, to the original baseline too.
  CampaignIO FreshIO;
  FreshIO.ShardPairs = IO.ShardPairs;
  CampaignResult Fresh = runCampaign(Changed, FreshIO, kConfigs[0]);
  expectSameCampaign(Fresh, Inc);
  expectSameCampaign(Baseline, Inc);
}

TEST(Campaign, DiffBaselineCountsPrecisionDeltas) {
  CampaignSpec Spec = precisionSpec();
  std::string Dir = makeCheckpointDir();
  CampaignIO IO;
  IO.CheckpointDir = Dir;
  IO.ShardPairs = 997;
  ASSERT_TRUE(runCampaign(Spec, IO, kConfigs[1]).Complete);

  // An identical rerun reports zero precision deltas (the CI grep).
  CampaignIO MemIO;
  MemIO.ShardPairs = IO.ShardPairs;
  CampaignResult Same = runCampaign(Spec, MemIO, kConfigs[0]);
  ASSERT_TRUE(Same.Complete);
  CampaignDiffResult CleanDiff = diffCampaignBaseline(Spec, MemIO, Dir, Same);
  ASSERT_TRUE(CleanDiff.ok()) << CleanDiff.Error;
  std::FILE *Clean = std::tmpfile();
  ASSERT_NE(Clean, nullptr);
  EXPECT_EQ(printPrecisionDeltas(Spec, CleanDiff, Same, Clean), 0u);
  std::fclose(Clean);

  // A sound-but-lazier our_mul changes exactly its own precision report:
  // one delta, named, with the gap totals drifting upward.
  CampaignSpec Changed = Spec;
  Changed.OperatorOverride = [](const Tnum &P, const Tnum &Q, unsigned W) {
    return impreciseMul(P, Q, W);
  };
  Changed.OverrideTag = "imprecise-mul-v1";
  Changed.OverrideOp = BinaryOp::Mul;
  Changed.OverrideMul = MulAlgorithm::Our;
  CampaignResult Current = runCampaign(Changed, MemIO, kConfigs[2]);
  ASSERT_TRUE(Current.Complete);
  EXPECT_GT(Current.Cells[2].Precision.SumGap,
            Same.Cells[2].Precision.SumGap);

  CampaignDiffResult Diff = diffCampaignBaseline(Changed, MemIO, Dir,
                                                 Current);
  ASSERT_TRUE(Diff.ok()) << Diff.Error;
  EXPECT_TRUE(Diff.Cells[2].ReportChanged);
  std::FILE *Out = std::tmpfile();
  ASSERT_NE(Out, nullptr);
  EXPECT_EQ(printPrecisionDeltas(Changed, Diff, Current, Out), 1u);
  std::rewind(Out);
  char Buf[512] = {};
  size_t Read = std::fread(Buf, 1, sizeof(Buf) - 1, Out);
  std::fclose(Out);
  std::string Text(Buf, Read);
  EXPECT_NE(Text.find("precision delta mul[our_mul]/w4"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("1 precision deltas vs baseline"), std::string::npos)
      << Text;
}

//===----------------------------------------------------------------------===//
// One pass per grid: the fold-reading cells of one (concrete op, width)
// grid run as one pass per shard range
//===----------------------------------------------------------------------===//

/// One (Mul, width 4) grid: the six soundness cells with kern_mul's
/// replaced by a broken override, the optimality cell (non-optimal at
/// width 4), and two precision cells, kern_mul's overridden.
CampaignSpec groupedMulSpec(bool EarlyExit) {
  CampaignSpec Spec;
  Spec.OptimalityEarlyExit = EarlyExit;
  for (MulAlgorithm Mul : AllMulAlgorithms) // Kern first: cell 0.
    Spec.Cells.push_back({BinaryOp::Mul, Mul, 4, CampaignProperty::Soundness});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Our, 4,
                        CampaignProperty::Optimality}); // Cell 6.
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Our, 4,
                        CampaignProperty::Precision});
  Spec.Cells.push_back({BinaryOp::Mul, MulAlgorithm::Kern, 4,
                        CampaignProperty::Precision});
  Spec.OperatorOverride = [](const Tnum &P, const Tnum &Q, unsigned W) {
    return brokenMul(P, Q, W);
  };
  Spec.OverrideTag = "broken-kern-mul-v1";
  Spec.OverrideOp = BinaryOp::Mul;
  Spec.OverrideMul = MulAlgorithm::Kern;
  return Spec;
}

constexpr size_t BrokenCellIndex = 0;     ///< Kern soundness, overridden.
constexpr size_t OptimalityCellIndex = 6; ///< Stops early with early exit.

TEST(Campaign, GroupedMulPassMatchesTheScalarOracle) {
  const AbstractBinaryFn Broken = [](const Tnum &P, const Tnum &Q) {
    return brokenMul(P, Q, 4);
  };
  const FoldCell BrokenSound =
      serialFold(BinaryOp::Mul, 4, FoldCheck::Soundness, Broken);
  ASSERT_TRUE(BrokenSound.FailureIndex.has_value());
  const PrecisionReport BrokenPrecision =
      serialFold(BinaryOp::Mul, 4, FoldCheck::Precision, Broken).Precision;
  const std::optional<uint64_t> OptimalityWitness =
      serialFold(BinaryOp::Mul, 4, FoldCheck::OptimalityFirst,
                 [](const Tnum &P, const Tnum &Q) {
                   return applyAbstractBinary(BinaryOp::Mul, P, Q, 4);
                 })
          .FailureIndex;
  ASSERT_TRUE(OptimalityWitness.has_value());

  for (bool EarlyExit : {true, false}) {
    const CampaignSpec Spec = groupedMulSpec(EarlyExit);
    for (SweepConfig Config : kConfigs) {
      for (SimdMode Mode : {SimdMode::Auto, SimdMode::Off}) {
        Config.Simd = Mode;
        for (uint64_t ShardPairs : {uint64_t(100), uint64_t(997),
                                    uint64_t(1) << 20}) {
          SCOPED_TRACE(testing::Message()
                       << "early-exit " << EarlyExit << " threads "
                       << Config.NumThreads << " " << simdModeName(Mode)
                       << " shard-pairs " << ShardPairs);
          CampaignIO IO;
          IO.ShardPairs = ShardPairs;
          CampaignResult Campaign = runCampaign(Spec, IO, Config);
          ASSERT_TRUE(Campaign.ok()) << Campaign.Error;
          ASSERT_TRUE(Campaign.Complete);
          const std::vector<CampaignCellResult> &Cells = Campaign.Cells;
          for (size_t I = 1; I != 6; ++I)
            EXPECT_EQ(checkSoundnessExhaustive(BinaryOp::Mul, 4,
                                               Spec.Cells[I].Mul),
                      Cells[I].Soundness)
                << mulAlgorithmName(Spec.Cells[I].Mul);
          EXPECT_EQ(BrokenSound.Soundness, Cells[BrokenCellIndex].Soundness);
          EXPECT_EQ(checkOptimalityExhaustive(BinaryOp::Mul, 4,
                                              MulAlgorithm::Our, EarlyExit),
                    Cells[OptimalityCellIndex].Optimality);
          EXPECT_EQ(measurePrecisionGap(BinaryOp::Mul, 4, MulAlgorithm::Our),
                    Cells[7].Precision);
          EXPECT_EQ(BrokenPrecision, Cells[8].Precision);

          // The stopping cells skip their shards past the witness; every
          // peer runs all of its own.
          const uint64_t Total = Cells[0].ShardsTotal;
          auto ranThrough = [&](uint64_t Index) {
            return Index / ShardPairs + 1;
          };
          for (size_t I = 0; I != Cells.size(); ++I) {
            SCOPED_TRACE(testing::Message() << "cell " << I);
            uint64_t Run = Total;
            if (I == BrokenCellIndex)
              Run = ranThrough(*BrokenSound.FailureIndex);
            if (I == OptimalityCellIndex && EarlyExit)
              Run = ranThrough(*OptimalityWitness);
            EXPECT_EQ(Cells[I].ShardsTotal, Total);
            EXPECT_EQ(Cells[I].ShardsRun, Run);
            EXPECT_EQ(Cells[I].ShardsSkipped, Total - Run);
          }
        }
      }
    }
  }
}

TEST(Campaign, GroupedShardSplitKeepsEachInvocationToItsOwnShards) {
  const CampaignSpec Spec = groupedMulSpec(/*EarlyExit=*/true);
  CampaignIO IO;
  IO.ShardPairs = 997;
  const CampaignResult Whole = runCampaign(Spec, IO, kConfigs[0]);

  const std::string Dir = makeCheckpointDir();
  std::set<uint64_t> Stored;
  CampaignResult Last;
  for (unsigned Index : {0u, 1u}) {
    SCOPED_TRACE(testing::Message() << "shard index " << Index);
    CampaignIO Split = IO;
    Split.CheckpointDir = Dir;
    Split.Shards = 2;
    Split.ShardIndex = Index;
    Last = runCampaign(Spec, Split, kConfigs[Index + 1]);
    ASSERT_TRUE(Last.ok()) << Last.Error;
    EXPECT_GT(Last.ShardsRun, 0u);
    std::string Error;
    std::optional<CheckpointStore> Store = CheckpointStore::open(
        Dir, campaignFingerprint(Spec, Split), Last.ShardsTotal, Error);
    ASSERT_TRUE(Store.has_value()) << Error;
    uint64_t Added = 0;
    for (uint64_t Id = 0; Id != Last.ShardsTotal; ++Id)
      if (Store->hasShard(Id) && Stored.insert(Id).second) {
        ++Added;
        EXPECT_EQ(Id % 2, Index) << "shard " << Id;
      }
    EXPECT_EQ(Added, Last.ShardsRun);
  }
  EXPECT_TRUE(Last.Complete);
  expectSameCampaign(Whole, Last);
}

/// Sums the "wall_s" of every shard heartbeat in \p Dir's telemetry.jsonl.
double heartbeatSeconds(const std::string &Dir) {
  std::ifstream In(Dir + "/telemetry.jsonl");
  std::string Line;
  double Sum = 0;
  while (std::getline(In, Line)) {
    size_t At = Line.find("\"wall_s\":");
    if (Line.find("\"event\":\"shard\"") != std::string::npos &&
        At != std::string::npos)
      Sum += std::strtod(Line.c_str() + At + std::strlen("\"wall_s\":"),
                         nullptr);
  }
  return Sum;
}

TEST(Campaign, GroupedCellSecondsShareThePassWallTime) {
  // Nine cells of one grid run as one pass per shard range. Each shard is
  // booked an even share of its pass, so per-cell seconds (and shard
  // heartbeats) still add up to compute time rather than counting every
  // pass nine times.
  const CampaignSpec Spec = groupedMulSpec(/*EarlyExit=*/false);
  for (bool Checkpointed : {false, true}) {
    SCOPED_TRACE(testing::Message() << "checkpointed " << Checkpointed);
    CampaignIO IO;
    if (Checkpointed)
      IO.CheckpointDir = makeCheckpointDir();
    const auto Start = std::chrono::steady_clock::now();
    CampaignResult Campaign = runCampaign(Spec, IO, kConfigs[0]);
    const std::chrono::duration<double> Wall =
        std::chrono::steady_clock::now() - Start;
    ASSERT_TRUE(Campaign.ok()) << Campaign.Error;
    ASSERT_TRUE(Campaign.Complete);
    double Seconds = 0;
    for (const CampaignCellResult &Cell : Campaign.Cells)
      Seconds += Cell.Seconds;
    EXPECT_GT(Seconds, 0.0);
    EXPECT_LE(Seconds, Wall.count());
    if (Checkpointed) {
      double Heartbeats = heartbeatSeconds(IO.CheckpointDir);
      EXPECT_GT(Heartbeats, 0.0);
      EXPECT_LE(Heartbeats, Wall.count());
    }
  }
}

//===----------------------------------------------------------------------===//
// Stored records load only as their writer spells them
//===----------------------------------------------------------------------===//

/// Replaces the first \p From in \p Path with \p To; false if absent.
bool editFile(const std::string &Path, const std::string &From,
              const std::string &To) {
  std::ifstream In(Path);
  std::string Contents((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  In.close();
  size_t At = Contents.find(From);
  if (At == std::string::npos)
    return false;
  Contents.replace(At, From.size(), To);
  std::ofstream Out(Path, std::ios::trunc);
  Out << Contents;
  return true;
}

TEST(Campaign, RefusesSignedCountersInStoredShards) {
  // strtoull reads "-256" as 2^64 - 256: a sign in a stored counter or
  // witness word must make the shard malformed, on resume and in a
  // baseline diff alike. So must a seconds field that is not a finite,
  // non-negative decimal (strtod takes "-", "nan", and stops at "x"), and
  // any other spelling the payload's writer would not write back: a "+",
  // extra space, a leading zero, a "0x", a duplicate, unknown or keyless
  // line, or an extra witness word (which would shift every word after
  // it into the wrong field).
  const CampaignCell Add{BinaryOp::Add, MulAlgorithm::Our, 3,
                         CampaignProperty::Soundness};
  const CampaignCell Div{BinaryOp::Div, MulAlgorithm::Our, 3,
                         CampaignProperty::Precision};
  struct Case {
    CampaignCell Cell;
    const char *From;
    const char *To;
  };
  const Case Cases[] = {
      {Add, "\nconcrete ", "\nconcrete -"},
      {{BinaryOp::Mul, MulAlgorithm::Our, 3, CampaignProperty::Optimality},
       "\noptimal ", "\noptimal -"},
      {{BinaryOp::Mul, MulAlgorithm::Kern, 3, CampaignProperty::Monotonicity},
       "\nquadruples ", "\nquadruples -"},
      {Div, "\npairs ", "\npairs -"},
      {Div, "\nwitness ", "\nwitness -"},
      {Add, "\nseconds ", "\nseconds -"},
      {{BinaryOp::Mul, MulAlgorithm::Our, 3, CampaignProperty::Optimality},
       "\nseconds ", "\nseconds nan"},
      {Div, "\nseconds ", "\nseconds x"},
      {Add, "\npairs ", "\npairs +"},
      {Add, "\npairs ", "\npairs  "},
      {Add, "\npairs ", "\npairs \t"},
      {Add, "\npairs ", "\npairs 0"},
      {Add, "\npairs 729\n", "\npairs 729\npairs 729\n"},
      {Add, "\nseconds ", "\nnospace\nseconds "},
      {Add, "\nseconds ", "\nunknown 1\nseconds "},
      {Div, "\nwitness ", "\nwitness 0x"},
      {Div, "\nwitness ", "\nwitness 0000000000000000 "},
  };
  for (const Case &C : Cases) {
    const char *Name = campaignPropertyName(C.Cell.Property);
    SCOPED_TRACE(testing::Message() << Name << " " << C.To);
    CampaignSpec Spec;
    Spec.Cells.push_back(C.Cell);
    CampaignIO IO;
    IO.CheckpointDir = makeCheckpointDir();
    CampaignResult Clean = runCampaign(Spec, IO, kConfigs[0]);
    ASSERT_TRUE(Clean.Complete) << Clean.Error;
    ASSERT_TRUE(editFile(IO.CheckpointDir + "/shard-00000000.ckpt", C.From,
                         C.To));
    const std::string Malformed =
        formatString("malformed %s shard payload", Name);

    CampaignIO ResumeIO = IO;
    ResumeIO.Resume = true;
    CampaignResult Resumed = runCampaign(Spec, ResumeIO, kConfigs[0]);
    EXPECT_FALSE(Resumed.ok());
    EXPECT_NE(Resumed.Error.find(Malformed), std::string::npos)
        << Resumed.Error;

    CampaignDiffResult Diff =
        diffCampaignBaseline(Spec, CampaignIO(), IO.CheckpointDir, Clean);
    EXPECT_FALSE(Diff.ok());
    EXPECT_NE(Diff.Error.find(Malformed), std::string::npos) << Diff.Error;
  }

  // The shard file's own header fields and the manifest are spelled as
  // their writer spells them, too.
  struct StoreCase {
    const char *File;
    const char *From;
    const char *To;
    const char *Refusal;
  };
  const StoreCase StoreCases[] = {
      {"shard-00000000.ckpt", "\ncell 0\n", "\ncell -0\n",
       "not a v2 campaign shard"},
      {"shard-00000000.ckpt", "\nfingerprint ", "\nfingerprint 0x",
       "not a v2 campaign shard"},
      {"shard-00000000.ckpt", "\ncell 0\n", "\ncell 00\n",
       "not a v2 campaign shard"},
      {"shard-00000000.ckpt", "\nterminal 0\n", "\nterminal +0\n",
       "not a v2 campaign shard"},
      {"campaign.manifest", "\nshards ", "\nshards +",
       "not a v2 campaign manifest"},
  };
  for (const StoreCase &C : StoreCases) {
    SCOPED_TRACE(testing::Message() << C.File << " " << C.To);
    CampaignSpec Spec;
    Spec.Cells.push_back(Add);
    CampaignIO IO;
    IO.CheckpointDir = makeCheckpointDir();
    CampaignResult Clean = runCampaign(Spec, IO, kConfigs[0]);
    ASSERT_TRUE(Clean.Complete) << Clean.Error;
    ASSERT_TRUE(editFile(IO.CheckpointDir + "/" + C.File, C.From, C.To));
    IO.Resume = true;
    CampaignResult Resumed = runCampaign(Spec, IO, kConfigs[0]);
    EXPECT_FALSE(Resumed.ok());
    EXPECT_NE(Resumed.Error.find(C.Refusal), std::string::npos)
        << Resumed.Error;
  }
}

//===----------------------------------------------------------------------===//
// Witness corpora
//===----------------------------------------------------------------------===//

TEST(Campaign, WitnessCorpusRoundTripsAndRefusesDamagedLines) {
  // The worst-case pairs of every mul algorithm at width 4 and of div at
  // width 3, collected as precision_atlas collects them.
  CampaignSpec Spec;
  for (MulAlgorithm Mul : AllMulAlgorithms)
    Spec.Cells.push_back({BinaryOp::Mul, Mul, 4, CampaignProperty::Precision});
  Spec.Cells.push_back(
      {BinaryOp::Div, MulAlgorithm::Our, 3, CampaignProperty::Precision});
  CampaignResult Campaign = runCampaign(Spec, CampaignIO(), kConfigs[0]);
  ASSERT_TRUE(Campaign.Complete) << Campaign.Error;
  std::vector<WitnessPair> Pairs;
  for (const CampaignCellResult &Cell : Campaign.Cells)
    if (const std::optional<PrecisionWitness> &W = Cell.Precision.Worst)
      Pairs.push_back({Cell.Cell.Op, Cell.Cell.Mul, Cell.Cell.Width, W->P,
                       W->Q, W->Gap});
  ASSERT_EQ(Pairs.size(), Spec.Cells.size());
  const std::string Text = encodeWitnessCorpus(Pairs);
  std::string Error;
  EXPECT_EQ(parseWitnessCorpus(Text, "atlas", Error), Pairs) << Error;
  EXPECT_EQ(parseWitnessCorpus("tnums-witness-corpus v1\n", "empty", Error),
            std::vector<WitnessPair>());

  // Each damaged line, appended after the good ones, refuses the whole
  // corpus with its line number -- never a replay of the pairs before it.
  const std::string Line = formatString("%zu", Pairs.size() + 2);
  for (const char *Bad : {
           "pair mul our_mul 4 -1 0 0 0 0\n",  // signed word
           "pair mul our_mul 4 0x1 0 0 0 0\n", // prefixed word
           "pair mul our_mul 4 01 0 0 0 0\n",  // leading zero
           "pair mul our_mul 4 A 0 0 0 0\n",   // upper case
           "pair mul our_mul 4 1 1 0 0 0\n",   // v & m != 0
           "pair mul our_mul 4 10 0 0 0 0\n",  // wider than width 4
           "pair mul our_mul 4 1 0 0 f 5\n",   // gap above the width
           "pair mul our_mul 0 0 0 0 0 0\n",   // width 0
           "pair mul our_mul 65 0 0 0 0 0\n",  // width 65
           "pair pow our_mul 4 1 0 0 0 0\n",   // op not in the roster
           "pair mul my_mul 4 1 0 0 0 0\n",    // algorithm not in it
           "pair mul our_mul 4 1 0 0 0 0 0\n", // extra word
           "pair mul our_mul 4 1 0 0 0\n",     // missing word
           "pair  mul our_mul 4 1 0 0 0 0\n",  // double space
           "pair mul our_mul 4 1 0 0 0 0",      // no final newline
           "\n"}) {
    SCOPED_TRACE(Bad);
    Error.clear();
    EXPECT_FALSE(parseWitnessCorpus(Text + Bad, "damaged", Error));
    EXPECT_NE(Error.find("damaged:" + Line + ":"), std::string::npos)
        << Error;
  }
  EXPECT_FALSE(parseWitnessCorpus("tnums-witness-corpus v2\n", "v2", Error));
  EXPECT_NE(Error.find("v2:1:"), std::string::npos) << Error;
}

} // namespace
