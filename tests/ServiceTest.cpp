//===- tests/ServiceTest.cpp - Batched verification service ---------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks down the batch engine's determinism contract (bit-identical
/// results across thread counts, chunk sizes, and repeated runs), its
/// agreement with the single-program verifyProgram path (which also pins
/// the reusable per-worker Analyzer against the bind-once constructor),
/// the StopAtFirstReject cancellation protocol, and the end-to-end
/// differential fuzz smoke the default ctest tier runs.
///
//===----------------------------------------------------------------------===//

#include "service/DifferentialFuzz.h"
#include "service/ProgramGen.h"
#include "service/VerificationService.h"

#include "bpf/Builder.h"

#include <gtest/gtest.h>

#include <random>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace {

constexpr uint64_t MemSize = 32;

std::vector<VerifyRequest> makeBatch(uint64_t Seed, uint64_t Count,
                                     GenProfile Profile = GenProfile::Mixed) {
  GenOptions Opts;
  Opts.Profile = Profile;
  Opts.MemSize = MemSize;
  ProgramGen Gen(Seed, Opts);
  std::vector<VerifyRequest> Requests;
  Requests.reserve(Count);
  for (uint64_t I = 0; I != Count; ++I) {
    VerifyRequest Request;
    Request.Prog = Gen.next();
    Request.MemSize = MemSize;
    Requests.push_back(std::move(Request));
  }
  return Requests;
}

TEST(Service, AgreesWithSingleProgramVerifierIncludingStates) {
  std::vector<VerifyRequest> Requests = makeBatch(11, 120);
  ServiceConfig Config;
  Config.NumThreads = 4;
  Config.ChunkPrograms = 7; // Deliberately odd chunking.
  Config.KeepStates = true;
  BatchResult Batch = VerificationService(Config).verifyBatch(Requests);
  ASSERT_EQ(Batch.Results.size(), Requests.size());

  for (size_t I = 0; I != Requests.size(); ++I) {
    const VerifyResult &R = Batch.Results[I];
    ASSERT_TRUE(R.Done);
    // The reference path constructs a fresh Analyzer per program; the
    // service reuses one engine per worker. Verdicts, violations, AND the
    // full fixpoint state tables must agree exactly.
    VerifierReport Ref = verifyProgram(Requests[I].Prog, MemSize);
    EXPECT_EQ(R.Accepted, Ref.Accepted);
    EXPECT_EQ(R.StructuralError, Ref.StructuralError);
    ASSERT_EQ(R.Violations.size(), Ref.Violations.size());
    for (size_t V = 0; V != R.Violations.size(); ++V) {
      EXPECT_EQ(R.Violations[V].Pc, Ref.Violations[V].Pc);
      EXPECT_EQ(R.Violations[V].Message, Ref.Violations[V].Message);
    }
    ASSERT_EQ(R.InStates.size(), Ref.InStates.size());
    for (size_t S = 0; S != R.InStates.size(); ++S)
      EXPECT_TRUE(R.InStates[S] == Ref.InStates[S]) << "state " << S;
  }
}

TEST(Service, BitIdenticalAcrossJobsChunksAndReruns) {
  std::vector<VerifyRequest> Requests = makeBatch(2022, 300);

  std::vector<uint64_t> Fingerprints;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    ServiceConfig Config;
    Config.NumThreads = Jobs;
    Fingerprints.push_back(
        verdictFingerprint(VerificationService(Config).verifyBatch(Requests)));
  }
  // A hostile chunking (1 program per chunk) and a rerun of the first
  // configuration must also agree.
  ServiceConfig Fine;
  Fine.NumThreads = 8;
  Fine.ChunkPrograms = 1;
  Fingerprints.push_back(
      verdictFingerprint(VerificationService(Fine).verifyBatch(Requests)));
  ServiceConfig Rerun;
  Rerun.NumThreads = 1;
  Fingerprints.push_back(
      verdictFingerprint(VerificationService(Rerun).verifyBatch(Requests)));

  for (uint64_t F : Fingerprints)
    EXPECT_EQ(F, Fingerprints.front());

  // Same seed, fresh generation: identical batch, identical fingerprint.
  std::vector<VerifyRequest> Again = makeBatch(2022, 300);
  EXPECT_EQ(verdictFingerprint(
                VerificationService(ServiceConfig()).verifyBatch(Again)),
            Fingerprints.front());

  // A different seed must not collide (this would catch a fingerprint
  // that ignores its inputs).
  std::vector<VerifyRequest> Other = makeBatch(2023, 300);
  EXPECT_NE(verdictFingerprint(
                VerificationService(ServiceConfig()).verifyBatch(Other)),
            Fingerprints.front());
}

TEST(Service, StatsAccountForEveryVerdict) {
  std::vector<VerifyRequest> Requests = makeBatch(5, 200);
  // Add one structurally invalid program (hand-rolled out-of-range jump).
  {
    std::vector<Insn> Bad;
    Bad.push_back(Insn::ja(5));
    Bad.push_back(Insn::exit());
    VerifyRequest Request;
    Request.Prog = Program(std::move(Bad));
    Request.MemSize = MemSize;
    Requests.push_back(std::move(Request));
  }
  BatchResult Batch =
      VerificationService(ServiceConfig()).verifyBatch(Requests);
  EXPECT_EQ(Batch.Stats.Programs, Requests.size());
  EXPECT_EQ(Batch.Stats.Accepted + Batch.Stats.RejectedStructural +
                Batch.Stats.RejectedSemantic,
            Batch.Stats.Programs);
  EXPECT_GE(Batch.Stats.RejectedStructural, 1u);
  EXPECT_GT(Batch.Stats.InsnVisits, 0u);
  ASSERT_TRUE(Batch.FirstRejected.has_value());
  // FirstRejected is the first rejected index in serial order.
  for (size_t I = 0; I != *Batch.FirstRejected; ++I)
    EXPECT_TRUE(Batch.Results[I].Accepted);
  EXPECT_FALSE(Batch.Results[*Batch.FirstRejected].Accepted);
}

TEST(Service, StopAtFirstRejectMatchesSerialOrderFirstReject) {
  std::vector<VerifyRequest> Requests = makeBatch(17, 400);

  BatchResult Full =
      VerificationService(ServiceConfig()).verifyBatch(Requests);
  ASSERT_TRUE(Full.FirstRejected.has_value())
      << "batch has no reject; pick another seed";

  for (unsigned Jobs : {1u, 2u, 8u}) {
    ServiceConfig Config;
    Config.NumThreads = Jobs;
    Config.ChunkPrograms = 16;
    Config.StopAtFirstReject = true;
    BatchResult Stopped = VerificationService(Config).verifyBatch(Requests);
    ASSERT_TRUE(Stopped.FirstRejected.has_value());
    // The cancellation protocol (cancel strictly above the lowest
    // rejecting chunk, always finish at or below) makes the witness exact
    // for every scheduler interleaving.
    EXPECT_EQ(*Stopped.FirstRejected, *Full.FirstRejected);
    for (size_t I = 0; I <= *Full.FirstRejected; ++I)
      EXPECT_TRUE(Stopped.Results[I].Done) << "index " << I;
    // And the work performed never exceeds the full scan.
    EXPECT_LE(Stopped.Stats.Programs, Full.Stats.Programs);
  }
}

TEST(Service, StopAtFirstRejectWithDedupKeepsSerialFirstIndex) {
  // StopAtFirstReject x DedupPrograms: dedup compacts the batch into a
  // unique stream before chunking, so the rejecting program's scheduled
  // (canonical) instance can sit in a different chunk -- and a different
  // pool worker -- than its request index suggests, and its duplicates
  // elsewhere in the batch are backfilled, not run. FirstRejected must
  // still be the exact serial-order first rejected REQUEST index.
  std::vector<VerifyRequest> Base = makeBatch(99, 40, GenProfile::AluMix);
  for (VerifyRequest &Request : makeBatch(17, 400))
    Base.push_back(std::move(Request));
  BatchResult Probe = VerificationService(ServiceConfig()).verifyBatch(Base);
  ASSERT_TRUE(Probe.FirstRejected.has_value())
      << "batch has no reject; pick another seed";
  size_t BaseFirst = *Probe.FirstRejected;
  ASSERT_GT(BaseFirst, 2u) << "need accepted programs before the reject";

  // Skew the unique stream: duplicates of early ACCEPTED programs before
  // the first reject (they dedup away, shifting every later unique
  // position), and duplicates of the rejecting program itself later in
  // the batch (their canonical instance is the serial-first reject).
  std::vector<VerifyRequest> Requests;
  for (size_t I = 0; I != Base.size(); ++I) {
    if (I < BaseFirst && I % 3 == 0)
      Requests.push_back(Base[I % 2]); // Duplicate of an accepted program.
    Requests.push_back(Base[I]);
    if (I == BaseFirst + 50 || I + 1 == Base.size())
      Requests.push_back(Base[BaseFirst]); // Late duplicate of the reject.
  }

  // Ground truth: full scan, dedup off.
  ServiceConfig FullConfig;
  FullConfig.DedupPrograms = false;
  BatchResult Full = VerificationService(FullConfig).verifyBatch(Requests);
  ASSERT_TRUE(Full.FirstRejected.has_value());

  for (unsigned Jobs : {1u, 2u, 8u}) {
    for (uint64_t Chunk : {uint64_t(1), uint64_t(7), uint64_t(16)}) {
      SCOPED_TRACE(testing::Message()
                   << "jobs " << Jobs << " chunk " << Chunk);
      ServiceConfig Config;
      Config.NumThreads = Jobs;
      Config.ChunkPrograms = Chunk;
      Config.StopAtFirstReject = true;
      Config.DedupPrograms = true;
      BatchResult Stopped =
          VerificationService(Config).verifyBatch(Requests);
      ASSERT_TRUE(Stopped.FirstRejected.has_value());
      EXPECT_EQ(*Stopped.FirstRejected, *Full.FirstRejected);
      // Every request at or below the witness is filled, and agrees with
      // the full scan.
      for (size_t I = 0; I <= *Full.FirstRejected; ++I) {
        ASSERT_TRUE(Stopped.Results[I].Done) << "index " << I;
        EXPECT_EQ(Stopped.Results[I].Accepted, Full.Results[I].Accepted)
            << "index " << I;
      }
    }
  }
}

TEST(Service, FuzzFlagsZeroCoverageCampaigns) {
  // A step budget so small every accepted program exhausts it on every
  // run: individually tolerated (oracle 1's StepLimit contract), but the
  // campaign as a whole checked nothing and must say so instead of
  // reporting a vacuous clean pass.
  FuzzConfig Config;
  Config.Programs = 60;
  Config.StepLimit = 1;
  FuzzReport Report = runDifferentialFuzz(0xF00D, Config);
  ASSERT_GT(Report.Accepted, 0u);
  EXPECT_EQ(Report.ZeroCoveragePrograms, Report.Accepted);
  EXPECT_FALSE(Report.clean());
  ASSERT_EQ(Report.Findings.size(), 1u);
  EXPECT_EQ(Report.Findings[0].Kind, "zero-coverage-campaign");

  // The same campaign with a real budget has coverage and is clean.
  Config.StepLimit = 1 << 20;
  FuzzReport Healthy = runDifferentialFuzz(0xF00D, Config);
  EXPECT_LT(Healthy.ZeroCoveragePrograms, Healthy.Accepted);
  EXPECT_TRUE(Healthy.clean()) << Healthy.toString();
}

TEST(Service, DifferentialFuzzSmokeFindsNothing) {
  // The default-tier fuzz smoke from the issue checklist: N ~= 500
  // programs across the whole scenario space, mutants included, on the
  // multithreaded service. Any finding is a soundness bug somewhere in
  // the generator -> analyzer -> interpreter stack.
  FuzzConfig Config;
  Config.Programs = 500;
  FuzzReport Report = runDifferentialFuzz(0xF00D, Config);
  EXPECT_EQ(Report.Programs, 500u);
  EXPECT_GT(Report.Accepted, 0u);
  EXPECT_GT(Report.ConcreteRuns, 0u);
  for (const FuzzFinding &Finding : Report.Findings)
    ADD_FAILURE() << Finding.Kind << " at program " << Finding.ProgramIndex
                  << ":\n"
                  << Finding.Details;
  EXPECT_TRUE(Report.clean()) << Report.toString();
}

TEST(Service, DedupServesDuplicatesBitIdentically) {
  // A batch with deliberate duplicates: every program appears three times,
  // interleaved, under distinct request indices.
  std::vector<VerifyRequest> Base = makeBatch(23, 40);
  std::vector<VerifyRequest> Requests;
  for (const VerifyRequest &Request : Base)
    for (int Copy = 0; Copy != 3; ++Copy)
      Requests.push_back(Request);

  ServiceConfig On;
  On.NumThreads = 4;
  On.ChunkPrograms = 5;
  On.KeepStates = true;
  ServiceConfig Off = On;
  Off.DedupPrograms = false;
  BatchResult WithDedup = VerificationService(On).verifyBatch(Requests);
  BatchResult Without = VerificationService(Off).verifyBatch(Requests);

  // Verdicts are a pure function of the request, so dedup must be
  // invisible in the results -- fingerprint included -- and visible only
  // in the stats.
  EXPECT_EQ(verdictFingerprint(WithDedup), verdictFingerprint(Without));
  ASSERT_EQ(WithDedup.Results.size(), Without.Results.size());
  for (size_t I = 0; I != WithDedup.Results.size(); ++I) {
    const VerifyResult &A = WithDedup.Results[I];
    const VerifyResult &B = Without.Results[I];
    EXPECT_EQ(A.Accepted, B.Accepted);
    EXPECT_EQ(A.InsnVisits, B.InsnVisits);
    ASSERT_EQ(A.InStates.size(), B.InStates.size());
    for (size_t S = 0; S != A.InStates.size(); ++S)
      EXPECT_TRUE(A.InStates[S] == B.InStates[S]) << "request " << I;
  }
  // At least the 80 appended copies were served from the cache (the
  // generator may emit its own collisions on top).
  EXPECT_GE(WithDedup.Stats.DedupHits, 2 * Base.size());
  EXPECT_EQ(Without.Stats.DedupHits, 0u);
  // Aggregate stats stay exact batch totals either way.
  EXPECT_EQ(WithDedup.Stats.Programs, Without.Stats.Programs);
  EXPECT_EQ(WithDedup.Stats.Accepted, Without.Stats.Accepted);
  EXPECT_EQ(WithDedup.Stats.InsnVisits, Without.Stats.InsnVisits);
  EXPECT_EQ(WithDedup.FirstRejected, Without.FirstRejected);
}

TEST(Service, DedupDistinguishesOptionsAndNearMisses) {
  std::vector<VerifyRequest> Requests = makeBatch(5, 1);
  // Same program, different context size: NOT a duplicate (verdicts can
  // differ -- a bounds check valid at 64 bytes may be invalid at 32).
  VerifyRequest BiggerMem = Requests[0];
  BiggerMem.MemSize = 64;
  Requests.push_back(BiggerMem);
  // Same program, different analyzer budget: also not a duplicate.
  VerifyRequest TighterBudget = Requests[0];
  TighterBudget.AnalyzerOpts.MaxInsnVisits = 128;
  Requests.push_back(TighterBudget);
  // A genuine duplicate.
  Requests.push_back(Requests[0]);

  ServiceConfig Config;
  Config.NumThreads = 1;
  BatchResult Batch = VerificationService(Config).verifyBatch(Requests);
  EXPECT_EQ(Batch.Stats.DedupHits, 1u);
  ASSERT_EQ(Batch.Results.size(), 4u);
  EXPECT_EQ(Batch.Results[3].Accepted, Batch.Results[0].Accepted);
  EXPECT_EQ(Batch.Results[3].InsnVisits, Batch.Results[0].InsnVisits);

  // A batch that exercises the table's probe chains: 256 draws from 20
  // base programs and eleven one-field near-misses of each. Every
  // near-miss differs from its base in exactly one field, so only a
  // collision-confirming comparison can tell them apart.
  auto Identical = [](const VerifyRequest &A, const VerifyRequest &B) {
    if (A.MemSize != B.MemSize ||
        A.AnalyzerOpts.WideningThreshold != B.AnalyzerOpts.WideningThreshold ||
        A.AnalyzerOpts.MaxInsnVisits != B.AnalyzerOpts.MaxInsnVisits ||
        A.Prog.size() != B.Prog.size())
      return false;
    for (size_t Pc = 0; Pc != A.Prog.size(); ++Pc) {
      const Insn &X = A.Prog.insn(Pc), &Y = B.Prog.insn(Pc);
      if (X.InsnKind != Y.InsnKind || X.Alu != Y.Alu || X.Cmp != Y.Cmp ||
          X.Dst != Y.Dst || X.Src != Y.Src || X.UsesImm != Y.UsesImm ||
          X.Imm != Y.Imm || X.Offset != Y.Offset || X.Size != Y.Size ||
          X.Is32 != Y.Is32)
        return false;
    }
    return true;
  };
  std::mt19937_64 Rng(7);
  std::vector<VerifyRequest> Pool;
  for (const VerifyRequest &Base : makeBatch(8, 20)) {
    Pool.push_back(Base);
    for (unsigned Field = 0; Field != 11; ++Field) {
      VerifyRequest Near = Base;
      size_t Pc = Rng() % Base.Prog.size();
      std::vector<Insn> Insns(Base.Prog.begin(), Base.Prog.end());
      Insn &I = Insns[Pc];
      switch (Field) {
      case 0:
        I.InsnKind = static_cast<Insn::Kind>(
            (static_cast<unsigned>(I.InsnKind) + 1) %
            (static_cast<unsigned>(Insn::Kind::Exit) + 1));
        break;
      case 1:
        I.Alu = static_cast<AluOp>((static_cast<unsigned>(I.Alu) + 1) %
                                   (static_cast<unsigned>(AluOp::Neg) + 1));
        break;
      case 2:
        I.Cmp = static_cast<CompareOp>(
            (static_cast<unsigned>(I.Cmp) + 1) %
            (static_cast<unsigned>(CompareOp::Set) + 1));
        break;
      case 3:
        I.Dst ^= 1;
        break;
      case 4:
        I.Src ^= 1;
        break;
      case 5:
        I.UsesImm = !I.UsesImm;
        break;
      case 6:
        I.Size = I.Size == 8 ? 4 : 8;
        break;
      case 7:
        I.Is32 = !I.Is32;
        break;
      case 8:
        I.Offset = I.Offset == 0 ? -1 : -I.Offset;
        break;
      case 9:
        I.Imm ^= int64_t(1) << 40; // Equal low 32 bits.
        break;
      case 10:
        ++Near.AnalyzerOpts.WideningThreshold;
        break;
      }
      Near.Prog = Program(std::move(Insns));
      ASSERT_FALSE(Identical(Near, Base)) << "field " << Field;
      Pool.push_back(std::move(Near));
    }
  }
  std::vector<VerifyRequest> Draws;
  for (unsigned Draw = 0; Draw != 256; ++Draw)
    Draws.push_back(Pool[Rng() % Pool.size()]);
  uint64_t Repeats = 0;
  for (size_t Later = 0; Later != Draws.size(); ++Later)
    for (size_t Earlier = 0; Earlier != Later; ++Earlier)
      if (Identical(Draws[Earlier], Draws[Later])) {
        ++Repeats;
        break;
      }

  ServiceConfig Off = Config;
  Off.DedupPrograms = false;
  BatchResult Deduped = VerificationService(Config).verifyBatch(Draws);
  BatchResult Plain = VerificationService(Off).verifyBatch(Draws);
  EXPECT_GT(Repeats, 0u);
  EXPECT_EQ(Deduped.Stats.DedupHits, Repeats);
  EXPECT_EQ(verdictFingerprint(Deduped), verdictFingerprint(Plain));
  ASSERT_EQ(Deduped.Results.size(), Plain.Results.size());
  for (size_t I = 0; I != Draws.size(); ++I) {
    const VerifyResult &A = Deduped.Results[I], &B = Plain.Results[I];
    EXPECT_EQ(A.Accepted, B.Accepted) << "request " << I;
    EXPECT_EQ(A.StructuralError, B.StructuralError) << "request " << I;
    EXPECT_EQ(A.InsnVisits, B.InsnVisits) << "request " << I;
    ASSERT_EQ(A.Violations.size(), B.Violations.size()) << "request " << I;
    for (size_t V = 0; V != A.Violations.size(); ++V) {
      EXPECT_EQ(A.Violations[V].Pc, B.Violations[V].Pc);
      EXPECT_EQ(A.Violations[V].Message, B.Violations[V].Message);
    }
  }
}

TEST(Service, RecycledEngineMatchesFreshAnalyzer) {
  // One engine over a stream that shrinks and grows: loops programs,
  // two-instruction programs and packet filters in turn, with KeepStates
  // alternating so that every kept table is one a previous program
  // handed back.
  std::vector<VerifyRequest> Loops = makeBatch(41, 60, GenProfile::Loops);
  std::vector<VerifyRequest> Packets =
      makeBatch(42, 60, GenProfile::PacketFilter);
  Analyzer Engine;
  for (size_t I = 0; I != 180; ++I) {
    VerifyRequest Request;
    if (I % 3 == 0)
      Request = Loops[I / 3];
    else if (I % 3 == 2)
      Request = Packets[I / 3];
    else
      Request.Prog = ProgramBuilder().movImm(R0, I).exit().build();
    Request.MemSize = MemSize;
    bool KeepStates = I % 2 == 1;
    VerifyResult Got;
    verifyRequestInto(Request, KeepStates, Engine, Got);

    ASSERT_FALSE(Request.Prog.validate());
    Analyzer::Options Opts = Request.AnalyzerOpts;
    Opts.MemSize = Request.MemSize;
    AnalysisResult Fresh = Analyzer(Request.Prog, Opts).analyze();
    EXPECT_EQ(Got.Accepted, Fresh.accepted()) << "program " << I;
    EXPECT_EQ(Got.InsnVisits, Fresh.InsnVisits) << "program " << I;
    ASSERT_EQ(Got.Violations.size(), Fresh.Violations.size())
        << "program " << I;
    for (size_t V = 0; V != Got.Violations.size(); ++V) {
      EXPECT_EQ(Got.Violations[V].Pc, Fresh.Violations[V].Pc);
      EXPECT_EQ(Got.Violations[V].Message, Fresh.Violations[V].Message);
    }
    if (!KeepStates) {
      EXPECT_TRUE(Got.InStates.empty());
      continue;
    }
    ASSERT_EQ(Got.InStates.size(), Fresh.InStates.size()) << "program " << I;
    for (size_t S = 0; S != Got.InStates.size(); ++S) {
      EXPECT_TRUE(Got.InStates[S] == Fresh.InStates[S])
          << "program " << I << " state " << S;
      if (Fresh.InStates[S].Reachable) {
        EXPECT_EQ(Got.InStates[S].toString(), Fresh.InStates[S].toString())
            << "program " << I << " state " << S;
      }
    }
  }
}

TEST(Service, FuzzReportIsDeterministic) {
  FuzzConfig Config;
  Config.Programs = 120;
  FuzzReport A = runDifferentialFuzz(31337, Config);
  Config.Service.NumThreads = 3; // Scheduling must not leak into the report.
  FuzzReport B = runDifferentialFuzz(31337, Config);
  EXPECT_EQ(A.Programs, B.Programs);
  EXPECT_EQ(A.Accepted, B.Accepted);
  EXPECT_EQ(A.RejectedStructural, B.RejectedStructural);
  EXPECT_EQ(A.RejectedSemantic, B.RejectedSemantic);
  EXPECT_EQ(A.ConcreteRuns, B.ConcreteRuns);
  EXPECT_EQ(A.StepLimitRuns, B.StepLimitRuns);
  EXPECT_EQ(A.ZeroCoveragePrograms, B.ZeroCoveragePrograms);
  EXPECT_EQ(A.Findings.size(), B.Findings.size());
}

} // namespace
