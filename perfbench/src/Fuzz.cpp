//===- perfbench/src/Fuzz.cpp - fuzz-loops workload -----------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// runDifferentialFuzz at one job over a `loops`-profile stream the
/// benchmark generates itself (a fresh draw, with every fourth program a
/// mutant of its predecessor) and hands over in chunks of 64 through
/// FuzzConfig::Replay. Concrete execution in the decoded interpreter takes
/// most of the time: looping mutants run into the 2^20-step budget. Every
/// chunk must report zero findings; the report counts of the first eight
/// chunks are the recorded answer.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "bpf/Decoded.h"
#include "service/DifferentialFuzz.h"
#include "service/ProgramGen.h"
#include "support/Random.h"

#include <optional>

using namespace perfbench;
using namespace tnums;
using namespace tnums::service;

namespace {

constexpr size_t ChunkPrograms = 64;
/// Chunks generated during set-up; also the fixed prefix the recorded
/// answer and the exact per-layer counts cover.
constexpr size_t PrefixChunks = 8;
constexpr unsigned MutateEvery = 4;
/// Minimum duration of the traced decode loop.
constexpr uint64_t DecodeLoopNs = 50'000'000;

/// The fuzz seed of chunk \p Chunk: input memories derive from it and the
/// program's index inside the chunk.
uint64_t chunkSeed(uint64_t Seed, uint64_t Chunk) {
  return Seed * 0x100000001B3ull + Chunk;
}

FuzzConfig chunkConfig(std::vector<VerifyRequest> Chunk) {
  FuzzConfig Config;
  Config.Replay = std::move(Chunk);
  Config.Gen.Profile = GenProfile::Loops;
  Config.Service.NumThreads = 1;
  return Config;
}

/// The seeded program stream, chunk by chunk.
class LoopStream {
public:
  explicit LoopStream(uint64_t Seed) : Generator(Seed, options()) {}

  std::vector<VerifyRequest> nextChunk() {
    std::vector<VerifyRequest> Chunk(ChunkPrograms);
    for (VerifyRequest &Request : Chunk) {
      uint64_t Index = Produced++;
      bool Mutant = Index > 0 && Index % MutateEvery == 0;
      bpf::Program P = Mutant ? Generator.mutate(Predecessor) : Generator.next();
      if (P.validate())
        P = Generator.next();
      if ((Index + 1) % MutateEvery == 0)
        Predecessor = P;
      Request.Prog = std::move(P);
      Request.MemSize = Generator.options().MemSize;
    }
    return Chunk;
  }

private:
  static GenOptions options() {
    GenOptions Gen;
    Gen.Profile = GenProfile::Loops;
    return Gen;
  }

  ProgramGen Generator;
  bpf::Program Predecessor;
  uint64_t Produced = 0;
};

std::string reportCounts(const FuzzReport &R) {
  return "programs=" + std::to_string(R.Programs) +
         " accepted=" + std::to_string(R.Accepted) +
         " structural=" + std::to_string(R.RejectedStructural) +
         " semantic=" + std::to_string(R.RejectedSemantic) +
         " runs=" + std::to_string(R.ConcreteRuns) +
         " step_limit=" + std::to_string(R.StepLimitRuns) +
         " zero_coverage=" + std::to_string(R.ZeroCoveragePrograms) +
         " findings=" + std::to_string(R.Findings.size());
}

void addReport(FuzzReport &Sum, const FuzzReport &R) {
  Sum.Programs += R.Programs;
  Sum.Accepted += R.Accepted;
  Sum.RejectedStructural += R.RejectedStructural;
  Sum.RejectedSemantic += R.RejectedSemantic;
  Sum.ConcreteRuns += R.ConcreteRuns;
  Sum.StepLimitRuns += R.StepLimitRuns;
  Sum.ZeroCoveragePrograms += R.ZeroCoveragePrograms;
  Sum.Findings.insert(Sum.Findings.end(), R.Findings.begin(),
                      R.Findings.end());
}

class FuzzLoops final : public Workload {
public:
  explicit FuzzLoops(const Context &CtxV) : Ctx(CtxV) {}

  void setUp() override {
    Stream.emplace(Ctx.Seed);
    Prefix.clear();
    for (size_t Chunk = 0; Chunk != PrefixChunks; ++Chunk)
      Prefix.push_back(Stream->nextChunk());
    // One warm-up chunk, from a fixed seed so every seed pays the same.
    runDifferentialFuzz(0, chunkConfig(LoopStream(0).nextChunk()));
  }
  void tearDown() override {
    Prefix.clear();
    Stream.reset();
  }
  RunResult measure(double Seconds, Tracer *Trace) override;
  const char *unit() const override { return "programs"; }

private:
  Context Ctx;
  std::optional<LoopStream> Stream;
  std::vector<std::vector<VerifyRequest>> Prefix;
};

RunResult FuzzLoops::measure(double Seconds, Tracer *Trace) {
  RunResult Out;
  SpanBuffer *Buf = Trace ? Trace->newBuffer() : nullptr;
  Span Root(Buf, "bench.fuzz.window");
  FuzzReport PrefixSum;
  uint64_t WindowStart = nowNs();
  uint64_t Deadline = WindowStart + static_cast<uint64_t>(Seconds * 1e9);
  SliceRecorder Slices(WindowStart, Deadline, (Deadline - WindowStart) / 3);
  for (uint64_t Chunk = 0; nowNs() < Deadline; ++Chunk) {
    FuzzConfig Config = chunkConfig(Chunk < Prefix.size() ? Prefix[Chunk]
                                                          : Stream->nextChunk());
    size_t Programs = Config.Replay.size();
    uint64_t Start = nowNs();
    FuzzReport Report;
    {
      Span Call(Buf, "service.runDifferentialFuzz");
      Report = runDifferentialFuzz(chunkSeed(Ctx.Seed, Chunk), Config);
    }
    uint64_t End = nowNs();
    Out.Latency.add(End - Start);
    Out.Seconds += static_cast<double>(End - Start) / 1e9;
    Out.Attempted += Programs;
    if (!Report.clean() || Report.Programs != Programs) {
      Out.fail(Programs, "chunk " + std::to_string(Chunk) + ": " +
                             reportCounts(Report) +
                             (Report.clean() ? ""
                                             : " first finding: " +
                                                   Report.Findings[0].Kind));
      continue;
    }
    Out.Work += static_cast<double>(Programs);
    Slices.add(End, End - Start, static_cast<double>(Programs));
    if (Chunk < PrefixChunks) {
      addReport(PrefixSum, Report);
      if (Chunk + 1 == PrefixChunks)
        Out.Answers["report_first8"] = reportCounts(PrefixSum);
    }
  }
  Slices.closeUntil(nowNs());
  Out.Slices = Slices.slices();
  if (!Out.Answers.count("report_first8"))
    Out.fail(1, "window too short for the recorded-answer chunks");
  return Out;
}

} // namespace

std::unique_ptr<Workload> perfbench::makeFuzzLoops(const Context &Ctx) {
  return std::make_unique<FuzzLoops>(Ctx);
}

MetricMap perfbench::fuzzRungs(const Context &Ctx, SpanBuffer *Buf) {
  MetricMap M;
  LoopStream Stream(Ctx.Seed);
  FuzzReport Sum;
  uint64_t FuzzNs = 0, VerifyNs = 0, DecodeNs = 0, RunNs = 0;
  uint64_t Steps = 0, Decoded = 0;
  for (uint64_t Chunk = 0; Chunk != PrefixChunks; ++Chunk) {
    FuzzConfig Config = chunkConfig(Stream.nextChunk());
    uint64_t Seed = chunkSeed(Ctx.Seed, Chunk);
    uint64_t T0 = nowNs();
    {
      Span Call(Buf, "service.runDifferentialFuzz");
      addReport(Sum, runDifferentialFuzz(Seed, Config));
    }
    // The verification share of the same chunk (the fuzz keeps states).
    ServiceConfig Service = Config.Service;
    Service.KeepStates = true;
    uint64_t T1 = nowNs();
    BatchResult Batch;
    {
      Span Call(Buf, "service.VerificationService.verifyBatch");
      Batch = VerificationService(Service).verifyBatch(Config.Replay);
    }
    uint64_t T2 = nowNs();
    FuzzNs += T1 - T0;
    VerifyNs += T2 - T1;

    // The interpreter on the accepted programs, with the fuzz oracle's
    // input memories.
    for (size_t Index = 0; Index != Config.Replay.size(); ++Index) {
      if (!Batch.Results[Index].Accepted)
        continue;
      const VerifyRequest &Request = Config.Replay[Index];
      std::string Error;
      uint64_t D0 = nowNs();
      std::optional<bpf::DecodedProgram> Exec;
      {
        Span Call(Buf, "bpf.DecodedProgram.decode");
        while (nowNs() - D0 < DecodeLoopNs / (PrefixChunks * ChunkPrograms)) {
          Exec = bpf::DecodedProgram::decode(Request.Prog, Error);
          ++Decoded;
        }
      }
      DecodeNs += nowNs() - D0;
      if (!Exec)
        continue;
      Span Call(Buf, "bpf.DecodedProgram.run");
      for (unsigned Run = 0; Run != Config.RunsPerProgram; ++Run) {
        Xoshiro256 MemRng(Seed ^ (0x9E3779B97F4A7C15ull * (Index + 1) + Run));
        std::vector<uint8_t> Mem(Request.MemSize);
        for (uint8_t &Byte : Mem)
          Byte = static_cast<uint8_t>(MemRng.next());
        uint64_t R0 = nowNs();
        bpf::ExecResult R = Exec->run(Mem, Config.StepLimit);
        RunNs += nowNs() - R0;
        Steps += R.Steps;
      }
    }
  }
  M["service.fuzz.concrete_runs"] = {static_cast<double>(Sum.ConcreteRuns),
                                     "count"};
  M["service.fuzz.step_limit_frac"] = {
      Sum.ConcreteRuns ? static_cast<double>(Sum.StepLimitRuns) /
                             static_cast<double>(Sum.ConcreteRuns)
                       : 0,
      "frac"};
  M["service.fuzz.verify_share"] = {
      FuzzNs ? static_cast<double>(VerifyNs) / static_cast<double>(FuzzNs) : 0,
      "frac"};
  M["bpf.interp.decode_ns_per_program"] = {
      Decoded ? static_cast<double>(DecodeNs) / static_cast<double>(Decoded)
              : 0,
      "ns"};
  M["bpf.interp.ns_per_step"] = {
      Steps ? static_cast<double>(RunNs) / static_cast<double>(Steps) : 0,
      "ns"};
  M["bpf.interp.steps"] = {static_cast<double>(Steps), "count"};
  return M;
}
