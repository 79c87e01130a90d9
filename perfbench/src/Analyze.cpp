//===- perfbench/src/Analyze.cpp - analyze-mixed workload -----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VerificationService::verifyBatch at one job over an endless seeded
/// `mixed` program stream, in batches of 256 (no daemon, no cache). The
/// bpf analyzer, the reduced-product domain and the tnum operators do
/// nearly all the work. Generation and checking happen between the timed
/// calls.
///
/// Every batch is checked for internal consistency, and every eighth one
/// against an independent per-program path (validate plus a freshly bound
/// Analyzer per program). The fingerprint of the first eight batches is
/// the recorded answer.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "bpf/Analyzer.h"
#include "service/ProgramGen.h"
#include "service/VerificationService.h"

#include <optional>

using namespace perfbench;
using namespace tnums;
using namespace tnums::service;

namespace {

constexpr size_t BatchPrograms = 256;
/// Batches generated during set-up (the rest are generated between the
/// timed calls).
constexpr size_t PregeneratedBatches = 16;
constexpr size_t AnswerBatches = 8;
constexpr size_t ReferenceEvery = 8;

/// The independent expected answer for one batch: validate plus a freshly
/// bound Analyzer per program -- no engine reuse, no dedup, no pool.
BatchResult referenceBatch(const std::vector<VerifyRequest> &Batch) {
  BatchResult Out;
  for (const VerifyRequest &Request : Batch) {
    VerifyResult Result;
    Result.Done = true;
    if (std::optional<std::string> Error = Request.Prog.validate()) {
      Result.StructuralError = *Error;
    } else {
      bpf::Analyzer::Options Opts = Request.AnalyzerOpts;
      Opts.MemSize = Request.MemSize;
      bpf::AnalysisResult Analysis = bpf::Analyzer(Request.Prog, Opts).analyze();
      Result.Accepted = Analysis.accepted();
      Result.Violations = std::move(Analysis.Violations);
      Result.InsnVisits = Analysis.InsnVisits;
    }
    Out.Results.push_back(std::move(Result));
  }
  return Out;
}

class AnalyzeMixed final : public Workload {
public:
  explicit AnalyzeMixed(const Context &CtxV) : Ctx(CtxV) {}

  void setUp() override {
    GenOptions Gen;
    Gen.Profile = GenProfile::Mixed;
    Generator.emplace(Ctx.Seed, Gen);
    Pool.clear();
    for (size_t Batch = 0; Batch != PregeneratedBatches; ++Batch)
      Pool.push_back(generateBatch(*Generator));
    // Time to the first verdicts: one warm-up batch, from a fixed seed so
    // every seed pays the same.
    ProgramGen WarmUp(0, Gen);
    ServiceConfig Config;
    Config.NumThreads = 1;
    VerificationService(Config).verifyBatch(generateBatch(WarmUp));
  }
  void tearDown() override {
    Pool.clear();
    Generator.reset();
  }
  RunResult measure(double Seconds, Tracer *Trace) override;
  const char *unit() const override { return "verdicts"; }

private:
  static std::vector<VerifyRequest> generateBatch(ProgramGen &From) {
    std::vector<VerifyRequest> Batch(BatchPrograms);
    for (VerifyRequest &Request : Batch) {
      Request.Prog = From.next();
      Request.MemSize = From.options().MemSize;
    }
    return Batch;
  }

  Context Ctx;
  std::optional<ProgramGen> Generator;
  std::vector<std::vector<VerifyRequest>> Pool;
};

RunResult AnalyzeMixed::measure(double Seconds, Tracer *Trace) {
  RunResult Out;
  SpanBuffer *Buf = Trace ? Trace->newBuffer() : nullptr;
  Span Root(Buf, "bench.analyze.window");
  ServiceConfig Config;
  Config.NumThreads = 1;
  VerificationService Service(Config);
  uint64_t AnswerFp = FnvBasis;
  uint64_t WindowStart = nowNs();
  uint64_t Deadline = WindowStart + static_cast<uint64_t>(Seconds * 1e9);
  SliceRecorder Slices(WindowStart, Deadline, (Deadline - WindowStart) / 3);
  for (size_t Index = 0; nowNs() < Deadline; ++Index) {
    std::vector<VerifyRequest> Batch =
        Index < Pool.size() ? Pool[Index] : generateBatch(*Generator);
    uint64_t Start = nowNs();
    BatchResult Result;
    {
      Span Call(Buf, "service.VerificationService.verifyBatch");
      Result = Service.verifyBatch(Batch);
    }
    uint64_t End = nowNs();
    Out.Latency.add(End - Start);
    Out.Seconds += static_cast<double>(End - Start) / 1e9;
    Out.Attempted += Batch.size();

    uint64_t Accepted = 0, Done = 0;
    for (const VerifyResult &R : Result.Results) {
      Done += R.Done;
      Accepted += R.Accepted;
    }
    if (Result.Results.size() != Batch.size() || Done != Batch.size() ||
        Result.Stats.Programs != Batch.size() ||
        Result.Stats.Accepted != Accepted) {
      Out.fail(Batch.size(), "batch " + std::to_string(Index) +
                                 ": inconsistent results or stats");
      continue;
    }
    uint64_t Fp = verdictFingerprint(Result);
    if (Index % ReferenceEvery == 0 &&
        verdictFingerprint(referenceBatch(Batch)) != Fp) {
      Out.fail(Batch.size(), "batch " + std::to_string(Index) +
                                 ": verdicts differ from the per-program "
                                 "reference");
      continue;
    }
    if (Index < AnswerBatches)
      AnswerFp = fnvMix(AnswerFp, Fp);
    Out.Work += static_cast<double>(Batch.size());
    Slices.add(End, End - Start, static_cast<double>(Batch.size()));
    if (Index + 1 == AnswerBatches)
      Out.Answers["verdict_fp_first8"] = hex64(AnswerFp);
  }
  Slices.closeUntil(nowNs());
  Out.Slices = Slices.slices();
  if (!Out.Answers.count("verdict_fp_first8"))
    Out.fail(1, "window too short for the recorded-answer batches");
  return Out;
}

} // namespace

std::unique_ptr<Workload> perfbench::makeAnalyzeMixed(const Context &Ctx) {
  return std::make_unique<AnalyzeMixed>(Ctx);
}
