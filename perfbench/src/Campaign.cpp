//===- perfbench/src/Campaign.cpp - campaign-sweep workload ---------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-memory runCampaign (no checkpoint directory) at one worker thread:
/// exhaustive soundness cells for every operator and all six
/// multiplication algorithms, plus full-scan optimality cells for every
/// operator. The verify sweeps and the support SIMD kernels do all the
/// work; no bpf or service code runs. The seed only permutes the cell
/// order: the grid is exhaustive, so every cell's verdict and its exact
/// pair and evaluation totals are seed-independent recorded answers.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "verify/Campaign.h"

#include <string>

using namespace perfbench;
using namespace tnums;

namespace {

/// Width of the non-shift cells. Shift cells need a power-of-two width
/// and run at ShiftWidth.
constexpr unsigned SoundnessWidth = 5;
constexpr unsigned OptimalityWidth = 5;
constexpr unsigned ShiftWidth = 4;
/// Minimum duration of each per-family traced loop.
constexpr uint64_t FamilyLoopNs = 300'000'000;

uint64_t power(uint64_t Base, unsigned Exponent) {
  uint64_t Result = 1;
  while (Exponent--)
    Result *= Base;
  return Result;
}

std::string cellName(const CampaignCell &Cell) {
  std::string Name = campaignPropertyName(Cell.Property);
  Name += ".";
  Name += binaryOpName(Cell.Op);
  if (Cell.Op == BinaryOp::Mul)
    Name += std::string(".") + mulAlgorithmName(Cell.Mul);
  return Name + ".w" + std::to_string(Cell.Width);
}

/// Exhaustive cells of the chosen families, in a seed-permuted order.
CampaignSpec buildSpec(uint64_t Seed, bool Soundness, bool Optimality) {
  CampaignSpec Spec;
  for (BinaryOp Op : AllBinaryOps) {
    unsigned Shift = isShiftOp(Op);
    if (Soundness) {
      if (Op == BinaryOp::Mul)
        for (MulAlgorithm Mul : AllMulAlgorithms)
          Spec.Cells.push_back(
              {Op, Mul, SoundnessWidth, CampaignProperty::Soundness});
      else
        Spec.Cells.push_back({Op, MulAlgorithm::Our,
                              Shift ? ShiftWidth : SoundnessWidth,
                              CampaignProperty::Soundness});
    }
    if (Optimality)
      Spec.Cells.push_back({Op, MulAlgorithm::Our,
                            Shift ? ShiftWidth : OptimalityWidth,
                            CampaignProperty::Optimality});
  }
  uint64_t State = Seed;
  for (size_t Index = Spec.Cells.size(); Index > 1; --Index) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(Spec.Cells[Index - 1], Spec.Cells[(State >> 33) % Index]);
  }
  return Spec;
}

SweepConfig oneThread() {
  SweepConfig Config;
  Config.NumThreads = 1;
  return Config;
}

/// Checks one campaign result against the closed-form totals: a width-w
/// cell has 9^w pairs and 16^w concrete evaluations. Fills \p Answers with
/// each cell's verdict line (library outputs only) and returns the
/// evaluations performed. OptimalityReport carries no evaluation count, so
/// an optimality cell's evaluations are the closed form 16^w.
uint64_t checkCampaign(const CampaignResult &Result, RunResult &Out,
                       std::map<std::string, std::string> &Answers) {
  if (!Result.ok() || !Result.Complete) {
    Out.fail(Result.Cells.size(), "campaign incomplete: " + Result.Error);
    return 0;
  }
  uint64_t Evals = 0;
  for (const CampaignCellResult &Cell : Result.Cells) {
    uint64_t Pairs = power(9, Cell.Cell.Width);
    uint64_t CellEvals = power(16, Cell.Cell.Width);
    std::string Name = cellName(Cell.Cell);
    std::string Verdict;
    bool Ok = Cell.Complete;
    if (Cell.Cell.Property == CampaignProperty::Soundness) {
      const SoundnessReport &R = Cell.Soundness;
      Ok &= R.holds() && R.PairsChecked == Pairs &&
            R.ConcreteChecked == CellEvals;
      Verdict = std::string(R.holds() ? "holds" : "FAILS") +
                " pairs=" + std::to_string(R.PairsChecked) +
                " evals=" + std::to_string(R.ConcreteChecked);
    } else {
      const OptimalityReport &R = Cell.Optimality;
      Ok &= R.PairsChecked == Pairs;
      Verdict = "optimal_pairs=" + std::to_string(R.OptimalPairs) +
                " pairs=" + std::to_string(R.PairsChecked);
    }
    Answers[Name] = Verdict;
    if (!Ok) {
      Out.fail(1, Name + ": " + Verdict);
      continue;
    }
    Evals += CellEvals;
  }
  return Evals;
}

class CampaignSweep final : public Workload {
public:
  explicit CampaignSweep(const Context &CtxV) : Ctx(CtxV) {}

  void setUp() override {
    Spec = buildSpec(Ctx.Seed, true, true);
    // Time to the first report: one warm-up round.
    runCampaign(Spec, CampaignIO(), oneThread());
  }
  void tearDown() override { Spec.Cells.clear(); }
  RunResult measure(double Seconds, Tracer *Trace) override;
  const char *unit() const override { return "evals"; }

private:
  Context Ctx;
  CampaignSpec Spec;
};

RunResult CampaignSweep::measure(double Seconds, Tracer *Trace) {
  RunResult Out;
  SpanBuffer *Buf = Trace ? Trace->newBuffer() : nullptr;
  Span Root(Buf, "bench.campaign.window");
  SweepConfig Config = oneThread();
  uint64_t WindowStart = nowNs();
  uint64_t Deadline = WindowStart + static_cast<uint64_t>(Seconds * 1e9);
  SliceRecorder Slices(WindowStart, Deadline, (Deadline - WindowStart) / 3);
  for (uint64_t Round = 0; nowNs() < Deadline; ++Round) {
    uint64_t Start = nowNs();
    CampaignResult Result;
    {
      Span Call(Buf, "verify.runCampaign");
      Result = runCampaign(Spec, CampaignIO(), Config);
    }
    uint64_t End = nowNs();
    Out.Latency.add(End - Start);
    Out.Seconds += static_cast<double>(End - Start) / 1e9;
    Out.Attempted += Spec.Cells.size();
    std::map<std::string, std::string> Answers;
    uint64_t Failed = Out.Failed;
    double Evals = static_cast<double>(checkCampaign(Result, Out, Answers));
    Out.Work += Evals;
    Slices.add(End, End - Start, Evals);
    if (Round == 0)
      Out.Answers = Answers;
    else if (Answers != Out.Answers && Failed == Out.Failed)
      Out.fail(Spec.Cells.size(), "round " + std::to_string(Round) +
                                      " differs from round 0");
  }
  Slices.closeUntil(nowNs());
  Out.Slices = Slices.slices();
  return Out;
}

} // namespace

std::unique_ptr<Workload> perfbench::makeCampaignSweep(const Context &Ctx) {
  return std::make_unique<CampaignSweep>(Ctx);
}

MetricMap perfbench::campaignRungs(const Context &Ctx, SpanBuffer *Buf) {
  MetricMap M;
  SweepConfig Config = oneThread();
  // Each property family as its own campaign.
  for (bool Soundness : {true, false}) {
    CampaignSpec Spec = buildSpec(Ctx.Seed, Soundness, !Soundness);
    RunResult Scratch;
    std::map<std::string, std::string> Answers;
    uint64_t Evals = 0;
    uint64_t Start = nowNs();
    {
      Span Call(Buf, Soundness ? "verify.runCampaign.soundness"
                               : "verify.runCampaign.optimality");
      while (nowNs() - Start < FamilyLoopNs)
        Evals += checkCampaign(runCampaign(Spec, CampaignIO(), Config),
                               Scratch, Answers);
    }
    double Seconds = static_cast<double>(nowNs() - Start) / 1e9;
    M[Soundness ? "verify.soundness.evals_per_s"
                : "verify.optimality.evals_per_s"] = {
        static_cast<double>(Evals) / Seconds, "1/s"};
  }
  // Exact work of one full campaign round.
  CampaignSpec Spec = buildSpec(Ctx.Seed, true, true);
  CampaignResult Result;
  uint64_t Start = nowNs();
  {
    Span Call(Buf, "verify.runCampaign");
    Result = runCampaign(Spec, CampaignIO(), Config);
  }
  double Seconds = static_cast<double>(nowNs() - Start) / 1e9;
  uint64_t Pairs = 0, Evals = 0;
  for (const CampaignCellResult &Cell : Result.Cells) {
    Pairs += Cell.Cell.Property == CampaignProperty::Soundness
                 ? Cell.Soundness.PairsChecked
                 : Cell.Optimality.PairsChecked;
    Evals += power(16, Cell.Cell.Width);
  }
  M["verify.campaign.evals_per_s"] = {static_cast<double>(Evals) / Seconds,
                                      "1/s"};
  M["verify.evals"] = {static_cast<double>(Evals), "count"};
  M["verify.pairs"] = {static_cast<double>(Pairs), "count"};
  M["verify.shards"] = {static_cast<double>(Result.ShardsTotal), "count"};
  return M;
}
