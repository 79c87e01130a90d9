//===- service/DifferentialFuzz.cpp - Whole-service fuzz oracle -----------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "service/DifferentialFuzz.h"

#include "bpf/Decoded.h"
#include "support/Metrics.h"
#include "support/Table.h"

#include <algorithm>
#include <array>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

std::string FuzzReport::toString() const {
  return formatString(
      "%llu programs (%llu accepted, %llu structural rejects, %llu semantic "
      "rejects), %llu concrete runs (%llu hit the step budget; %llu "
      "programs zero-coverage), %zu findings",
      static_cast<unsigned long long>(Programs),
      static_cast<unsigned long long>(Accepted),
      static_cast<unsigned long long>(RejectedStructural),
      static_cast<unsigned long long>(RejectedSemantic),
      static_cast<unsigned long long>(ConcreteRuns),
      static_cast<unsigned long long>(StepLimitRuns),
      static_cast<unsigned long long>(ZeroCoveragePrograms),
      Findings.size());
}

namespace {

/// Requests per verify-then-check slice. The containment oracle needs the
/// per-instruction fixpoint states, but only for the slice currently
/// being checked -- slicing bounds the campaign's resident state tables
/// to one slice's worth regardless of Config.Programs, without touching
/// any oracle or determinism property (verdicts are per-program pure, and
/// the generation sequence is independent of the slicing).
constexpr uint64_t SlicePrograms = 256;

/// Where the oracle's budget runs and interpreter steps go. Observation
/// only: reports are byte-identical with the recorder on or off.
struct FuzzMetrics {
  Counter BudgetRunsRun{"tnums_fuzz_budget_runs_total", "settled=\"run\""};
  Counter BudgetRunsProven{"tnums_fuzz_budget_runs_total",
                           "settled=\"proven\""};
  Counter BudgetRunsShared{"tnums_fuzz_budget_runs_total",
                           "settled=\"shared\""};
  Counter Steps{"tnums_fuzz_steps_total"};
};

FuzzMetrics &fuzzMetrics() {
  static FuzzMetrics M;
  return M;
}

/// What a run's next step depends on, read after run() stopped at a step
/// limit: the next pc, every register's init flag, and the values of the
/// control slice (other registers read as 0).
struct ControlProjection {
  size_t Pc = 0;
  std::array<bool, NumRegs> Inited = {};
  std::array<uint64_t, NumRegs> Values = {};

  bool operator==(const ControlProjection &) const = default;
};

ControlProjection project(const DecodedProgram &Exec, const ExecResult &R,
                          uint32_t SliceRegs) {
  ControlProjection P;
  P.Pc = R.FaultPc;
  P.Inited = Exec.initialized();
  for (unsigned Reg = 0; Reg != NumRegs; ++Reg)
    if ((SliceRegs >> Reg) & 1u)
      P.Values[Reg] = Exec.registers()[Reg];
  return P;
}

/// Oracles 1-3 over one verified slice; \p SliceBegin maps slice slots
/// back to campaign-wide program indices (used in findings and as the
/// per-program memory seed, so slicing cannot change either).
void runOracles(uint64_t Seed, const FuzzConfig &Config, uint64_t SliceBegin,
                const std::vector<VerifyRequest> &Requests,
                const BatchResult &Batch, FuzzReport &Report) {
  FuzzMetrics &M = fuzzMetrics();
  for (size_t Slot = 0; Slot != Requests.size(); ++Slot) {
    size_t Index = static_cast<size_t>(SliceBegin) + Slot;
    const VerifyResult &Verdict = Batch.Results[Slot];
    const Program &P = Requests[Slot].Prog;

    if (!Verdict.Accepted) {
      // Oracle 3: every rejection is witnessed.
      if (Verdict.StructuralError.empty() && Verdict.Violations.empty())
        Report.Findings.push_back({Index, "unwitnessed-rejection",
                                   "rejected with no structural error and "
                                   "no violations\n" +
                                       P.disassemble()});
      continue;
    }

    // Decode once per accepted program; every concrete run below reuses
    // the decoded form (this loop is the campaign's hot path). decode()
    // refuses exactly what Program::validate() refuses, and the service
    // accepted this program, so a failure here is itself a finding.
    std::string DecodeError;
    std::optional<DecodedProgram> Exec = DecodedProgram::decode(P, DecodeError);
    if (!Exec) {
      Report.Findings.push_back({Index, "undecodable-accepted-program",
                                 DecodeError + "\n" + P.disassemble()});
      continue;
    }

    const ControlSlice Slice = controlSlice(P);
    // Runs of this program that got past the step budget: only those
    // exercise oracles 1-2. A program where none did is zero-coverage.
    unsigned CoveredRuns = 0;
    for (unsigned Run = 0; Run != Config.RunsPerProgram; ++Run) {
      Xoshiro256 MemRng(Seed ^ (0x9E3779B97F4A7C15ull * (Index + 1) + Run));
      // The request's own region size, not the generator default --
      // replayed corpora carry theirs per entry.
      std::vector<uint8_t> Mem(Requests[Slot].MemSize);
      for (uint8_t &Byte : Mem)
        Byte = static_cast<uint8_t>(MemRng.next());

      SettledRun Settled = runOrProve(*Exec, Slice, Mem, Config.StepLimit);
      const ExecResult &R = Settled.Result;
      M.Steps.add(Settled.ExecutedSteps);
      ++Report.ConcreteRuns;

      if (R.St == ExecResult::Status::StepLimit) {
        ++Report.StepLimitRuns; // Tolerated: see the header's oracle 1.
        (Settled.Proven ? M.BudgetRunsProven : M.BudgetRunsRun).add();
        // Every run of a memory-blind program repeats this one.
        if (Run == 0 && !Slice.ReadsMemory) {
          Report.ConcreteRuns += Config.RunsPerProgram - 1;
          Report.StepLimitRuns += Config.RunsPerProgram - 1;
          M.BudgetRunsShared.add(Config.RunsPerProgram - 1);
          break;
        }
        continue;
      }
      ++CoveredRuns;
      // Oracle 1: accepted programs never trap.
      if (!R.ok()) {
        Report.Findings.push_back(
            {Index, "accepted-program-trap",
             formatString("run %u trapped at insn %zu: %s\n", Run, R.FaultPc,
                          R.Message.c_str()) +
                 P.disassemble()});
        break; // Further runs of a broken program add no information.
      }

      // Oracle 2: concrete register values lie inside the fixpoint
      // abstract state at the exit this run actually reached.
      const AbstractState &Final = Verdict.InStates[R.ExitPc];
      if (!Final.Reachable) {
        Report.Findings.push_back(
            {Index, "unreachable-exit",
             formatString("run %u exited at insn %zu, which the fixpoint "
                          "marks unreachable\n",
                          Run, R.ExitPc) +
                 P.disassemble()});
        break;
      }
      bool Escaped = false;
      for (unsigned RegNum = 0; RegNum != NumRegs && !Escaped; ++RegNum) {
        const AbsReg &Abs = Final.Regs[RegNum];
        if (!Abs.isScalar() || !Exec->initialized()[RegNum])
          continue;
        if (!Abs.value().contains(Exec->registers()[RegNum])) {
          Report.Findings.push_back(
              {Index, "containment-escape",
               formatString("run %u: r%u = %llu escapes %s at exit insn "
                            "%zu\n",
                            Run, RegNum,
                            static_cast<unsigned long long>(
                                Exec->registers()[RegNum]),
                            Abs.toString().c_str(), R.ExitPc) +
                   P.disassemble()});
          Escaped = true;
        }
      }
      if (Escaped)
        break;
    }
    if (Config.RunsPerProgram && CoveredRuns == 0)
      ++Report.ZeroCoveragePrograms;
  }
}

} // namespace

ControlSlice tnums::service::controlSlice(const Program &Prog) {
  // The roots: what a branch compares and what an access goes through.
  ControlSlice Slice;
  for (const Insn &I : Prog) {
    switch (I.InsnKind) {
    case Insn::Kind::Jmp:
      Slice.Regs |= 1u << I.Dst;
      if (!I.UsesImm)
        Slice.Regs |= 1u << I.Src;
      break;
    case Insn::Kind::Load: // The base is Src ...
      Slice.Regs |= 1u << I.Src;
      break;
    case Insn::Kind::Store: // ... and Dst.
      Slice.Regs |= 1u << I.Dst;
      Slice.Stores = true;
      break;
    default:
      break;
    }
  }
  // Close backward over the register-form ALU ops that can feed a root.
  uint32_t Before = 0;
  do {
    Before = Slice.Regs;
    for (const Insn &I : Prog)
      if (I.InsnKind == Insn::Kind::Alu && !I.UsesImm && I.Alu != AluOp::Neg)
        Slice.Regs |= ((Slice.Regs >> I.Dst) & 1u) << I.Src;
  } while (Slice.Regs != Before);
  for (const Insn &I : Prog)
    if (I.InsnKind == Insn::Kind::Load && ((Slice.Regs >> I.Dst) & 1u))
      Slice.ReadsMemory = true;
  return Slice;
}

bool tnums::service::isMemoryBlind(const Program &Prog) {
  return !controlSlice(Prog).ReadsMemory;
}

SettledRun tnums::service::runOrProve(DecodedProgram &Exec,
                                      const ControlSlice &Slice,
                                      const std::vector<uint8_t> &Memory,
                                      uint64_t StepLimit) {
  SettledRun Out;
  std::vector<uint8_t> Work;
  // Runs a fresh copy of Memory; true when the run ended before Limit,
  // which makes its result the full run's.
  auto Ends = [&](uint64_t Limit) {
    Work = Memory;
    Out.Result = Exec.run(Work, Limit);
    Out.ExecutedSteps += Out.Result.Steps;
    return Out.Result.St != ExecResult::Status::StepLimit;
  };
  // The proof needs memory that stays fixed wherever control reads it.
  if (StepLimit > 2 * ProofHorizon && !(Slice.ReadsMemory && Slice.Stores)) {
    if (Ends(ProofHorizon))
      return Out;
    ControlProjection AtH = project(Exec, Out.Result, Slice.Regs);
    if (Ends(2 * ProofHorizon))
      return Out;
    if (project(Exec, Out.Result, Slice.Regs) == AtH) {
      Out.Result.Steps = StepLimit;
      Out.Proven = true;
      return Out;
    }
  }
  Ends(StepLimit);
  return Out;
}

FuzzReport tnums::service::runDifferentialFuzz(uint64_t Seed,
                                               const FuzzConfig &Config) {
  FuzzReport Report;

  ProgramGen Gen(Seed, Config.Gen);
  ServiceConfig ServiceCfg = Config.Service;
  ServiceCfg.KeepStates = true;
  ServiceCfg.StopAtFirstReject = false;
  VerificationService Service(ServiceCfg);

  // The mutation chain crosses slice boundaries: every MutateEvery-th
  // program is a mutant of its predecessor.
  const bool Replaying = !Config.Replay.empty();
  const uint64_t TotalPrograms =
      Replaying ? Config.Replay.size() : Config.Programs;
  Program Predecessor;
  std::vector<VerifyRequest> Requests;
  for (uint64_t SliceBegin = 0; SliceBegin < TotalPrograms;
       SliceBegin += SlicePrograms) {
    uint64_t SliceEnd =
        std::min<uint64_t>(TotalPrograms, SliceBegin + SlicePrograms);

    // Phase 1: the deterministic program stream for this slice -- either
    // the replayed corpus verbatim (structurally unsound entries are not
    // special-cased: the service rejects them with a witness, which is
    // exactly what oracle 3 then checks) or fresh generation.
    Requests.clear();
    Requests.reserve(SliceEnd - SliceBegin);
    for (uint64_t Index = SliceBegin; Index != SliceEnd; ++Index) {
      if (Replaying) {
        Requests.push_back(Config.Replay[Index]);
        continue;
      }
      bool Mutant = Config.MutateEvery && Index > 0 &&
                    Index % Config.MutateEvery == 0;
      Program P = Mutant ? Gen.mutate(Predecessor) : Gen.next();
      if (std::optional<std::string> Error = P.validate()) {
        // The generator contract says this cannot happen; report rather
        // than assert so a fuzz campaign surfaces it as a finding.
        Report.Findings.push_back(
            {static_cast<size_t>(Index), "invalid-generated-program",
             *Error + "\n" + P.disassemble()});
        P = Gen.next(); // Keep the stream going with a fresh draw.
      }
      // The copy is only needed when the NEXT program will mutate it.
      if (Config.MutateEvery && (Index + 1) % Config.MutateEvery == 0)
        Predecessor = P;
      VerifyRequest Request;
      Request.Prog = std::move(P);
      Request.MemSize = Config.Gen.MemSize;
      Requests.push_back(std::move(Request));
    }

    // Phase 2: batch verification with fixpoint states retained (for
    // this slice only).
    BatchResult Batch = Service.verifyBatch(Requests);
    Report.Programs += Batch.Stats.Programs;
    Report.Accepted += Batch.Stats.Accepted;
    Report.RejectedStructural += Batch.Stats.RejectedStructural;
    Report.RejectedSemantic += Batch.Stats.RejectedSemantic;

    // Phase 3: the differential oracles, program by program in index
    // order (findings are deterministic). Input memories derive from
    // (Seed, program index, run), independent of scheduling.
    runOracles(Seed, Config, SliceBegin, Requests, Batch, Report);
  }

  // A campaign in which EVERY accepted program was zero-coverage proved
  // nothing: oracles 1-2 never actually fired, so "0 findings" would be
  // vacuous. Fail loudly instead of reporting a clean run -- shard
  // farming at deep widths hits this when a StepLimit is tuned too low
  // for a loop-heavy profile.
  if (Config.RunsPerProgram && Report.Accepted > 0 &&
      Report.ZeroCoveragePrograms == Report.Accepted)
    Report.Findings.push_back(
        {0, "zero-coverage-campaign",
         formatString("all %llu accepted programs exhausted the %llu-step "
                      "budget on every run; oracles 1-2 checked nothing "
                      "(raise StepLimit or change the profile)",
                      static_cast<unsigned long long>(Report.Accepted),
                      static_cast<unsigned long long>(Config.StepLimit))});
  return Report;
}
