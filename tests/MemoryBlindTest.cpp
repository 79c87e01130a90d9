//===- tests/MemoryBlindTest.cpp - The fuzz oracle's memory-blind check ---===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks down the two ways the fuzz oracle settles a step-budget run
/// without executing it to the budget (service/DifferentialFuzz.h).
/// isMemoryBlind lets it count a memory-blind program's budget runs: its
/// premise (every program it calls memory-blind runs identically on every
/// input memory, over every generator profile with the fuzz campaign's
/// mutant chain), one hand-written memory-dependent program per taint
/// rule, and the programs it must call memory-blind. runOrProve proves a
/// run whose control repeats: it must agree with the full run over every
/// profile, prove what it should, and never prove a counter that does not
/// repeat or a loop whose control reads memory it stores. The campaign
/// counts both rules produce must be what executing every run gives.
///
//===----------------------------------------------------------------------===//

#include "service/DifferentialFuzz.h"

#include "bpf/Builder.h"
#include "bpf/Decoded.h"
#include "support/Metrics.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <vector>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace {

constexpr uint64_t MemSize = 32;

/// Random bytes for run \p Run of program \p Index.
std::vector<uint8_t> makeMemory(uint64_t Index, unsigned Run) {
  Xoshiro256 Rng(0xB11D ^ (0x9E3779B97F4A7C15ull * (Index + 1) + Run));
  std::vector<uint8_t> Mem(MemSize);
  for (uint8_t &Byte : Mem)
    Byte = static_cast<uint8_t>(Rng.next());
  return Mem;
}

/// Runs \p P on \p Runs memories and expects every run to match the first
/// (returned in \p First) in everything a run's path decides.
void expectRunsAgree(const Program &P, uint64_t Index, unsigned Runs,
                     uint64_t StepLimit, ExecResult &First) {
  std::string Error;
  std::optional<DecodedProgram> Exec = DecodedProgram::decode(P, Error);
  ASSERT_TRUE(Exec) << Error;
  std::vector<uint8_t> Mem = makeMemory(Index, 0);
  First = Exec->run(Mem, StepLimit);
  for (unsigned Run = 1; Run != Runs; ++Run) {
    Mem = makeMemory(Index, Run);
    ExecResult R = Exec->run(Mem, StepLimit);
    ASSERT_EQ(R.St, First.St) << "run " << Run << "\n" << P.disassemble();
    ASSERT_EQ(R.Steps, First.Steps) << "run " << Run << "\n"
                                    << P.disassemble();
    ASSERT_EQ(R.ExitPc, First.ExitPc) << P.disassemble();
    ASSERT_EQ(R.FaultPc, First.FaultPc) << P.disassemble();
    ASSERT_EQ(R.Message, First.Message) << P.disassemble();
  }
}

TEST(MemoryBlind, RunsAgreeOnEveryMemoryForEveryProfile) {
  // The premise of counting instead of running: a program the check calls
  // memory-blind takes one path whatever the memory. Programs are drawn as
  // runDifferentialFuzz draws them (every fourth a mutant of its
  // predecessor), accepted or not, so traps must agree too. A small step
  // budget keeps the looping ones cheap; the path does not depend on it.
  constexpr uint64_t ProgramsPerProfile = 20000;
  constexpr unsigned MutateEvery = 4;
  const unsigned Runs = FuzzConfig().RunsPerProgram;
  uint64_t Blind = 0, BlindWithStores = 0, BlindBudgetRuns = 0;
  uint64_t Index = 0;
  for (GenProfile Profile :
       {GenProfile::AluMix, GenProfile::BoundsCheck, GenProfile::PacketFilter,
        GenProfile::Loops, GenProfile::MaskIdx, GenProfile::Scaled,
        GenProfile::Mixed}) {
    GenOptions Opts;
    Opts.Profile = Profile;
    Opts.MemSize = MemSize;
    ProgramGen Gen(0xB11D + static_cast<uint64_t>(Profile), Opts);
    Program Predecessor;
    for (uint64_t I = 0; I != ProgramsPerProfile; ++I, ++Index) {
      bool Mutant = I > 0 && I % MutateEvery == 0;
      Program P = Mutant ? Gen.mutate(Predecessor) : Gen.next();
      if (P.validate())
        P = Gen.next();
      if ((I + 1) % MutateEvery == 0)
        Predecessor = P;
      if (!isMemoryBlind(P))
        continue;
      ExecResult First;
      expectRunsAgree(P, Index, Runs, 1 << 12, First);
      if (HasFatalFailure())
        return;
      ++Blind;
      BlindWithStores += controlSlice(P).Stores;
      BlindBudgetRuns += First.St == ExecResult::Status::StepLimit;
    }
  }
  // The sweep reaches the shapes the rule matters for: 23,134 of the
  // 140,000 programs are memory-blind, 4,959 of those store and 241 run
  // into the budget.
  EXPECT_GT(Blind, 20000u);
  EXPECT_GT(BlindWithStores, 4000u);
  EXPECT_GT(BlindBudgetRuns, 200u);
}

/// Loops forever unless the low nibble of byte 0 is zero. The loop
/// repeats every 5 steps: r6 is loaded but constant after one pass, and
/// the accumulator r7 changes every pass but lies outside the slice.
Program provableLoop() {
  return ProgramBuilder()
      .load(R6, R1, 0, 1)
      .aluImm(AluOp::And, R6, 15)
      .movImm(R7, 0)
      .label("loop")
      .jmp32Imm(CompareOp::Eq, R6, 0, "out")
      .aluImm(AluOp::Sub, R7, 9543)
      .alu(AluOp::Add, R7, R6)
      .aluImm(AluOp::Or, R6, 1)
      .ja("loop")
      .label("out")
      .movImm(R0, 0)
      .exit()
      .build();
}

/// A 64-bit counter that never reaches 0 (it stays odd) and never repeats
/// within any budget.
Program counterLoop() {
  return ProgramBuilder()
      .movImm(R6, 1)
      .label("loop")
      .aluImm(AluOp::Sub, R6, 63442)
      .jmpImm(CompareOp::Eq, R6, 0, "out")
      .ja("loop")
      .label("out")
      .movImm(R0, 0)
      .exit()
      .build();
}

/// Counts to \p Bound in a stack slot: each 6-step pass reloads the slot
/// into r3, increments and stores it, and zeroes r3, so the projection
/// repeats while the slot does not. Exits after 6 * Bound + 1 steps.
Program stackCounter(int64_t Bound) {
  return ProgramBuilder()
      .storeImm(R10, -8, 0, 8)
      .label("loop")
      .load(R3, R10, -8, 8)
      .aluImm(AluOp::Add, R3, 1)
      .store(R10, -8, R3, 8)
      .jmpImm(CompareOp::Ge, R3, Bound, "out")
      .movImm(R3, 0)
      .ja("loop")
      .label("out")
      .movImm(R0, 0)
      .exit()
      .build();
}

/// Counts r3 to \p N, then exits with it after 2 * N + 3 steps or, with
/// \p Trap, traps on an out-of-bounds load at step 2 * N + 2.
Program countTo(int64_t N, bool Trap) {
  ProgramBuilder B;
  B.movImm(R3, 0)
      .label("loop")
      .aluImm(AluOp::Add, R3, 1)
      .jmpImm(CompareOp::Lt, R3, N, "loop");
  if (Trap)
    B.load(R0, R1, 4096, 1);
  else
    B.mov(R0, R3);
  return B.exit().build();
}

/// Settles one run of \p Exec on \p Mem with runOrProve and expects what
/// the full run reports: the status always, and everything a finished run
/// leaves (Steps, ExitPc, FaultPc, Message, registers, init flags) when it
/// exits or traps.
void expectSettlesAsFullRun(DecodedProgram &Exec, const ControlSlice &Slice,
                            const std::vector<uint8_t> &Mem,
                            uint64_t StepLimit, const Program &P,
                            SettledRun &Settled) {
  std::vector<uint8_t> Copy = Mem;
  ExecResult Full = Exec.run(Copy, StepLimit);
  std::array<uint64_t, NumRegs> Regs = Exec.registers();
  std::array<bool, NumRegs> Inited = Exec.initialized();
  Settled = runOrProve(Exec, Slice, Mem, StepLimit);
  const ExecResult &R = Settled.Result;
  ASSERT_EQ(R.St, Full.St) << "limit " << StepLimit << "\n" << P.disassemble();
  ASSERT_LE(Settled.ExecutedSteps, Full.Steps + 3 * ProofHorizon);
  if (Full.St == ExecResult::Status::StepLimit) {
    ASSERT_EQ(R.Steps, StepLimit);
    if (Settled.Proven) {
      ASSERT_EQ(Settled.ExecutedSteps, 3 * ProofHorizon);
    }
    return;
  }
  ASSERT_FALSE(Settled.Proven);
  ASSERT_EQ(R.Steps, Full.Steps) << P.disassemble();
  ASSERT_EQ(R.ExitPc, Full.ExitPc) << P.disassemble();
  ASSERT_EQ(R.FaultPc, Full.FaultPc) << P.disassemble();
  ASSERT_EQ(R.Message, Full.Message) << P.disassemble();
  ASSERT_EQ(Exec.registers(), Regs) << P.disassemble();
  ASSERT_EQ(Exec.initialized(), Inited) << P.disassemble();
}

/// Decodes \p P; a refusal fails the test.
DecodedProgram decodeChecked(const Program &P) {
  std::string Error;
  std::optional<DecodedProgram> Exec = DecodedProgram::decode(P, Error);
  EXPECT_TRUE(Exec) << Error;
  return Exec ? std::move(*Exec) : DecodedProgram();
}

/// r3 = *(u8 *)(r1 + 0), the loaded value the cases below route onward.
ProgramBuilder loadR3() {
  ProgramBuilder B;
  B.load(R3, R1, 0, 1);
  return B;
}

TEST(MemoryBlind, LoadedBranchConditionsAndAddressesAreDependent) {
  struct Case {
    const char *Name;
    Program Prog;
  };
  std::vector<Case> Cases;
  // Load taints its destination; a Jmp reads it.
  Cases.push_back({"load->branch",
                   loadR3()
                       .jmpImm(CompareOp::Gt, R3, 7, "out")
                       .movImm(R0, 0)
                       .exit()
                       .label("out")
                       .movImm(R0, 1)
                       .exit()
                       .build()});
  // The same, with the loaded register as the compare's source operand.
  Cases.push_back({"load->branch source",
                   loadR3()
                       .movImm(R4, 7)
                       .jmp(CompareOp::Gt, R4, R3, "out")
                       .movImm(R0, 0)
                       .exit()
                       .label("out")
                       .movImm(R0, 1)
                       .exit()
                       .build()});
  // A register-form Mov passes the taint on.
  Cases.push_back({"load->mov->branch",
                   loadR3()
                       .mov(R4, R3)
                       .jmpImm(CompareOp::Gt, R4, 7, "out")
                       .movImm(R0, 0)
                       .exit()
                       .label("out")
                       .movImm(R0, 1)
                       .exit()
                       .build()});
  // The copy sits before the load in program order, reached on a back
  // edge: one pass over the instructions would miss it.
  Cases.push_back({"mov before load on a back edge",
                   ProgramBuilder()
                       .movImm(R3, 0)
                       .movImm(R5, 0)
                       .label("loop")
                       .mov(R4, R3)
                       .jmpImm(CompareOp::Gt, R4, 200, "out")
                       .load(R3, R1, 0, 1)
                       .aluImm(AluOp::Add, R5, 1)
                       .jmpImm(CompareOp::Lt, R5, 4, "loop")
                       .label("out")
                       .movImm(R0, 0)
                       .exit()
                       .build()});
  // A register-form ALU op taints the address a Load goes through.
  Cases.push_back({"load->alu->load base",
                   loadR3()
                       .aluImm(AluOp::And, R3, 7)
                       .mov(R4, R1)
                       .alu(AluOp::Add, R4, R3)
                       .load(R5, R4, 0, 1)
                       .movImm(R0, 0)
                       .exit()
                       .build()});
  // ... or a Store.
  Cases.push_back({"store through a tainted base",
                   loadR3()
                       .aluImm(AluOp::And, R3, 7)
                       .mov(R4, R1)
                       .alu(AluOp::Add, R4, R3)
                       .storeImm(R4, 0, 1, 1)
                       .movImm(R0, 0)
                       .exit()
                       .build()});
  for (const Case &C : Cases) {
    ASSERT_FALSE(C.Prog.validate()) << C.Name;
    EXPECT_FALSE(isMemoryBlind(C.Prog)) << C.Name << "\n"
                                        << C.Prog.disassemble();
  }
}

TEST(MemoryBlind, LoadsThatFeedNoBranchOrAddressAreBlind) {
  struct Case {
    const char *Name;
    Program Prog;
  };
  std::vector<Case> Cases;
  Cases.push_back({"load-free loop",
                   ProgramBuilder()
                       .movImm(R0, 0)
                       .movImm(R3, 0)
                       .label("loop")
                       .alu(AluOp::Add, R0, R3)
                       .aluImm(AluOp::Add, R3, 1)
                       .jmpImm(CompareOp::Lt, R3, 10, "loop")
                       .exit()
                       .build()});
  // The index is masked from the counter; the loaded bytes reach only the
  // accumulator r0.
  Cases.push_back({"masked-body loop",
                   ProgramBuilder()
                       .movImm(R0, 0)
                       .movImm(R3, 0)
                       .label("loop")
                       .mov(R5, R3)
                       .aluImm(AluOp::And, R5, 15)
                       .mov(R4, R1)
                       .alu(AluOp::Add, R4, R5)
                       .load(R6, R4, 0, 1)
                       .alu(AluOp::Add, R0, R6)
                       .aluImm(AluOp::Add, R3, 1)
                       .jmpImm(CompareOp::Lt, R3, 16, "loop")
                       .exit()
                       .build()});
  // Neg reads only its destination, whatever its unused Src field names.
  Cases.push_back({"neg beside a loaded r0",
                   ProgramBuilder()
                       .load(R0, R1, 0, 1)
                       .movImm(R3, 5)
                       .neg(R3)
                       .jmpImm(CompareOp::SGt, R3, 0, "out")
                       .aluImm(AluOp::Add, R0, 1)
                       .label("out")
                       .exit()
                       .build()});
  for (size_t I = 0; I != Cases.size(); ++I) {
    const Case &C = Cases[I];
    ASSERT_FALSE(C.Prog.validate()) << C.Name;
    EXPECT_TRUE(isMemoryBlind(C.Prog)) << C.Name << "\n"
                                       << C.Prog.disassemble();
    ExecResult First;
    expectRunsAgree(C.Prog, I, 8, 1 << 20, First);
  }
}

TEST(MemoryBlind, CampaignCountsMatchRunningEveryMemory) {
  // Four accepted programs: a load-free loop that never exits, a
  // memory-dependent loop that never exits either (a byte is never above
  // 255), a memory-dependent one that loops exactly when byte 0 is even,
  // and a straight-line one; then runOrProve's three loops: one it proves
  // wherever byte 0 sends it looping, a counter it cannot prove, and a
  // stack counter whose projection repeats but which exits after 12,001
  // steps. Over several seeds and at a limit below and above 2H, the
  // campaign's counts must be what executing every run on the oracle's
  // memories to the full limit gives, so neither a miscounted shared run,
  // nor sharing a memory-dependent program's runs, nor a proof that
  // ignores memory can pass.
  std::vector<Program> Programs;
  Programs.push_back(ProgramBuilder()
                         .movImm(R0, 0)
                         .movImm(R3, 0)
                         .label("loop")
                         .aluImm(AluOp::Add, R3, 1)
                         .aluImm(AluOp::And, R3, 7)
                         .jmpImm(CompareOp::Gt, R3, 8, "out")
                         .ja("loop")
                         .label("out")
                         .exit()
                         .build());
  Programs.push_back(ProgramBuilder()
                         .movImm(R0, 0)
                         .label("loop")
                         .load(R3, R1, 0, 1)
                         .jmpImm(CompareOp::Gt, R3, 255, "out")
                         .ja("loop")
                         .label("out")
                         .exit()
                         .build());
  Programs.push_back(ProgramBuilder()
                         .movImm(R0, 0)
                         .load(R3, R1, 0, 1)
                         .aluImm(AluOp::And, R3, 1)
                         .jmpImm(CompareOp::Ne, R3, 0, "out")
                         .label("loop")
                         .aluImm(AluOp::Add, R0, 1)
                         .ja("loop")
                         .label("out")
                         .exit()
                         .build());
  Programs.push_back(ProgramBuilder().movImm(R0, 0).exit().build());
  Programs.push_back(provableLoop());
  Programs.push_back(counterLoop());
  Programs.push_back(stackCounter(2000));
  EXPECT_TRUE(isMemoryBlind(Programs[0]));
  EXPECT_FALSE(isMemoryBlind(Programs[1]));
  EXPECT_FALSE(isMemoryBlind(Programs[2]));
  EXPECT_TRUE(isMemoryBlind(Programs[3]));
  EXPECT_FALSE(isMemoryBlind(Programs[4]));
  EXPECT_TRUE(isMemoryBlind(Programs[5]));
  EXPECT_FALSE(isMemoryBlind(Programs[6]));

  FuzzConfig Config;
  for (const Program &P : Programs) {
    VerifyRequest Request;
    Request.Prog = P;
    Request.MemSize = MemSize;
    Config.Replay.push_back(Request);
  }
  for (uint64_t StepLimit : {uint64_t(1) << 12, uint64_t(1) << 14}) {
    Config.StepLimit = StepLimit;
    for (uint64_t Seed = 1; Seed != 9; ++Seed) {
      FuzzReport Report = runDifferentialFuzz(Seed, Config);
      ASSERT_EQ(Report.Accepted, Programs.size());
      EXPECT_TRUE(Report.clean()) << Report.toString();
      uint64_t Runs = 0, BudgetRuns = 0, ZeroCoverage = 0;
      for (size_t Index = 0; Index != Programs.size(); ++Index) {
        std::string Error;
        std::optional<DecodedProgram> Exec =
            DecodedProgram::decode(Programs[Index], Error);
        ASSERT_TRUE(Exec) << Error;
        unsigned Covered = 0;
        for (unsigned Run = 0; Run != Config.RunsPerProgram; ++Run) {
          // The oracle's input memory for (seed, program index, run).
          Xoshiro256 Rng(Seed ^ (0x9E3779B97F4A7C15ull * (Index + 1) + Run));
          std::vector<uint8_t> Mem(MemSize);
          for (uint8_t &Byte : Mem)
            Byte = static_cast<uint8_t>(Rng.next());
          ++Runs;
          if (Exec->run(Mem, Config.StepLimit).St ==
              ExecResult::Status::StepLimit)
            ++BudgetRuns;
          else
            ++Covered;
        }
        ZeroCoverage += Covered == 0;
      }
      EXPECT_EQ(Report.ConcreteRuns, Runs)
          << "seed " << Seed << ", limit " << StepLimit;
      EXPECT_EQ(Report.StepLimitRuns, BudgetRuns)
          << "seed " << Seed << ", limit " << StepLimit;
      EXPECT_EQ(Report.ZeroCoveragePrograms, ZeroCoverage)
          << "seed " << Seed << ", limit " << StepLimit;
    }
  }
}


TEST(BudgetProof, MatchesFullRunsOnEveryProfile) {
  // Programs drawn as the campaign draws them, accepted or not, on 8
  // memories each, at the smallest limit the proof applies to, at 2^14 and
  // at the campaign's 2^20: the runner reports what the full run does.
  struct Leg {
    uint64_t StepLimit;
    uint64_t ProgramsPerProfile;
  };
  constexpr Leg Legs[] = {
      {2 * ProofHorizon + 1, 4000}, {1 << 14, 2000}, {1 << 20, 200}};
  constexpr unsigned MutateEvery = 4;
  const unsigned Runs = FuzzConfig().RunsPerProgram;
  uint64_t Index = 0;
  for (const Leg &L : Legs) {
    for (GenProfile Profile :
         {GenProfile::AluMix, GenProfile::BoundsCheck,
          GenProfile::PacketFilter, GenProfile::Loops, GenProfile::MaskIdx,
          GenProfile::Scaled, GenProfile::Mixed}) {
      GenOptions Opts;
      Opts.Profile = Profile;
      Opts.MemSize = MemSize;
      ProgramGen Gen(0x9A0F + static_cast<uint64_t>(Profile), Opts);
      Program Predecessor;
      uint64_t Proven = 0;
      for (uint64_t I = 0; I != L.ProgramsPerProfile; ++I, ++Index) {
        bool Mutant = I > 0 && I % MutateEvery == 0;
        Program P = Mutant ? Gen.mutate(Predecessor) : Gen.next();
        if (P.validate())
          P = Gen.next();
        if ((I + 1) % MutateEvery == 0)
          Predecessor = P;
        DecodedProgram Exec = decodeChecked(P);
        const ControlSlice Slice = controlSlice(P);
        for (unsigned Run = 0; Run != Runs; ++Run) {
          SettledRun Settled;
          expectSettlesAsFullRun(Exec, Slice, makeMemory(Index, Run),
                                 L.StepLimit, P, Settled);
          if (HasFatalFailure())
            return;
          Proven += Settled.Proven;
        }
      }
      if (Profile == GenProfile::Loops) {
        EXPECT_GT(Proven, 0u) << "limit " << L.StepLimit;
      }
    }
  }
}

TEST(BudgetProof, ProvesALoopWhoseAccumulatorIsOutsideTheSlice) {
  const Program P = provableLoop();
  const ControlSlice Slice = controlSlice(P);
  EXPECT_EQ(Slice.Regs, (1u << R1) | (1u << R6));
  EXPECT_TRUE(Slice.ReadsMemory);
  EXPECT_FALSE(Slice.Stores);
  DecodedProgram Exec = decodeChecked(P);
  unsigned Proven = 0;
  for (unsigned Run = 0; Run != 16; ++Run) {
    std::vector<uint8_t> Mem = makeMemory(0, Run);
    SettledRun Settled;
    expectSettlesAsFullRun(Exec, Slice, Mem, 1 << 20, P, Settled);
    ASSERT_FALSE(HasFatalFailure());
    // It loops exactly when byte 0's low nibble is set, and then repeats.
    EXPECT_EQ(Settled.Proven, (Mem[0] & 15) != 0) << "run " << Run;
    Proven += Settled.Proven;
  }
  EXPECT_GT(Proven, 8u);
}

TEST(BudgetProof, NeverProvesACounterThatDoesNotRepeat) {
  const Program P = counterLoop();
  DecodedProgram Exec = decodeChecked(P);
  SettledRun Settled;
  expectSettlesAsFullRun(Exec, controlSlice(P), makeMemory(0, 0), 1 << 20, P,
                         Settled);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(Settled.Result.St, ExecResult::Status::StepLimit);
  EXPECT_FALSE(Settled.Proven);
  // Both prefixes, then the full budget.
  EXPECT_EQ(Settled.ExecutedSteps, 3 * ProofHorizon + (1 << 20));
}

TEST(BudgetProof, NeverProvesWhenALoadedValueCanSeeAStore) {
  // The projection repeats every 6 steps, the slot it reloads does not:
  // the run exits after 24,001 steps.
  const Program P = stackCounter(4000);
  const ControlSlice Slice = controlSlice(P);
  EXPECT_TRUE(Slice.ReadsMemory);
  EXPECT_TRUE(Slice.Stores);
  DecodedProgram Exec = decodeChecked(P);
  SettledRun Settled;
  expectSettlesAsFullRun(Exec, Slice, makeMemory(0, 0), 1 << 20, P, Settled);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(Settled.Result.St, ExecResult::Status::Ok);
  EXPECT_EQ(Settled.Result.Steps, 24001u);
  // The proof cannot apply, so the run is a plain one.
  EXPECT_EQ(Settled.ExecutedSteps, 24001u);
}

TEST(BudgetProof, LateEndingsReturnTheFullRun) {
  // Exits and traps after H and before 2H steps, and after 2H.
  for (int64_t N : {1500, 10000}) {
    for (bool Trap : {false, true}) {
      const Program P = countTo(N, Trap);
      const uint64_t Steps = 2 * N + (Trap ? 2 : 3);
      DecodedProgram Exec = decodeChecked(P);
      SettledRun Settled;
      expectSettlesAsFullRun(Exec, controlSlice(P), makeMemory(0, 0), 1 << 20,
                             P, Settled);
      ASSERT_FALSE(HasFatalFailure());
      EXPECT_EQ(Settled.Result.St, Trap ? ExecResult::Status::OutOfBounds
                                        : ExecResult::Status::Ok);
      EXPECT_EQ(Settled.Result.Steps, Steps);
      EXPECT_EQ(Settled.ExecutedSteps, Steps < 2 * ProofHorizon
                                           ? ProofHorizon + Steps
                                           : 3 * ProofHorizon + Steps);
    }
  }
}

TEST(BudgetProof, ShortBudgetsRunPlainly) {
  // At StepLimit <= 2H the runner makes one plain run; one step more and
  // the same loop is proven.
  const Program Loop = provableLoop();
  const ControlSlice Slice = controlSlice(Loop);
  DecodedProgram Exec = decodeChecked(Loop);
  std::vector<uint8_t> Mem = makeMemory(0, 0);
  Mem[0] = 1;
  for (uint64_t StepLimit : {uint64_t(1) << 12, 2 * ProofHorizon}) {
    SettledRun Settled = runOrProve(Exec, Slice, Mem, StepLimit);
    EXPECT_EQ(Settled.Result.St, ExecResult::Status::StepLimit);
    EXPECT_FALSE(Settled.Proven);
    EXPECT_EQ(Settled.ExecutedSteps, StepLimit);
  }
  SettledRun Settled = runOrProve(Exec, Slice, Mem, 2 * ProofHorizon + 1);
  EXPECT_TRUE(Settled.Proven);
  EXPECT_EQ(Settled.ExecutedSteps, 3 * ProofHorizon);

  const Program Count = countTo(1500, false);
  DecodedProgram CountExec = decodeChecked(Count);
  Settled = runOrProve(CountExec, controlSlice(Count), Mem, 2 * ProofHorizon);
  EXPECT_EQ(Settled.Result.St, ExecResult::Status::Ok);
  EXPECT_EQ(Settled.ExecutedSteps, 3003u);
}

/// The current value of counter \p FullName.
uint64_t counterValue(const char *FullName) {
  MetricsSnapshot Snap = MetricsRegistry::instance().snapshot();
  const MetricValue *V = Snap.find(FullName);
  return V ? V->Count : 0;
}

TEST(BudgetProof, MetricsSplitBudgetRunsWithoutChangingTheReport) {
  FuzzConfig Config;
  Config.Programs = 256;
  Config.Gen.Profile = GenProfile::Loops;
  const FuzzReport Off = runDifferentialFuzz(7, Config);

  const char *const Settled[] = {
      "tnums_fuzz_budget_runs_total{settled=\"run\"}",
      "tnums_fuzz_budget_runs_total{settled=\"proven\"}",
      "tnums_fuzz_budget_runs_total{settled=\"shared\"}"};
  enableProcessMetrics();
  uint64_t Before[3], StepsBefore = counterValue("tnums_fuzz_steps_total");
  for (unsigned I = 0; I != 3; ++I)
    Before[I] = counterValue(Settled[I]);
  const FuzzReport On = runDifferentialFuzz(7, Config);
  uint64_t Delta[3];
  for (unsigned I = 0; I != 3; ++I)
    Delta[I] = counterValue(Settled[I]) - Before[I];
  const uint64_t Steps = counterValue("tnums_fuzz_steps_total") - StepsBefore;
  disableProcessMetrics();

  EXPECT_EQ(On.toString(), Off.toString());
  ASSERT_EQ(On.Findings.size(), Off.Findings.size());
  for (size_t I = 0; I != On.Findings.size(); ++I)
    EXPECT_EQ(On.Findings[I].Details, Off.Findings[I].Details);
  EXPECT_EQ(Delta[0] + Delta[1] + Delta[2], On.StepLimitRuns);
  EXPECT_GT(Delta[1], 0u);
  EXPECT_GT(Steps, 0u);
}

} // namespace
