//===- tests/MemoryBlindTest.cpp - The fuzz oracle's memory-blind check ---===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks down isMemoryBlind (service/DifferentialFuzz.h), which lets the
/// fuzz oracle count a memory-blind program's step-budget runs instead of
/// executing them: its premise (every program it calls memory-blind runs
/// identically on every input memory, over every generator profile with
/// the fuzz campaign's mutant chain), one hand-written memory-dependent
/// program per taint rule, the programs it must call memory-blind, and
/// the campaign counts the sharing rule produces.
///
//===----------------------------------------------------------------------===//

#include "service/DifferentialFuzz.h"

#include "bpf/Builder.h"
#include "bpf/Decoded.h"
#include "support/Random.h"

#include <gtest/gtest.h>

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

bool hasStore(const Program &P) {
  for (const Insn &I : P)
    if (I.InsnKind == Insn::Kind::Store)
      return true;
  return false;
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
      BlindWithStores += hasStore(P);
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
  // and a straight-line one. Over several seeds the campaign's counts must
  // be what executing every run on the oracle's memories gives, so neither
  // a miscounted shared run nor sharing a memory-dependent program's runs
  // can pass.
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
  EXPECT_TRUE(isMemoryBlind(Programs[0]));
  EXPECT_FALSE(isMemoryBlind(Programs[1]));
  EXPECT_FALSE(isMemoryBlind(Programs[2]));
  EXPECT_TRUE(isMemoryBlind(Programs[3]));

  FuzzConfig Config;
  Config.StepLimit = 1 << 12;
  for (const Program &P : Programs) {
    VerifyRequest Request;
    Request.Prog = P;
    Request.MemSize = MemSize;
    Config.Replay.push_back(Request);
  }
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
    EXPECT_EQ(Report.ConcreteRuns, Runs) << "seed " << Seed;
    EXPECT_EQ(Report.StepLimitRuns, BudgetRuns) << "seed " << Seed;
    EXPECT_EQ(Report.ZeroCoveragePrograms, ZeroCoverage) << "seed " << Seed;
  }
}

} // namespace
