//===- tests/AnalyzerTest.cpp - Abstract interpreter / verifier tests -----===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "bpf/Analyzer.h"

#include "bpf/Builder.h"
#include "bpf/Verifier.h"
#include "service/ProgramGen.h"
#include "support/Checkpoint.h"
#include "support/Table.h"

#include <gtest/gtest.h>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace {

VerifierReport verify(const Program &P, uint64_t MemSize = 16) {
  return verifyProgram(P, MemSize);
}

//===----------------------------------------------------------------------===//
// Acceptance of safe programs
//===----------------------------------------------------------------------===//

TEST(Verifier, AcceptsMinimalProgram) {
  Program P = ProgramBuilder().movImm(R0, 0).exit().build();
  VerifierReport R = verify(P);
  EXPECT_TRUE(R.Accepted) << R.toString(P);
}

TEST(Verifier, PaperIntroExample) {
  // The paper's §I scenario: a value with bit-level uncertainty is masked
  // to 01µ0 (here via `& 6`), so the analyzer proves x <= 6 < 8 and the
  // 8-byte access at mem[x] into a 16-byte region is safe.
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 1)          // r3 = *(u8*)(r1+0): unknown
                  .aluImm(AluOp::And, R3, 6)   // r3 = 0 1 µ µ & ... = 01µ0-ish
                  .alu(AluOp::Add, R3, R1)     // scalar + ptr -> ptr
                  .load(R0, R3, 0, 8)          // 8-byte load at offset <= 6
                  .exit()
                  .build();
  VerifierReport R = verify(P, /*MemSize=*/16);
  EXPECT_TRUE(R.Accepted) << R.toString(P);
}

TEST(Verifier, BranchRefinementProvesBound) {
  // Unbounded byte from memory, explicitly bounds-checked before use as an
  // offset. The classic packet-parsing shape.
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 1)
                  .jmpImm(CompareOp::Gt, R3, 8, "reject")
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 8) // offsets 0..8 + 8 bytes <= 16: safe
                  .exit()
                  .label("reject")
                  .movImm(R0, 0)
                  .exit()
                  .build();
  VerifierReport R = verify(P, /*MemSize=*/16);
  EXPECT_TRUE(R.Accepted) << R.toString(P);
}

TEST(Verifier, RejectsWithoutBoundsCheck) {
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 1)
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 8) // offset may be 255: unsafe
                  .exit()
                  .build();
  VerifierReport R = verify(P, /*MemSize=*/16);
  EXPECT_FALSE(R.Accepted);
  ASSERT_FALSE(R.Violations.empty());
  EXPECT_NE(R.Violations[0].Message.find("context access"),
            std::string::npos);
}

TEST(Verifier, TnumMaskingAlonePassesWithoutBranch) {
  // `& 7` bounds the offset purely through the tnum domain -- no branch
  // needed. This is exactly what tnums buy the kernel.
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 8)
                  .aluImm(AluOp::And, R3, 7)
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 8)
                  .exit()
                  .build();
  EXPECT_TRUE(verify(P, 16).Accepted);
}

TEST(Verifier, MultiplicationBoundsFlowThroughTnums) {
  // offset = (x & 1) * 8: tnum multiplication keeps the result in {0, 8}.
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 1)
                  .aluImm(AluOp::And, R3, 1)
                  .aluImm(AluOp::Mul, R3, 8)
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 8)
                  .exit()
                  .build();
  EXPECT_TRUE(verify(P, 16).Accepted);
}

TEST(Verifier, ShiftBoundsFlowThroughTnums) {
  // offset = (x & 1) << 3 ∈ {0, 8}.
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 1)
                  .aluImm(AluOp::And, R3, 1)
                  .aluImm(AluOp::Lsh, R3, 3)
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 8)
                  .exit()
                  .build();
  EXPECT_TRUE(verify(P, 16).Accepted);
}

TEST(Verifier, StackAccessWithinFrame) {
  Program P = ProgramBuilder()
                  .storeImm(R10, -8, 1, 8)
                  .load(R0, R10, -8, 8)
                  .exit()
                  .build();
  EXPECT_TRUE(verify(P).Accepted);
}

//===----------------------------------------------------------------------===//
// Rejection of unsafe programs
//===----------------------------------------------------------------------===//

TEST(Verifier, RejectsOobConstantOffset) {
  Program P = ProgramBuilder().load(R0, R1, 16, 1).exit().build();
  EXPECT_FALSE(verify(P, 16).Accepted);
}

TEST(Verifier, RejectsStraddlingAccess) {
  Program P = ProgramBuilder().load(R0, R1, 12, 8).exit().build();
  EXPECT_FALSE(verify(P, 16).Accepted);
}

TEST(Verifier, RejectsStackEscape) {
  Program P = ProgramBuilder().storeImm(R10, -520, 1, 8).exit().build();
  EXPECT_FALSE(verify(P).Accepted);
  Program Q = ProgramBuilder().load(R0, R10, 0, 1).exit().build();
  EXPECT_FALSE(verify(Q).Accepted);
}

TEST(Verifier, RejectsUninitRead) {
  Program P = ProgramBuilder().mov(R0, R5).exit().build();
  VerifierReport R = verify(P);
  EXPECT_FALSE(R.Accepted);
  EXPECT_NE(R.Violations[0].Message.find("uninit"), std::string::npos);
}

TEST(Verifier, RejectsMaybeUninitAfterJoin) {
  // R3 initialized on one path only: the join is unusable.
  Program P = ProgramBuilder()
                  .load(R4, R1, 0, 1)
                  .jmpImm(CompareOp::Eq, R4, 0, "skip")
                  .movImm(R3, 1)
                  .label("skip")
                  .mov(R0, R3)
                  .exit()
                  .build();
  EXPECT_FALSE(verify(P).Accepted);
}

TEST(Verifier, RejectsPointerLeakViaR0) {
  Program P = ProgramBuilder().mov(R0, R1).exit().build();
  VerifierReport R = verify(P);
  EXPECT_FALSE(R.Accepted);
  EXPECT_NE(R.Violations[0].Message.find("pointer leak"), std::string::npos);
}

TEST(Verifier, RejectsPointerPlusPointer) {
  Program P = ProgramBuilder()
                  .mov(R3, R1)
                  .alu(AluOp::Add, R3, R10)
                  .movImm(R0, 0)
                  .exit()
                  .build();
  VerifierReport R = verify(P);
  EXPECT_FALSE(R.Accepted);
  EXPECT_NE(R.Violations[0].Message.find("pointer arithmetic"),
            std::string::npos);
}

TEST(Verifier, RejectsMulOnPointer) {
  Program P = ProgramBuilder()
                  .mov(R3, R1)
                  .aluImm(AluOp::Mul, R3, 2)
                  .movImm(R0, 0)
                  .exit()
                  .build();
  EXPECT_FALSE(verify(P).Accepted);
}

TEST(Verifier, RejectsLoadThroughScalar) {
  Program P = ProgramBuilder()
                  .movImm(R3, 1234)
                  .load(R0, R3, 0, 1)
                  .exit()
                  .build();
  EXPECT_FALSE(verify(P).Accepted);
}

TEST(Verifier, RejectsPointerStoreToMemory) {
  Program P = ProgramBuilder()
                  .store(R1, 0, R10, 8)
                  .movImm(R0, 0)
                  .exit()
                  .build();
  EXPECT_FALSE(verify(P).Accepted);
}

TEST(Verifier, ReportsStructuralErrors) {
  Program P({Insn::movImm(R0, 1)}); // Falls off the end.
  VerifierReport R = verify(P);
  EXPECT_FALSE(R.Accepted);
  EXPECT_FALSE(R.StructuralError.empty());
}

//===----------------------------------------------------------------------===//
// Branch reasoning details
//===----------------------------------------------------------------------===//

TEST(Analyzer, InfeasibleBranchIsPruned) {
  // r3 = 5; if r3 == 5 is always taken, so the "bad" path with the OOB
  // access is unreachable and must not be reported.
  Program P = ProgramBuilder()
                  .movImm(R3, 5)
                  .jmpImm(CompareOp::Eq, R3, 5, "good")
                  .load(R0, R1, 1000, 8) // dead
                  .exit()
                  .label("good")
                  .movImm(R0, 0)
                  .exit()
                  .build();
  EXPECT_TRUE(verify(P, 16).Accepted);
}

TEST(Analyzer, RefinementAppliesToBothOperands) {
  // After `if r3 >= r4` (not taken: r3 < r4 <= 8), r3 <= 7.
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 1)
                  .movImm(R4, 8)
                  .jmp(CompareOp::Ge, R3, R4, "reject")
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 8) // r3 in [0,7], +8 bytes <= 15 < 16
                  .exit()
                  .label("reject")
                  .movImm(R0, 0)
                  .exit()
                  .build();
  EXPECT_TRUE(verify(P, 16).Accepted) << verify(P, 16).toString(P);
}

TEST(Analyzer, SignedBranchRefinement) {
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 8)
                  .jmpImm(CompareOp::SLt, R3, 0, "reject")
                  .jmpImm(CompareOp::SGt, R3, 7, "reject")
                  .alu(AluOp::Add, R3, R1) // 0 <= r3 <= 7 signed => unsigned
                  .load(R0, R3, 0, 8)
                  .exit()
                  .label("reject")
                  .movImm(R0, 0)
                  .exit()
                  .build();
  EXPECT_TRUE(verify(P, 16).Accepted) << verify(P, 16).toString(P);
}

TEST(Analyzer, JsetRefinement) {
  // If (x & 0x8) == 0 then x & 0xF <= 7.
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 1)
                  .jmpImm(CompareOp::Set, R3, 8, "reject")
                  .aluImm(AluOp::And, R3, 0xF) // bit 3 known 0: result <= 7
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 8)
                  .exit()
                  .label("reject")
                  .movImm(R0, 0)
                  .exit()
                  .build();
  EXPECT_TRUE(verify(P, 16).Accepted) << verify(P, 16).toString(P);
}

TEST(Analyzer, LoopWithWideningTerminatesAndAccepts) {
  // A bounded loop whose body touches memory at a constant offset; the
  // widened fixpoint must still accept.
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .movImm(R3, 0)
                  .label("loop")
                  .load(R4, R1, 0, 1)
                  .alu(AluOp::Add, R0, R4)
                  .aluImm(AluOp::Add, R3, 1)
                  .jmpImm(CompareOp::Lt, R3, 100, "loop")
                  .exit()
                  .build();
  VerifierReport R = verify(P, 16);
  EXPECT_TRUE(R.Accepted) << R.toString(P);
}

TEST(Analyzer, LoopVariantOffsetIsRejected) {
  // Memory offset grows with the loop counter without a bound check: after
  // widening the offset is unbounded, so the access must be rejected.
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .movImm(R3, 0)
                  .label("loop")
                  .mov(R4, R1)
                  .alu(AluOp::Add, R4, R3)
                  .load(R5, R4, 0, 1)
                  .aluImm(AluOp::Add, R3, 1)
                  .jmpImm(CompareOp::Ne, R3, 0, "loop")
                  .exit()
                  .build();
  EXPECT_FALSE(verify(P, 16).Accepted);
}

TEST(Analyzer, ByteLoadIsBoundedWithoutAnExplicitCheck) {
  // An 8-bit load can only produce 0..255; the analyzer's narrow-load
  // modeling (the partial extensions of §II-C) must carry that bound with
  // no mask or branch in sight. 255 + an 8-byte access = 263 bytes.
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 1)
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 8)
                  .exit()
                  .build();
  EXPECT_TRUE(verify(P, 263).Accepted) << verify(P, 263).toString(P);
  // One byte short: the worst-case index must be rejected, witnessed.
  VerifierReport Tight = verify(P, 262);
  EXPECT_FALSE(Tight.Accepted);
  EXPECT_FALSE(Tight.Violations.empty());
}

TEST(Analyzer, HalfwordLoadIsBoundedWithoutAnExplicitCheck) {
  // Same for a 16-bit load: 0..65535, so 65535 + 1 byte just fits.
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 2)
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 1)
                  .exit()
                  .build();
  EXPECT_TRUE(verify(P, 65536).Accepted);
  VerifierReport Tight = verify(P, 65535);
  EXPECT_FALSE(Tight.Accepted);
  EXPECT_FALSE(Tight.Violations.empty());
}

TEST(Analyzer, NarrowLoadShiftComposesKnownBits) {
  // The high byte of a halfword load: tnum RSH keeps the narrow-load
  // bound exact (0..255 again), composing the §II-B shift transfer with
  // the load's implicit zero extension.
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 2)
                  .aluImm(AluOp::Rsh, R3, 8)
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 8)
                  .exit()
                  .build();
  VerifierReport R = verify(P, 263);
  EXPECT_TRUE(R.Accepted) << R.toString(P);
  EXPECT_FALSE(verify(P, 262).Accepted);
}

TEST(Analyzer, StateDumpMentionsTnums) {
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 1)
                  .aluImm(AluOp::And, R3, 6)
                  .movImm(R0, 0)
                  .exit()
                  .build();
  VerifierReport R = verify(P, 16);
  ASSERT_TRUE(R.Accepted);
  // After the AND, the in-state of insn 2 shows r3's tnum with bits 0 and
  // 3..63 known zero.
  std::string Dump = R.toString(P);
  EXPECT_NE(Dump.find("r3="), std::string::npos);
  EXPECT_NE(Dump.find("tnum="), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Fixpoint parity
//===----------------------------------------------------------------------===//

/// FNV-1a over the verdict fields and every reachable fixpoint state of
/// the first 256 seed-2022 programs of \p Profile plus 64 mutants of them,
/// all analyzed by one reused engine.
uint64_t fixpointDigest(GenProfile Profile) {
  GenOptions Gen;
  Gen.Profile = Profile;
  ProgramGen Generator(2022, Gen);
  Analyzer::Options Opts;
  Opts.MemSize = Gen.MemSize;
  Analyzer Engine;
  Fnv1a Hash;
  auto Mix = [&](const Program &P) {
    if (P.validate()) {
      Hash.mixString("structural");
      return;
    }
    AnalysisResult R = Engine.analyze(P, Opts);
    Hash.mixU64(R.Converged);
    Hash.mixU64(R.InsnVisits);
    for (const Violation &V : R.Violations) {
      Hash.mixU64(V.Pc);
      Hash.mixString(V.Message);
    }
    for (size_t Pc = 0; Pc != R.InStates.size(); ++Pc) {
      if (!R.InStates[Pc].Reachable)
        continue;
      Hash.mixU64(Pc);
      Hash.mixString(R.InStates[Pc].toString());
    }
  };
  std::vector<Program> Programs;
  for (unsigned I = 0; I != 256; ++I)
    Programs.push_back(Generator.next());
  for (const Program &P : Programs)
    Mix(P);
  for (unsigned I = 0; I != 64; ++I)
    Mix(Generator.mutate(Programs[I]));
  return Hash.digest();
}

TEST(Analyzer, FixpointStatesMatchRecordedDigests) {
  // Verdict fingerprints cannot see a join that loses precision without
  // flipping a verdict; these digests can. A change here is a change to
  // the analysis and needs an analyzerVersionTag() bump.
  struct Expected {
    GenProfile Profile;
    uint64_t Digest;
  };
  static constexpr Expected Recorded[] = {
      {GenProfile::AluMix, 0x129d5582769dcdc6},
      {GenProfile::BoundsCheck, 0x1c583667e42492e7},
      {GenProfile::PacketFilter, 0x5c164602b96bb301},
      {GenProfile::Loops, 0xf440b63e7a5fbd42},
      {GenProfile::MaskIdx, 0xd9f843c469aa19e3},
      {GenProfile::Scaled, 0x47c69bce1db57335},
      {GenProfile::Mixed, 0xdca9f0860f821d13},
  };
  for (const Expected &E : Recorded)
    EXPECT_EQ(formatString("%016llx", static_cast<unsigned long long>(
                                          fixpointDigest(E.Profile))),
              formatString("%016llx",
                           static_cast<unsigned long long>(E.Digest)))
        << genProfileName(E.Profile);
}

} // namespace
