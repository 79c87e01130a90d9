//===- tests/BpfTest.cpp - Program/Builder/Interpreter/Cfg tests ----------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "bpf/Builder.h"
#include "bpf/Cfg.h"
#include "bpf/Interpreter.h"
#include "service/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace {

Program simpleReturn(int64_t Value) {
  return ProgramBuilder().movImm(R0, Value).exit().build();
}

//===----------------------------------------------------------------------===//
// Structural validation
//===----------------------------------------------------------------------===//

TEST(ProgramValidate, AcceptsMinimalProgram) {
  EXPECT_FALSE(simpleReturn(0).validate().has_value());
}

TEST(ProgramValidate, RejectsEmptyProgram) {
  EXPECT_TRUE(Program().validate().has_value());
}

TEST(ProgramValidate, RejectsWriteToR10) {
  Program P({Insn::movImm(R10, 0), Insn::exit()});
  std::optional<std::string> Error = P.validate();
  ASSERT_TRUE(Error.has_value());
  EXPECT_NE(Error->find("r10"), std::string::npos);
}

TEST(ProgramValidate, RejectsJumpOutOfRange) {
  Program P({Insn::ja(5), Insn::exit()});
  EXPECT_TRUE(P.validate().has_value());
  Program Back({Insn::ja(-3), Insn::exit()});
  EXPECT_TRUE(Back.validate().has_value());
}

TEST(ProgramValidate, RejectsFallthroughPastEnd) {
  Program P({Insn::movImm(R0, 1)});
  std::optional<std::string> Error = P.validate();
  ASSERT_TRUE(Error.has_value());
  EXPECT_NE(Error->find("fall-through"), std::string::npos);
}

TEST(ProgramValidate, RejectsBadRegister) {
  Insn Bad = Insn::movImm(R0, 1);
  Bad.Dst = 12;
  EXPECT_TRUE(Program({Bad, Insn::exit()}).validate().has_value());
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

TEST(Builder, ResolvesForwardAndBackwardLabels) {
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .label("loop")
                  .aluImm(AluOp::Add, R0, 1)
                  .jmpImm(CompareOp::Lt, R0, 3, "loop")
                  .ja("out")
                  .label("out")
                  .exit()
                  .build();
  EXPECT_FALSE(P.validate().has_value());
  // The conditional jump at index 2 targets index 1: offset -2.
  EXPECT_EQ(P.insn(2).Offset, -2);
  // The ja at index 3 targets index 4: offset 0.
  EXPECT_EQ(P.insn(3).Offset, 0);
}

TEST(Builder, DisassemblyIsReadable) {
  Program P = ProgramBuilder()
                  .load(R2, R1, 0, 1)
                  .jmpImm(CompareOp::Gt, R2, 8, "out")
                  .label("out")
                  .movImm(R0, 0)
                  .exit()
                  .build();
  std::string Text = P.disassemble();
  EXPECT_NE(Text.find("r2 = *(u8 *)(r1 +0)"), std::string::npos);
  EXPECT_NE(Text.find("if r2 > 8 goto +0"), std::string::npos);
  EXPECT_NE(Text.find("exit"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// CFG
//===----------------------------------------------------------------------===//

/// Per-instruction successor lists, as an edge-list CFG stores them:
/// fall-through first, and a jump to Pc + 1 counted once.
std::vector<std::vector<size_t>> edgeLists(const Program &Prog) {
  std::vector<std::vector<size_t>> Succs(Prog.size());
  for (size_t Pc = 0; Pc != Prog.size(); ++Pc) {
    const Insn &I = Prog.insn(Pc);
    switch (I.InsnKind) {
    case Insn::Kind::Exit:
      break;
    case Insn::Kind::Ja:
      Succs[Pc].push_back(Program::jumpTarget(Pc, I));
      break;
    case Insn::Kind::Jmp:
      Succs[Pc].push_back(Pc + 1);
      if (Program::jumpTarget(Pc, I) != Pc + 1)
        Succs[Pc].push_back(Program::jumpTarget(Pc, I));
      break;
    default:
      Succs[Pc].push_back(Pc + 1);
      break;
    }
  }
  return Succs;
}

/// The reverse post-order of an iterative DFS over edgeLists(). Cfg reads
/// the same successors straight from each instruction; this is the oracle
/// its order must equal.
std::vector<size_t> edgeListReversePostOrder(const Program &Prog) {
  std::vector<std::vector<size_t>> Succs = edgeLists(Prog);
  std::vector<bool> Seen(Prog.size(), false);
  std::vector<size_t> PostOrder;
  std::vector<std::pair<size_t, size_t>> Stack{{0, 0}};
  Seen[0] = true;
  while (!Stack.empty()) {
    auto &[Node, NextSucc] = Stack.back();
    if (NextSucc < Succs[Node].size()) {
      size_t Succ = Succs[Node][NextSucc++];
      if (!Seen[Succ]) {
        Seen[Succ] = true;
        Stack.emplace_back(Succ, 0);
      }
      continue;
    }
    PostOrder.push_back(Node);
    Stack.pop_back();
  }
  return {PostOrder.rbegin(), PostOrder.rend()};
}

/// Position of \p Pc in \p Order (Order.size() if absent).
size_t positionOf(const std::vector<size_t> &Order, size_t Pc) {
  return std::find(Order.begin(), Order.end(), Pc) - Order.begin();
}

/// The edges (From, To) out of \p Order's instructions whose target does
/// not come later in it. In a DFS reverse post-order these are exactly the
/// DFS back edges, so the program loops iff the list is non-empty.
std::vector<std::pair<size_t, size_t>>
retreatingEdges(const Program &Prog, const std::vector<size_t> &Order) {
  std::vector<std::vector<size_t>> Succs = edgeLists(Prog);
  std::vector<std::pair<size_t, size_t>> Retreating;
  for (size_t Pos = 0; Pos != Order.size(); ++Pos)
    for (size_t Succ : Succs[Order[Pos]])
      if (positionOf(Order, Succ) <= Pos)
        Retreating.emplace_back(Order[Pos], Succ);
  return Retreating;
}

TEST(CfgTest, StraightLine) {
  Program P = simpleReturn(7);
  Cfg G(P);
  // 1 follows 0, and the exit 1 ends the order.
  EXPECT_EQ(G.reversePostOrder(), (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(retreatingEdges(P, G.reversePostOrder()).empty());
}

TEST(CfgTest, ConditionalEdges) {
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .jmpImm(CompareOp::Eq, R0, 0, "target")
                  .aluImm(AluOp::Add, R0, 1)
                  .label("target")
                  .exit()
                  .build();
  Cfg G(P);
  // Both successors of the jump 1 follow it, and the join point 3 follows
  // both of its predecessors, 1 and 2.
  EXPECT_EQ(G.reversePostOrder(), (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(retreatingEdges(P, G.reversePostOrder()).empty());
}

TEST(CfgTest, FallThroughVisitedBeforeTakenTarget) {
  // A diamond whose order tells the two successor orders apart: visiting
  // the fall-through 2 first finishes 2, 3 and 5 before the taken arm 4,
  // so 4 precedes 2 in the reverse post-order.
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .jmpImm(CompareOp::Eq, R0, 0, "taken")
                  .movImm(R0, 1)
                  .ja("join")
                  .label("taken")
                  .movImm(R0, 2)
                  .label("join")
                  .exit()
                  .build();
  Cfg G(P);
  EXPECT_EQ(G.reversePostOrder(), (std::vector<size_t>{0, 1, 4, 2, 3, 5}));
  EXPECT_EQ(G.reversePostOrder(), edgeListReversePostOrder(P));
}

TEST(CfgTest, DetectsLoop) {
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .label("loop")
                  .aluImm(AluOp::Add, R0, 1)
                  .jmpImm(CompareOp::Lt, R0, 10, "loop")
                  .exit()
                  .build();
  Cfg G(P);
  // The loop shows as the one edge that retreats in the order: 2 back to
  // its head 1.
  EXPECT_EQ(G.reversePostOrder(), (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(retreatingEdges(P, G.reversePostOrder()),
            (std::vector<std::pair<size_t, size_t>>{{2, 1}}));
}

TEST(CfgTest, UnreachableCode) {
  Program P = ProgramBuilder()
                  .ja("end")
                  .movImm(R0, 1) // Dead.
                  .label("end")
                  .movImm(R0, 0)
                  .exit()
                  .build();
  Cfg G(P);
  // The dead 1 is absent from the order; 2 is in it.
  EXPECT_EQ(positionOf(G.reversePostOrder(), 1), G.reversePostOrder().size());
  EXPECT_EQ(G.reversePostOrder(), (std::vector<size_t>{0, 2, 3}));
}

TEST(CfgTest, OrderMatchesEdgeListOracleOnEveryProfile) {
  // One reused Cfg, as the analyzer engine keeps it, over every profile's
  // first 2,000 programs and one mutant of each.
  Cfg G;
  for (GenProfile Profile :
       {GenProfile::AluMix, GenProfile::BoundsCheck, GenProfile::PacketFilter,
        GenProfile::Loops, GenProfile::MaskIdx, GenProfile::Scaled,
        GenProfile::Mixed}) {
    GenOptions Opts;
    Opts.Profile = Profile;
    ProgramGen Gen(2022, Opts);
    for (unsigned Index = 0; Index != 2000; ++Index) {
      Program Base = Gen.next();
      for (const Program &P : {Base, Gen.mutate(Base)}) {
        ASSERT_FALSE(P.validate()) << genProfileName(Profile) << " " << Index;
        G.rebuild(P);
        ASSERT_EQ(G.reversePostOrder(), edgeListReversePostOrder(P))
            << genProfileName(Profile) << " program " << Index << "\n"
            << P.disassemble();
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

TEST(Interp, ReturnsImmediate) {
  std::vector<uint8_t> Mem(16, 0);
  Interpreter I(simpleReturn(42), Mem);
  ExecResult R = I.run();
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 42u);
}

TEST(Interp, AluSemantics) {
  // r0 = ((5 + 3) * 2 - 6) / 2 % 4 = 10 / 2 % 4 = 5 % 4 = 1
  Program P = ProgramBuilder()
                  .movImm(R0, 5)
                  .aluImm(AluOp::Add, R0, 3)
                  .aluImm(AluOp::Mul, R0, 2)
                  .aluImm(AluOp::Sub, R0, 6)
                  .aluImm(AluOp::Div, R0, 2)
                  .aluImm(AluOp::Mod, R0, 4)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 1u);
}

TEST(Interp, DivModByZeroConventions) {
  Program P = ProgramBuilder()
                  .movImm(R3, 7)
                  .movImm(R4, 0)
                  .mov(R0, R3)
                  .alu(AluOp::Div, R0, R4) // 7 / 0 == 0
                  .mov(R5, R3)
                  .alu(AluOp::Mod, R5, R4) // 7 % 0 == 7
                  .alu(AluOp::Add, R0, R5)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 7u);
}

TEST(Interp, MemoryLoadStoreLittleEndian) {
  Program P = ProgramBuilder()
                  .storeImm(R1, 0, 0x11223344, 4)
                  .load(R0, R1, 0, 2)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 0x3344u);
  EXPECT_EQ(Mem[0], 0x44u);
  EXPECT_EQ(Mem[3], 0x11u);
}

TEST(Interp, StackIsAddressable) {
  Program P = ProgramBuilder()
                  .storeImm(R10, -8, 99, 8)
                  .load(R0, R10, -8, 8)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 99u);
}

TEST(Interp, OutOfBoundsLoadTraps) {
  Program P = ProgramBuilder().load(R0, R1, 16, 1).exit().build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  EXPECT_EQ(R.St, ExecResult::Status::OutOfBounds);
  EXPECT_EQ(R.FaultPc, 0u);
}

TEST(Interp, StraddlingAccessTraps) {
  // 8-byte load at offset 12 of a 16-byte region crosses the boundary.
  Program P = ProgramBuilder().load(R0, R1, 12, 8).exit().build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run().St, ExecResult::Status::OutOfBounds);
}

TEST(Interp, StackOverflowTraps) {
  Program P = ProgramBuilder().storeImm(R10, -520, 1, 8).exit().build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run().St, ExecResult::Status::OutOfBounds);
}

TEST(Interp, PositiveStackOffsetTraps) {
  // R10 is the top of the stack; nothing lives at or above it.
  Program P = ProgramBuilder().load(R0, R10, 0, 1).exit().build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run().St, ExecResult::Status::OutOfBounds);
}

TEST(Interp, UninitReadTraps) {
  Program P = ProgramBuilder().mov(R0, R5).exit().build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run().St, ExecResult::Status::UninitRead);
}

TEST(Interp, UninitR0AtExitTraps) {
  Program P = ProgramBuilder().exit().build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run().St, ExecResult::Status::UninitRead);
}

TEST(Interp, StepLimitTerminatesInfiniteLoop) {
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .label("spin")
                  .ja("spin")
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run(1000).St, ExecResult::Status::StepLimit);
}

TEST(Interp, LoopComputesSum) {
  // sum = 1 + 2 + ... + 10 = 55
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .movImm(R3, 1)
                  .label("loop")
                  .alu(AluOp::Add, R0, R3)
                  .aluImm(AluOp::Add, R3, 1)
                  .jmpImm(CompareOp::Le, R3, 10, "loop")
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 55u);
}

TEST(Interp, SignedComparison) {
  // -1 s< 0 but -1 u> 0.
  Program P = ProgramBuilder()
                  .movImm(R3, -1)
                  .movImm(R0, 0)
                  .jmpImm(CompareOp::SLt, R3, 0, "signed_less")
                  .exit()
                  .label("signed_less")
                  .movImm(R0, 1)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 1u);
}

TEST(Interp, R2HoldsMemSize) {
  Program P = ProgramBuilder().mov(R0, R2).exit().build();
  std::vector<uint8_t> Mem(24, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 24u);
}

TEST(Interp, ShiftMasksAmount) {
  Program P = ProgramBuilder()
                  .movImm(R0, 1)
                  .aluImm(AluOp::Lsh, R0, 65) // 65 & 63 == 1
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 2u);
}

TEST(Interp, NegAndArsh) {
  Program P = ProgramBuilder()
                  .movImm(R0, 8)
                  .neg(R0)                     // -8
                  .aluImm(AluOp::Arsh, R0, 2)  // -2
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(static_cast<int64_t>(R.ReturnValue), -2);
}

} // namespace
