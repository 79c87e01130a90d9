//===- bpf/Analyzer.cpp - Abstract interpreter over BPF programs ----------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "bpf/Analyzer.h"

#include "bpf/Interpreter.h" // StackSize
#include "support/Metrics.h"
#include "support/Table.h"
#include "support/Trace.h"

using namespace tnums;
using namespace tnums::bpf;

namespace {

/// Analyzer telemetry handles (support/Metrics.h). Observation only:
/// nothing here feeds back into states or verdicts, so
/// analyzerVersionTag() stays untouched and metrics-on runs produce
/// bit-identical reports to metrics-off runs.
struct AnalyzerMetrics {
  Histogram CfgRebuildNs{"tnums_analyzer_phase_ns", "phase=\"cfg_rebuild\""};
  Histogram FixpointNs{"tnums_analyzer_phase_ns", "phase=\"fixpoint\""};
  Counter Analyses{"tnums_analyzer_analyses_total"};
  Counter InsnVisits{"tnums_analyzer_insn_visits_total"};
  Counter Revisits{"tnums_analyzer_worklist_revisits_total"};
  Counter NotConverged{"tnums_analyzer_nonconverged_total"};
  /// Propagations of a reachable state into a successor: "subsumed" left
  /// the successor's in-state unchanged, "changed" grew it.
  Counter JoinsSubsumed{"tnums_analyzer_joins_total", "result=\"subsumed\""};
  Counter JoinsChanged{"tnums_analyzer_joins_total", "result=\"changed\""};
  /// Growing joins past the widening threshold (widening applied).
  Counter Widenings{"tnums_analyzer_widenings_total"};
  Counter TransferLoadImm{"tnums_analyzer_transfer_total", "op=\"loadimm\""};
  Counter TransferLoad{"tnums_analyzer_transfer_total", "op=\"load\""};
  Counter TransferStore{"tnums_analyzer_transfer_total", "op=\"store\""};
  Counter TransferJmp{"tnums_analyzer_transfer_total", "op=\"jmp\""};
  Counter TransferJa{"tnums_analyzer_transfer_total", "op=\"ja\""};
  Counter TransferExit{"tnums_analyzer_transfer_total", "op=\"exit\""};
  std::vector<Counter> TransferAlu; ///< Indexed by AluOp.

  AnalyzerMetrics() {
    for (uint8_t Op = 0; Op <= static_cast<uint8_t>(AluOp::Neg); ++Op) {
      std::string Labels = formatString(
          "op=\"%s\"", aluOpName(static_cast<AluOp>(Op)));
      TransferAlu.emplace_back("tnums_analyzer_transfer_total",
                               Labels.c_str());
    }
  }
};

AnalyzerMetrics &analyzerMetrics() {
  static AnalyzerMetrics M;
  return M;
}

} // namespace

const char *tnums::bpf::analyzerVersionTag() {
  // Bump on ANY verdict-affecting change (transfer semantics, violation
  // wording, worklist order changing InsnVisits, widening policy).
  return "worklist-rpo-widening-2025-08";
}

Analyzer::Analyzer(const Program &ProgV, Options OptsV)
    : Prog(&ProgV), Graph(ProgV), Opts(OptsV) {}

AnalysisResult Analyzer::analyze() {
  assert(Prog && "no program bound; use analyze(Prog, Opts)");
  return run();
}

AnalysisResult Analyzer::analyze(const Program &ProgV, const Options &OptsV) {
  Prog = &ProgV;
  Opts = OptsV;
  {
    ScopedTimer Timer(analyzerMetrics().CfgRebuildNs);
    Graph.rebuild(ProgV);
  }
  return run();
}

void Analyzer::report(AnalysisResult &Result, size_t Pc,
                      std::string Message) {
  for (const Violation &V : Result.Violations)
    if (V.Pc == Pc && V.Message == Message)
      return;
  Result.Violations.push_back(Violation{Pc, std::move(Message)});
}

std::string Analyzer::checkMemoryAccess(const AbsReg &Base, int32_t Offset,
                                        unsigned Size) const {
  assert(Base.isPointer() && "bounds check on non-pointer");
  const RegValue &Off = Base.value();
  if (Base.kind() == RegKind::PtrToMem) {
    // Context accesses use the unsigned view of the offset: every concrete
    // offset o must satisfy 0 <= o + Offset and o + Offset + Size <= MemSize.
    __int128 Lo =
        static_cast<__int128>(Off.unsignedBounds().min()) + Offset;
    __int128 Hi = static_cast<__int128>(Off.unsignedBounds().max()) + Offset +
                  static_cast<__int128>(Size);
    if (Lo < 0 || Hi > static_cast<__int128>(Opts.MemSize))
      return formatString(
          "context access of %u bytes at offset %s%+d may escape [0, %llu)",
          Size, Off.unsignedBounds().toString().c_str(), Offset,
          static_cast<unsigned long long>(Opts.MemSize));
    return std::string();
  }
  // Stack accesses live at negative frame offsets: [-StackSize, 0).
  __int128 Lo = static_cast<__int128>(Off.signedBounds().min()) + Offset;
  __int128 Hi = static_cast<__int128>(Off.signedBounds().max()) + Offset +
                static_cast<__int128>(Size);
  if (Lo < -static_cast<__int128>(StackSize) || Hi > 0)
    return formatString(
        "stack access of %u bytes at offset %s%+d escapes [-%llu, 0)", Size,
        Off.signedBounds().toString().c_str(), Offset,
        static_cast<unsigned long long>(StackSize));
  return std::string();
}

/// The frame-offset range [Lo, Hi] (inclusive of the last touched byte)
/// of a validated stack access, and whether the start offset is unique.
static void stackAccessRange(const AbsReg &Base, const Insn &I, int64_t &Lo,
                             int64_t &Hi, bool &ConstantOffset) {
  const RegValue &Off = Base.value();
  const SignedRange &S = Off.signedBounds();
  Lo = S.min() + I.Offset;
  Hi = S.max() + I.Offset + I.Size - 1;
  ConstantOffset = S.isConstant();
}

AbsReg Analyzer::loadFromStack(size_t Pc, const AbstractState &In,
                               const AbsReg &Base, const Insn &I,
                               AnalysisResult &Result) {
  int64_t Lo, Hi;
  bool ConstantOffset;
  stackAccessRange(Base, I, Lo, Hi, ConstantOffset);

  // Precise fill: an 8-byte aligned 8-byte load of a tracked slot.
  if (ConstantOffset && I.Size == 8 && (Lo % 8) == 0) {
    const AbsReg &Slot = In.slot(AbstractState::slotIndex(Lo));
    if (Slot.isUsable())
      return Slot;
    report(Result, Pc,
           formatString("read of %s stack slot at fp%+lld",
                        regKindName(Slot.kind()), static_cast<long long>(Lo)));
    return AbsReg::makeInvalid();
  }

  // Imprecise read: every touched slot must hold initialized scalar data.
  for (int64_t SlotLo = Lo & ~int64_t(7); SlotLo <= Hi; SlotLo += 8) {
    const AbsReg &Slot = In.slot(AbstractState::slotIndex(SlotLo));
    if (Slot.isPointer()) {
      report(Result, Pc,
             formatString("partial read of spilled pointer at fp%+lld",
                          static_cast<long long>(SlotLo)));
      return AbsReg::makeInvalid();
    }
    if (!Slot.isUsable()) {
      report(Result, Pc,
             formatString("read of %s stack slot at fp%+lld",
                          regKindName(Slot.kind()),
                          static_cast<long long>(SlotLo)));
      return AbsReg::makeInvalid();
    }
  }
  return AbsReg::makeScalar(
      RegValue::fromUnsignedRange(0, lowBitsMask(I.Size * 8)));
}

void Analyzer::storeToStack(size_t Pc, AbstractState &Out, const AbsReg &Base,
                            const Insn &I, const AbsReg &Stored,
                            AnalysisResult &Result) {
  if (!Stored.isUsable()) {
    report(Result, Pc, formatString("store of %s register to the stack",
                                    regKindName(Stored.kind())));
    return;
  }
  int64_t Lo, Hi;
  bool ConstantOffset;
  stackAccessRange(Base, I, Lo, Hi, ConstantOffset);

  // Precise spill: 8-byte aligned full-slot store tracks the value
  // (including pointers -- the kernel's spill/fill support).
  if (ConstantOffset && I.Size == 8 && (Lo % 8) == 0) {
    Out.setSlot(AbstractState::slotIndex(Lo), Stored);
    return;
  }

  // Imprecise store: pointers may not be stored partially, and every
  // touched slot degrades to unknown scalar bytes ("misc" data).
  if (Stored.isPointer()) {
    report(Result, Pc, "unaligned or partial pointer spill");
    return;
  }
  for (int64_t SlotLo = Lo & ~int64_t(7); SlotLo <= Hi; SlotLo += 8) {
    unsigned Index = AbstractState::slotIndex(SlotLo);
    if (Out.slot(Index).isPointer()) {
      report(Result, Pc,
             formatString("partial overwrite of spilled pointer at fp%+lld",
                          static_cast<long long>(SlotLo)));
      Out.setSlot(Index, AbsReg::makeInvalid());
      continue;
    }
    Out.setSlot(Index, AbsReg::makeScalar(RegValue::makeTop()));
  }
}

void Analyzer::transfer(size_t Pc, const AbstractState &In,
                        AbstractState &Out, AnalysisResult &Result) {
  const Insn &I = Prog->insn(Pc);
  Out = In;

  if (metricsEnabled()) {
    AnalyzerMetrics &M = analyzerMetrics();
    switch (I.InsnKind) {
    case Insn::Kind::LoadImm:
      M.TransferLoadImm.add();
      break;
    case Insn::Kind::Alu:
      M.TransferAlu[static_cast<uint8_t>(I.Alu)].add();
      break;
    case Insn::Kind::Load:
      M.TransferLoad.add();
      break;
    case Insn::Kind::Store:
      M.TransferStore.add();
      break;
    default:
      break;
    }
  }

  switch (I.InsnKind) {
  case Insn::Kind::LoadImm:
    Out.Regs[I.Dst] =
        AbsReg::makeScalar(RegValue::makeConstant(static_cast<uint64_t>(I.Imm)));
    break;

  case Insn::Kind::Alu: {
    if (I.Alu == AluOp::Neg) {
      const AbsReg &Dst = In.Regs[I.Dst];
      if (!Dst.isScalar()) {
        report(Result, Pc, formatString("neg of %s register r%u",
                                        regKindName(Dst.kind()), I.Dst));
        Out.Regs[I.Dst] = AbsReg::makeInvalid();
        break;
      }
      RegValue Zero = RegValue::makeConstant(0);
      Out.Regs[I.Dst] = AbsReg::makeScalar(
          I.Is32 ? applyBinary32(BinaryOp::Sub, Zero, Dst.value())
                 : applyBinary(BinaryOp::Sub, Zero, Dst.value()));
      break;
    }

    AbsReg Rhs = I.UsesImm ? AbsReg::makeScalar(RegValue::makeConstant(
                                 static_cast<uint64_t>(I.Imm)))
                           : In.Regs[I.Src];
    if (I.Alu == AluOp::Mov) {
      if (!Rhs.isUsable()) {
        report(Result, Pc, formatString("mov from %s register r%u",
                                        regKindName(Rhs.kind()), I.Src));
        Out.Regs[I.Dst] = AbsReg::makeInvalid();
        break;
      }
      if (I.Is32) {
        // A 32-bit mov truncates and zero-extends; truncating a pointer
        // destroys it (the kernel rejects this for privileged reasons; we
        // do too).
        if (!Rhs.isScalar()) {
          report(Result, Pc, formatString("32-bit mov of %s register",
                                          regKindName(Rhs.kind())));
          Out.Regs[I.Dst] = AbsReg::makeInvalid();
          break;
        }
        Out.Regs[I.Dst] =
            AbsReg::makeScalar(zeroExtendSubreg(truncateToSubreg(Rhs.value())));
        break;
      }
      Out.Regs[I.Dst] = Rhs;
      break;
    }

    const AbsReg &Lhs = In.Regs[I.Dst];
    if (!Lhs.isUsable() || !Rhs.isUsable()) {
      report(Result, Pc,
             formatString("%s uses %s register", aluOpName(I.Alu),
                          regKindName(Lhs.isUsable() ? Rhs.kind()
                                                     : Lhs.kind())));
      Out.Regs[I.Dst] = AbsReg::makeInvalid();
      break;
    }

    if (I.Is32 && !(Lhs.isScalar() && Rhs.isScalar())) {
      report(Result, Pc,
             formatString("32-bit %s on %s and %s registers",
                          aluOpName(I.Alu), regKindName(Lhs.kind()),
                          regKindName(Rhs.kind())));
      Out.Regs[I.Dst] = AbsReg::makeInvalid();
      break;
    }

    if (Lhs.isScalar() && Rhs.isScalar()) {
      BinaryOp Op = aluOpToBinaryOp(I.Alu);
      Out.Regs[I.Dst] = AbsReg::makeScalar(
          I.Is32 ? applyBinary32(Op, Lhs.value(), Rhs.value())
                 : applyBinary(Op, Lhs.value(), Rhs.value()));
      break;
    }

    // Pointer arithmetic: only ptr ± scalar (and scalar + ptr) keep a
    // usable pointer, as in the kernel.
    if (I.Alu == AluOp::Add) {
      if (Lhs.isPointer() && Rhs.isScalar()) {
        Out.Regs[I.Dst] = AbsReg::makePointer(
            Lhs.kind(), applyBinary(BinaryOp::Add, Lhs.value(), Rhs.value()));
        break;
      }
      if (Lhs.isScalar() && Rhs.isPointer()) {
        Out.Regs[I.Dst] = AbsReg::makePointer(
            Rhs.kind(), applyBinary(BinaryOp::Add, Lhs.value(), Rhs.value()));
        break;
      }
    }
    if (I.Alu == AluOp::Sub && Lhs.isPointer() && Rhs.isScalar()) {
      Out.Regs[I.Dst] = AbsReg::makePointer(
          Lhs.kind(), applyBinary(BinaryOp::Sub, Lhs.value(), Rhs.value()));
      break;
    }
    report(Result, Pc,
           formatString("forbidden pointer arithmetic: %s on %s and %s",
                        aluOpName(I.Alu), regKindName(Lhs.kind()),
                        regKindName(Rhs.kind())));
    Out.Regs[I.Dst] = AbsReg::makeInvalid();
    break;
  }

  case Insn::Kind::Load: {
    const AbsReg &Base = In.Regs[I.Src];
    if (!Base.isPointer()) {
      report(Result, Pc, formatString("load via %s register r%u",
                                      regKindName(Base.kind()), I.Src));
      Out.Regs[I.Dst] = AbsReg::makeInvalid();
      break;
    }
    std::string Error = checkMemoryAccess(Base, I.Offset, I.Size);
    if (!Error.empty()) {
      report(Result, Pc, Error);
      Out.Regs[I.Dst] = AbsReg::makeInvalid();
      break;
    }
    if (Base.kind() == RegKind::PtrToStack) {
      Out.Regs[I.Dst] = loadFromStack(Pc, In, Base, I, Result);
      break;
    }
    // Context bytes are arbitrary: a fresh scalar bounded by the access
    // size.
    Out.Regs[I.Dst] = AbsReg::makeScalar(
        RegValue::fromUnsignedRange(0, lowBitsMask(I.Size * 8)));
    break;
  }

  case Insn::Kind::Store: {
    const AbsReg &Base = In.Regs[I.Dst];
    if (!Base.isPointer()) {
      report(Result, Pc, formatString("store via %s register r%u",
                                      regKindName(Base.kind()), I.Dst));
      break;
    }
    std::string Error = checkMemoryAccess(Base, I.Offset, I.Size);
    if (!Error.empty()) {
      report(Result, Pc, Error);
      break;
    }
    AbsReg Stored = I.UsesImm
                        ? AbsReg::makeScalar(RegValue::makeConstant(
                              static_cast<uint64_t>(I.Imm)))
                        : In.Regs[I.Src];
    if (Base.kind() == RegKind::PtrToStack) {
      storeToStack(Pc, Out, Base, I, Stored, Result);
      break;
    }
    // Stores into the context region: scalars only (writing a pointer
    // would leak a kernel address to the program's peer).
    if (!Stored.isScalar())
      report(Result, Pc,
             formatString("store of %s register to context memory "
                          "(pointer leak)",
                          regKindName(Stored.kind())));
    break;
  }

  case Insn::Kind::Jmp:
  case Insn::Kind::Ja:
  case Insn::Kind::Exit:
    assert(false && "control flow handled by the driver loop");
    break;
  }
}

AnalysisResult Analyzer::run() {
  AnalyzerMetrics &Metrics = analyzerMetrics();
  ScopedTimer FixpointTimer(Metrics.FixpointNs);
  Metrics.Analyses.add();

  AnalysisResult Result;
  size_t N = Prog->size();
  Result.InStates.assign(N, AbstractState::makeUnreachable());
  Result.InStates[0] = AbstractState::makeEntry(Opts.MemSize);

  JoinCounts.assign(N, 0);

  // The worklist pops the pending instruction that is earliest in the
  // CFG's reverse post-order: straight-line runs stabilize before their
  // join points, and a loop body re-runs only after its head settles --
  // the iteration order the Cfg precomputes. Pending is indexed by RPO
  // position; ScanFrom is a floor below which no position is pending, so
  // popping is a forward scan that back-edge pushes rewind.
  const std::vector<size_t> &Rpo = Graph.reversePostOrder();
  const size_t NumRpo = Rpo.size();
  RpoPosition.assign(N, SIZE_MAX);
  for (size_t I = 0; I != NumRpo; ++I)
    RpoPosition[Rpo[I]] = I;
  Pending.assign(NumRpo, false);
  if (metricsEnabled())
    Popped.assign(NumRpo, 0);
  else
    Popped.clear();
  assert(NumRpo != 0 && RpoPosition[0] == 0 && "entry leads the RPO");
  Pending[0] = true;
  size_t NumPending = 1;
  size_t ScanFrom = 0;

  auto Push = [&](size_t Target) {
    size_t Pos = RpoPosition[Target];
    assert(Pos != SIZE_MAX &&
           "propagation into a CFG-unreachable instruction");
    if (!Pending[Pos]) {
      Pending[Pos] = true;
      ++NumPending;
      if (Pos < ScanFrom)
        ScanFrom = Pos;
    }
  };

  /// Widening: any entry still growing after the threshold jumps to the
  /// top of its kind so chains stay finite. \p Joined is the grown join.
  auto Widen = [](AbsReg Joined) {
    if (!Joined.isUsable())
      return Joined;
    if (Joined.isScalar())
      return AbsReg::makeScalar(RegValue::makeTop());
    return AbsReg::makePointer(Joined.kind(), RegValue::makeTop());
  };

  // Joins State into Target's in-state in place. A propagation counts as a
  // join at Target once some entry grows; past the threshold, the growing
  // entries widen.
  auto Propagate = [&](size_t Target, const AbstractState &State) {
    if (!State.Reachable)
      return;
    AbstractState &Into = Result.InStates[Target];
    bool Changed = true;
    if (!Into.Reachable) {
      ++JoinCounts[Target];
      Into = State;
    } else {
      bool Counted = false, Widening = false;
      Changed = Into.joinInPlace(State, [&](AbsReg Joined) {
        if (!Counted) {
          Counted = true;
          Widening = ++JoinCounts[Target] > Opts.WideningThreshold;
          if (Widening)
            Metrics.Widenings.add();
        }
        return Widening ? Widen(std::move(Joined)) : Joined;
      });
    }
    if (!Changed) {
      Metrics.JoinsSubsumed.add();
      return;
    }
    Metrics.JoinsChanged.add();
    Push(Target);
  };

  while (NumPending != 0) {
    if (++Result.InsnVisits > Opts.MaxInsnVisits) {
      Result.Converged = false;
      Metrics.NotConverged.add();
      report(Result, 0, "analysis did not converge within the visit budget");
      break;
    }
    while (!Pending[ScanFrom])
      ++ScanFrom;
    size_t Pc = Rpo[ScanFrom];
    Pending[ScanFrom] = false;
    --NumPending;
    Metrics.InsnVisits.add();
    if (!Popped.empty()) {
      if (Popped[ScanFrom])
        Metrics.Revisits.add();
      else
        Popped[ScanFrom] = 1;
    }

    const AbstractState &In = Result.InStates[Pc];
    if (!In.Reachable)
      continue;
    const Insn &I = Prog->insn(Pc);

    switch (I.InsnKind) {
    case Insn::Kind::Exit: {
      Metrics.TransferExit.add();
      const AbsReg &Ret = In.Regs[R0];
      if (!Ret.isScalar())
        report(Result, Pc,
               formatString("exit with %s r0 (possible pointer leak)",
                            regKindName(Ret.kind())));
      break;
    }
    case Insn::Kind::Ja:
      Metrics.TransferJa.add();
      Propagate(Program::jumpTarget(Pc, I), In);
      break;
    case Insn::Kind::Jmp: {
      Metrics.TransferJmp.add();
      const AbsReg &Lhs = In.Regs[I.Dst];
      AbsReg Rhs = I.UsesImm ? AbsReg::makeScalar(RegValue::makeConstant(
                                   static_cast<uint64_t>(I.Imm)))
                             : In.Regs[I.Src];
      bool Refinable = Lhs.isScalar() && Rhs.isScalar();
      if (!Refinable)
        report(Result, Pc,
               formatString("comparison on %s and %s registers",
                            regKindName(Lhs.kind()), regKindName(Rhs.kind())));
      for (bool Taken : {false, true}) {
        size_t Target = Taken ? Program::jumpTarget(Pc, I) : Pc + 1;
        if (!Refinable) {
          Propagate(Target, In);
          continue;
        }
        RegValue LV = Lhs.value();
        RegValue RV = Rhs.value();
        if (I.Is32)
          refineByComparison32(I.Cmp, Taken, LV, RV);
        else
          refineByComparison(I.Cmp, Taken, LV, RV);
        if (LV.isBottom() || RV.isBottom())
          continue; // This branch direction is infeasible.
        Scratch = In;
        Scratch.Regs[I.Dst] = AbsReg::makeScalar(LV);
        if (!I.UsesImm)
          Scratch.Regs[I.Src] = AbsReg::makeScalar(RV);
        Propagate(Target, Scratch);
      }
      break;
    }
    default:
      transfer(Pc, In, Scratch, Result);
      Propagate(Pc + 1, Scratch);
      break;
    }
  }
  return Result;
}
