//===- bpf/Analyzer.h - Abstract interpreter over BPF programs --*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract interpreter at the heart of the BPF substrate: a worklist
/// fixpoint over the instruction-level CFG, tracking an AbstractState per
/// program point. ALU instructions go through the RegValue reduced product
/// (whose bit-level component is the tnum domain this project studies);
/// conditional jumps refine both operands per branch direction, exactly the
/// mechanism that lets the paper's intro example prove x <= 8 from the
/// tnum 01µ0. Loops are handled soundly with join + widening after a visit
/// threshold (the kernel instead bounds path exploration; widening keeps
/// this substrate total on looping inputs). A reused engine keeps its
/// reverse post-order vector, its worklist scratch and, when handed back
/// through recycle(), the previous program's state table.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_BPF_ANALYZER_H
#define TNUMS_BPF_ANALYZER_H

#include "bpf/AbstractState.h"
#include "bpf/Cfg.h"
#include "bpf/Program.h"

#include <string>
#include <vector>

namespace tnums {
namespace bpf {

/// One safety complaint, anchored at an instruction.
struct Violation {
  size_t Pc;
  std::string Message;
};

/// Content-version tag of the analyzer's verdict semantics, in the same
/// discipline as tnumOpVersions()/mulAlgorithmVersion(): MUST be bumped
/// whenever a change can alter any verdict, violation message, or
/// insn-visit count for some program. The service layer digests it (with
/// the operator versions) into the fingerprint that guards the persistent
/// cross-run verdict cache -- a stale tag would serve pre-change verdicts
/// as if current.
const char *analyzerVersionTag();

/// Everything the fixpoint produced.
struct AnalysisResult {
  /// False if the iteration budget ran out before a fixpoint (treat the
  /// program as rejected).
  bool Converged = true;
  std::vector<Violation> Violations;
  /// Abstract state *before* each instruction (the fixpoint solution). An
  /// unreachable state's registers and stack are unspecified (a recycled
  /// table's leftovers); operator== and toString() ignore them.
  std::vector<AbstractState> InStates;
  /// Total instruction-transfer evaluations performed.
  uint64_t InsnVisits = 0;

  bool accepted() const { return Converged && Violations.empty(); }
};

/// Worklist abstract interpreter for one program.
class Analyzer {
public:
  struct Options {
    /// Byte size of the context region R1 points to.
    uint64_t MemSize = 0;
    /// Joins at one program point before widening kicks in.
    unsigned WideningThreshold = 8;
    /// Hard budget on transfer evaluations.
    uint64_t MaxInsnVisits = 1 << 20;
  };

  /// \p Prog must pass Program::validate().
  Analyzer(const Program &Prog, Options Opts);

  /// An unbound engine for analyzing a stream of programs via
  /// analyze(Prog, Opts). Construct once per worker and reuse: the
  /// reverse post-order vector and the fixpoint worklist scratch are
  /// recycled across programs, which is the per-worker amortization the
  /// batch service (service/VerificationService.h) relies on.
  Analyzer() = default;

  /// Runs the fixpoint on the program bound at construction.
  AnalysisResult analyze();

  /// Rebinds the engine to \p Prog (which must pass Program::validate())
  /// and runs the fixpoint, recycling internal storage.
  AnalysisResult analyze(const Program &Prog, const Options &Opts);

  /// Hands a spent AnalysisResult::InStates table back to the engine. The
  /// next run() reuses its entries (and their stack storage) instead of
  /// allocating a fresh table, resetting only each entry's Reachable flag.
  void recycle(std::vector<AbstractState> &&States) {
    SpareStates = std::move(States);
  }

private:
  /// Applies the straight-line transfer of instruction \p Pc to \p In,
  /// writing the out-state to \p Out and violations into \p Result.
  void transfer(size_t Pc, const AbstractState &In, AbstractState &Out,
                AnalysisResult &Result);

  /// Records one deduplicated violation.
  void report(AnalysisResult &Result, size_t Pc, std::string Message);

  /// Validates a memory access of \p Size bytes at abstract base \p Base +
  /// \p Offset; returns an error description or empty string.
  std::string checkMemoryAccess(const AbsReg &Base, int32_t Offset,
                                unsigned Size) const;

  /// Models a bounds-checked load through a stack pointer, consulting the
  /// tracked slots (fill of an 8-byte aligned spill is precise).
  AbsReg loadFromStack(size_t Pc, const AbstractState &In, const AbsReg &Base,
                       const Insn &I, AnalysisResult &Result);

  /// Models a bounds-checked store through a stack pointer, updating the
  /// tracked slots in \p Out.
  void storeToStack(size_t Pc, AbstractState &Out, const AbsReg &Base,
                    const Insn &I, const AbsReg &Stored,
                    AnalysisResult &Result);

  /// Runs the fixpoint over the currently bound program.
  AnalysisResult run();

  const Program *Prog = nullptr;
  Cfg Graph;
  Options Opts;

  /// \name Fixpoint scratch, recycled across analyze() calls.
  /// @{
  std::vector<unsigned> JoinCounts;
  /// Instruction index -> position in the CFG's reverse post-order
  /// (SIZE_MAX for CFG-unreachable instructions).
  std::vector<size_t> RpoPosition;
  /// Worklist membership, indexed by RPO position (the worklist pops the
  /// lowest pending position -- see run()).
  std::vector<bool> Pending;
  /// Metrics only: which RPO positions have been popped at least once, so
  /// later pops count as worklist revisits. Empty while the recorder is
  /// off.
  std::vector<uint8_t> Popped;
  /// The out-state of a visit that joins into a reachable successor;
  /// reusing it keeps the stack's storage across visits.
  AbstractState Scratch;
  /// The table recycle() handed back, taken by the next run().
  std::vector<AbstractState> SpareStates;
  /// @}
};

} // namespace bpf
} // namespace tnums

#endif // TNUMS_BPF_ANALYZER_H
