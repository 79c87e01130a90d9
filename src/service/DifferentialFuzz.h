//===- service/DifferentialFuzz.h - Whole-service fuzz oracle ---*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closes the generate -> verify -> execute loop: a deterministic fuzz
/// campaign over ProgramGen's scenario space, batch-verified by the
/// VerificationService and cross-checked against the concrete executor
/// (the pre-decoded DecodedProgram; bit-identical to the reference
/// Interpreter by the differential tests).
/// Three oracles must hold for every program:
///
///   1. Accepted programs never trap (no out-of-bounds access, no read of
///      an uninitialized register) on any of the random input memories.
///      Exhausting the step budget is NOT a trap: the substrate's verifier
///      proves memory safety, and mutated loop guards can legitimately
///      produce accepted-but-nonterminating programs (the kernel instead
///      rejects unbounded loops; our analyzer stays total via widening).
///      A budget run is only counted, so the oracle settles it the
///      cheapest exact way (runOrProve): a run still going after
///      ProofHorizon steps whose control projection repeats at twice that
///      is proven to exhaust the budget instead of executed to it, and
///      when the first run of a memory-blind program (isMemoryBlind)
///      exhausts the budget, its other runs are counted without executing:
///      each would follow the first one's path to the same exhaustion.
///      Runs that exit or trap always execute to their end, because
///      oracle 2 reads each run's registers.
///   2. At the exit instruction each run actually reached, every concrete
///      scalar register value lies inside the analyzer's fixpoint abstract
///      value there -- the whole-system form of the paper's Eqn. 8.
///   3. Rejections are witnessed: a rejected program carries a structural
///      error or at least one analyzer violation (no silent rejects).
///
/// The campaign is a pure function of (seed, config): program streams,
/// input memories, and therefore findings reproduce bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_SERVICE_DIFFERENTIALFUZZ_H
#define TNUMS_SERVICE_DIFFERENTIALFUZZ_H

#include "bpf/Decoded.h"
#include "service/ProgramGen.h"
#include "service/VerificationService.h"

namespace tnums {
namespace service {

/// Campaign shape.
struct FuzzConfig {
  /// Programs to generate and verify.
  uint64_t Programs = 500;
  /// Random input memories each accepted program is executed on.
  unsigned RunsPerProgram = 8;
  /// Every Nth program is a structure-preserving mutant of its
  /// predecessor instead of a fresh draw (0 disables mutation).
  unsigned MutateEvery = 4;
  /// Generator profile and region size.
  GenOptions Gen;
  /// Batch engine configuration. KeepStates is forced on (the containment
  /// oracle reads the fixpoint states); StopAtFirstReject is forced off
  /// (every program must be checked).
  ServiceConfig Service;
  /// Concrete step budget per run (see oracle 1 for why exhausting it is
  /// tolerated).
  uint64_t StepLimit = 1 << 20;
  /// Replay mode: when non-empty, the campaign runs the oracles over
  /// exactly these requests -- typically a corpus loaded via
  /// service/Corpus.h -- instead of generating programs (Programs and
  /// MutateEvery are ignored; Gen.MemSize only seeds defaults). Input
  /// memories still derive from (Seed, index, run), so a replayed corpus
  /// plus a seed reproduces a campaign bit-for-bit.
  std::vector<VerifyRequest> Replay;
};

/// One oracle violation, with enough context to reproduce it.
struct FuzzFinding {
  size_t ProgramIndex;
  std::string Kind; ///< "accepted-program-trap", "containment-escape",
                    ///< "unreachable-exit", "unwitnessed-rejection",
                    ///< "invalid-generated-program",
                    ///< "zero-coverage-campaign".
  std::string Details;
};

/// Campaign outcome.
struct FuzzReport {
  uint64_t Programs = 0;
  uint64_t Accepted = 0;
  uint64_t RejectedStructural = 0;
  uint64_t RejectedSemantic = 0;
  uint64_t ConcreteRuns = 0;
  /// Runs that exhausted the step budget (tolerated; tracked so a mutation
  /// profile that goes non-terminating everywhere is visible).
  uint64_t StepLimitRuns = 0;
  /// Accepted programs whose runs ALL hit the step budget. Individually
  /// tolerated (oracle 1's contract), but such a program contributes
  /// nothing to oracles 1-2 -- no run ever finished, so no trap and no
  /// containment was ever actually checked. Tracked so a StepLimit (or
  /// mutation profile) that silently zeroes the campaign's coverage is
  /// visible; a campaign where EVERY accepted program is zero-coverage
  /// fails outright (a "zero-coverage-campaign" finding).
  uint64_t ZeroCoveragePrograms = 0;
  std::vector<FuzzFinding> Findings;

  bool clean() const { return Findings.empty(); }

  /// One-line campaign summary.
  std::string toString() const;
};

/// Runs the campaign. Deterministic in (\p Seed, \p Config).
FuzzReport runDifferentialFuzz(uint64_t Seed, const FuzzConfig &Config);

/// The control slice of a program: the smallest register set C that holds
/// every register a Jmp reads and the base register of every Load and
/// Store, and that holds the source of every register-form ALU op (Mov
/// included; Neg reads no source) whose destination it holds. The walk is
/// flow-insensitive, so C over-approximates what the next pc and every
/// trap can depend on: the values of C, the pc, the register-init flags,
/// and the bytes a Load into C reads.
struct ControlSlice {
  /// Bit r: register r is in C.
  uint32_t Regs = 0;
  /// Some Load's destination is in C, so a loaded value can reach control.
  bool ReadsMemory = false;
  /// The program contains a Store.
  bool Stores = false;
};

ControlSlice controlSlice(const bpf::Program &Prog);

/// True when no branch condition and no load or store address of \p Prog
/// can depend on a loaded value: !controlSlice(Prog).ReadsMemory. Every
/// other input to control flow (R1, R2 = the region size, R10, the zeroed
/// stack) is the same on every run, so all runs of a memory-blind program
/// over one region size follow one path and agree in status, Steps,
/// ExitPc, FaultPc and Message.
bool isMemoryBlind(const bpf::Program &Prog);

/// H, the steps a run executes before runOrProve checks its control for a
/// repeat. A run whose control projection (next pc, init flags, C's
/// values) is periodic from step H on is proven only if its period
/// divides H; lcm(1..10) = 2520 covers every period of 10 steps or less,
/// and larger multiples prove no more runs on perfbench's loops stream
/// (docs/SERVICE.md).
constexpr uint64_t ProofHorizon = 2520;

/// How runOrProve settled one run.
struct SettledRun {
  /// The run's outcome. When Proven, St and Steps are the full run's
  /// (StepLimit) and the rest is left from the last executed prefix;
  /// otherwise it is the full run's ExecResult, and the executor's
  /// registers and init flags are the full run's too.
  bpf::ExecResult Result;
  /// Interpreter steps executed, prefixes included.
  uint64_t ExecutedSteps = 0;
  /// The budget outcome was proven rather than executed.
  bool Proven = false;
};

/// Settles one run of \p Exec (decoded from a program whose slice is
/// \p Slice) on a copy of \p Memory at \p StepLimit: the full run's
/// outcome, with a budget exhaustion proven rather than executed where it
/// can be. When StepLimit > 2H and the program does not both read memory
/// into C and store, it runs to H, then a fresh copy to 2H; a run that
/// ended by then is the full run. Equal projections at H and 2H prove the
/// run exhausts the budget: the next step's outcome is a function of the
/// projection (and of memory, which nothing changes when a loaded value
/// can reach C), so the projection repeats every H steps and the run
/// never exits or traps. Anything else executes the full budget on a
/// fresh copy.
SettledRun runOrProve(bpf::DecodedProgram &Exec, const ControlSlice &Slice,
                      const std::vector<uint8_t> &Memory, uint64_t StepLimit);

} // namespace service
} // namespace tnums

#endif // TNUMS_SERVICE_DIFFERENTIALFUZZ_H
