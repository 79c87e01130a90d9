//===- bpf/Cfg.h - Instruction-level control-flow graph ---------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow structure over a validated program, at instruction
/// granularity (every instruction is a node, like the kernel verifier's
/// per-insn state table). Provides the reverse post-order the analyzer's
/// worklist iterates in; its DFS reads each successor straight from the
/// instruction.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_BPF_CFG_H
#define TNUMS_BPF_CFG_H

#include "bpf/Program.h"

#include <vector>

namespace tnums {
namespace bpf {

/// The reverse post-order of one program's reachable instructions.
class Cfg {
public:
  /// An empty CFG; call rebuild() before use.
  Cfg() = default;

  /// Builds the CFG of \p Prog (which must validate()).
  explicit Cfg(const Program &Prog) { rebuild(Prog); }

  /// Rebuilds the order for \p Prog (which must validate()), recycling the
  /// order and DFS storage of the previous program. This is what lets a
  /// long-lived analysis engine (service/VerificationService.h) process a
  /// stream of programs without reallocating for each one.
  void rebuild(const Program &Prog);

  /// Instructions reachable from entry, in reverse post-order of a DFS
  /// that visits a conditional jump's fall-through before its taken
  /// target. Unreachable instructions are absent.
  const std::vector<size_t> &reversePostOrder() const { return Rpo; }

private:
  std::vector<size_t> Rpo;

  /// \name rebuild()'s DFS scratch, recycled like the order.
  /// @{
  std::vector<uint8_t> Visited;
  /// Stack frames: (node, index of the next successor to visit).
  std::vector<std::pair<size_t, unsigned>> Stack;
  /// @}
};

} // namespace bpf
} // namespace tnums

#endif // TNUMS_BPF_CFG_H
