//===- bpf/Cfg.cpp - Instruction-level control-flow graph -----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "bpf/Cfg.h"

#include <algorithm>

using namespace tnums;
using namespace tnums::bpf;

/// The \p Index-th successor of \p Pc (fall-through before the taken
/// target, and a jump to Pc + 1 counted once), or SIZE_MAX past the last.
static size_t successor(const Program &Prog, size_t Pc, unsigned Index) {
  const Insn &I = Prog.insn(Pc);
  if (I.InsnKind == Insn::Kind::Exit)
    return SIZE_MAX;
  if (Index == 0)
    return I.InsnKind == Insn::Kind::Ja ? Program::jumpTarget(Pc, I) : Pc + 1;
  if (Index == 1 && I.InsnKind == Insn::Kind::Jmp &&
      Program::jumpTarget(Pc, I) != Pc + 1)
    return Program::jumpTarget(Pc, I);
  return SIZE_MAX;
}

void Cfg::rebuild(const Program &Prog) {
  assert(!Prog.validate() && "building CFG of an invalid program");
  // Iterative DFS from entry; the post-order collects in Rpo and is
  // reversed in place at the end.
  Visited.assign(Prog.size(), 0);
  Rpo.clear();
  Stack.clear();
  Stack.emplace_back(0, 0);
  Visited[0] = 1;
  while (!Stack.empty()) {
    auto &[Node, Next] = Stack.back();
    size_t Succ = successor(Prog, Node, Next++);
    if (Succ == SIZE_MAX) {
      Rpo.push_back(Node);
      Stack.pop_back();
    } else if (!Visited[Succ]) {
      Visited[Succ] = 1;
      Stack.emplace_back(Succ, 0);
    }
  }
  std::reverse(Rpo.begin(), Rpo.end());
}
