//===- examples/hasse_fig1.cpp - Reproduce the paper's Figure 1 -----------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the paper's Figure 1 -- the Hasse diagrams of (a) the concrete
/// lattice (2^Zn, ⊆) and (b) the abstract tnum lattice (Tn, ⊑A) for
/// n = 2 -- as Graphviz DOT on stdout (render with `dot -Tsvg`). Each
/// abstract node is labeled with both its trit string and its kernel
/// (value, mask) implementation, exactly like the figure. Also prints the
/// two alpha/gamma walks the figure annotates:
///   (i)  alpha({1,2,3}) = µµ, gamma(µµ) = {0,1,2,3} (over-approximation)
///   (ii) alpha({2,3})   = 1µ, gamma(1µ) = {2,3}     (exact)
///
/// Usage: hasse_fig1 [--width N]   (N in [1, 3]; the concrete lattice has
/// 2^2^N nodes, so it gets big fast)
///
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "tnum/TnumEnum.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace tnums;

/// Renders a concrete set (bitmask over width-n values) as "{a, b}".
static std::string setLabel(uint64_t SetBits, unsigned NumValues) {
  std::string Label = "{";
  bool First = true;
  for (uint64_t V = 0; V != NumValues; ++V) {
    if (!((SetBits >> V) & 1))
      continue;
    if (!First)
      Label += ",";
    Label += std::to_string(V);
    First = false;
  }
  Label += "}";
  return Label.size() == 2 ? "\xE2\x88\x85" /* empty-set symbol */ : Label;
}

/// True if Sub ⊂ Super differ by exactly one element (a Hasse edge of the
/// powerset lattice).
static bool isCoveringSubset(uint64_t Sub, uint64_t Super) {
  return (Sub & ~Super) == 0 && popCount(Super & ~Sub) == 1;
}

int main(int Argc, char **Argv) {
  unsigned Width = 2;
  ArgParser Args(Argc, Argv);
  while (Args.more()) {
    if (Args.matchUnsigned("--width", 1, 3, Width))
      continue;
    Args.reject();
  }
  if (Args.failed()) {
    std::fprintf(stderr, "usage: %s [--width N]   (N in [1, 3])\n", Argv[0]);
    return 1;
  }
  unsigned NumValues = 1u << Width;
  uint64_t FullSet = lowBitsMask(NumValues);

  std::printf("// Figure 1(a): the concrete lattice (2^Z%u, subset)\n",
              Width);
  std::printf("digraph concrete {\n  rankdir=BT;\n  node [shape=plaintext];"
              "\n");
  for (uint64_t Set = 0; Set <= FullSet; ++Set)
    std::printf("  c%llu [label=\"%s\"];\n",
                static_cast<unsigned long long>(Set),
                setLabel(Set, NumValues).c_str());
  for (uint64_t Sub = 0; Sub <= FullSet; ++Sub)
    for (uint64_t Super = 0; Super <= FullSet; ++Super)
      if (isCoveringSubset(Sub, Super))
        std::printf("  c%llu -> c%llu;\n",
                    static_cast<unsigned long long>(Sub),
                    static_cast<unsigned long long>(Super));
  std::printf("}\n\n");

  std::printf("// Figure 1(b): the abstract tnum lattice (T%u, ⊑A),\n"
              "// each node shown with its kernel (value, mask) pair\n",
              Width);
  std::printf("digraph abstract {\n  rankdir=BT;\n  node [shape=plaintext];"
              "\n");
  std::vector<Tnum> Universe = allWellFormedTnums(Width);
  std::printf("  bot [label=\"⊥\"];\n");
  for (size_t I = 0; I != Universe.size(); ++I) {
    const Tnum &T = Universe[I];
    std::printf("  t%zu [label=\"%s\\n(%llu, %llu)\"];\n", I,
                T.toString(Width).c_str(),
                static_cast<unsigned long long>(T.value()),
                static_cast<unsigned long long>(T.mask()));
    if (T.isConstant())
      std::printf("  bot -> t%zu;\n", I);
  }
  // Hasse edges: P covers Q if P ⊏ Q with exactly one more unknown trit.
  for (size_t I = 0; I != Universe.size(); ++I)
    for (size_t J = 0; J != Universe.size(); ++J) {
      const Tnum &P = Universe[I];
      const Tnum &Q = Universe[J];
      if (P == Q || !P.isSubsetOf(Q))
        continue;
      if (Q.numUnknownBits() == P.numUnknownBits() + 1)
        std::printf("  t%zu -> t%zu;\n", I, J);
    }
  std::printf("}\n\n");

  std::printf("// The figure's two abstraction walks (width 2):\n");
  Tnum A1 = abstractOf({1, 2, 3});
  std::printf("//  (i)  alpha({1,2,3}) = %s; gamma = {",
              A1.toString(2).c_str());
  bool First = true;
  forEachMember(A1, [&](uint64_t V) {
    std::printf("%s%llu", First ? "" : ",",
                static_cast<unsigned long long>(V));
    First = false;
  });
  std::printf("}  (over-approximates)\n");
  Tnum A2 = abstractOf({2, 3});
  std::printf("//  (ii) alpha({2,3})   = %s; gamma = {",
              A2.toString(2).c_str());
  First = true;
  forEachMember(A2, [&](uint64_t V) {
    std::printf("%s%llu", First ? "" : ",",
                static_cast<unsigned long long>(V));
    First = false;
  });
  std::printf("}      (exact)\n");
  return 0;
}
