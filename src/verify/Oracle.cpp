//===- verify/Oracle.cpp - Concrete/abstract operator pairs ---------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/Oracle.h"

#include "support/Checkpoint.h"
#include "tnum/TnumOps.h"

using namespace tnums;

const char *tnums::binaryOpName(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "add";
  case BinaryOp::Sub:
    return "sub";
  case BinaryOp::Mul:
    return "mul";
  case BinaryOp::Div:
    return "div";
  case BinaryOp::Mod:
    return "mod";
  case BinaryOp::And:
    return "and";
  case BinaryOp::Or:
    return "or";
  case BinaryOp::Xor:
    return "xor";
  case BinaryOp::Lsh:
    return "lsh";
  case BinaryOp::Rsh:
    return "rsh";
  case BinaryOp::Arsh:
    return "arsh";
  }
  assert(false && "unknown binary op");
  return "unknown";
}

bool tnums::isShiftOp(BinaryOp Op) {
  return Op == BinaryOp::Lsh || Op == BinaryOp::Rsh || Op == BinaryOp::Arsh;
}

uint64_t tnums::applyConcreteBinary(BinaryOp Op, uint64_t X, uint64_t Y,
                                    unsigned Width) {
  X = truncateToWidth(X, Width);
  Y = truncateToWidth(Y, Width);
  switch (Op) {
  case BinaryOp::Add:
    return truncateToWidth(X + Y, Width);
  case BinaryOp::Sub:
    return truncateToWidth(X - Y, Width);
  case BinaryOp::Mul:
    return truncateToWidth(X * Y, Width);
  case BinaryOp::Div:
    return Y == 0 ? 0 : X / Y; // BPF: division by zero yields 0.
  case BinaryOp::Mod:
    return Y == 0 ? X : X % Y; // BPF: modulo by zero yields the dividend.
  case BinaryOp::And:
    return X & Y;
  case BinaryOp::Or:
    return X | Y;
  case BinaryOp::Xor:
    return X ^ Y;
  case BinaryOp::Lsh:
    assert((Width & (Width - 1)) == 0 && "shift semantics need 2^k width");
    return truncateToWidth(X << (Y & (Width - 1)), Width);
  case BinaryOp::Rsh:
    assert((Width & (Width - 1)) == 0 && "shift semantics need 2^k width");
    return X >> (Y & (Width - 1));
  case BinaryOp::Arsh:
    assert((Width & (Width - 1)) == 0 && "shift semantics need 2^k width");
    return arithmeticShiftRight(X, static_cast<unsigned>(Y & (Width - 1)),
                                Width);
  }
  assert(false && "unknown binary op");
  return 0;
}

uint64_t tnums::opFingerprint(BinaryOp Op, MulAlgorithm Mul) {
  const TnumOpVersions &Versions = tnumOpVersions();
  const char *Tag = nullptr;
  switch (Op) {
  case BinaryOp::Add:
    Tag = Versions.Add;
    break;
  case BinaryOp::Sub:
    Tag = Versions.Sub;
    break;
  case BinaryOp::Mul:
    Tag = mulAlgorithmVersion(Mul);
    break;
  case BinaryOp::Div:
    Tag = Versions.Div;
    break;
  case BinaryOp::Mod:
    Tag = Versions.Mod;
    break;
  case BinaryOp::And:
    Tag = Versions.And;
    break;
  case BinaryOp::Or:
    Tag = Versions.Or;
    break;
  case BinaryOp::Xor:
    Tag = Versions.Xor;
    break;
  case BinaryOp::Lsh:
    Tag = Versions.Lshift;
    break;
  case BinaryOp::Rsh:
    Tag = Versions.Rshift;
    break;
  case BinaryOp::Arsh:
    Tag = Versions.Arshift;
    break;
  }
  assert(Tag && "unknown binary op");
  Fnv1a Hash;
  Hash.mixString("tnums-op-fingerprint v1");
  // The operator identity AND the implementation tag: two operators
  // sharing a tag string must still fingerprint apart.
  Hash.mixString(binaryOpName(Op));
  Hash.mixString(Tag);
  return Hash.digest();
}

Tnum tnums::applyAbstractBinary(BinaryOp Op, Tnum P, Tnum Q, unsigned Width,
                                MulAlgorithm Mul) {
  return withAbstractBinary(Op, Mul, Width,
                            [&](auto Abstract) { return Abstract(P, Q); });
}
