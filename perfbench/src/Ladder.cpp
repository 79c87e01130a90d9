//===- perfbench/src/Ladder.cpp - Fixed-work rungs of both ladders --------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer measurements every traced run takes, bottom rung first:
///
///  * bpf: the first 2048 programs of the seeded `mixed` stream through
///    Program::validate and a reused Analyzer (exact visit and accept
///    counts), plus the batch service's dedup rate on them;
///  * tnum and domain: the operators on tnum and RegValue operands
///    harvested from those programs' fixpoint states;
///  * verify and support: applyAbstractBinary over the width-5 grid and
///    the SIMD membership / alpha-reduce kernels per tier;
///  * the campaign families and the fuzz prefix (Campaign.cpp, Fuzz.cpp).
///
/// Timed loops repeat a pass until a minimum duration has elapsed, so
/// every rate is a mean over thousands of calls.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "bpf/Analyzer.h"
#include "domain/RegValue.h"
#include "service/ProgramGen.h"
#include "service/VerificationService.h"
#include "support/SimdBatch.h"
#include "tnum/TnumMul.h"
#include "tnum/TnumOps.h"
#include "verify/Oracle.h"
#include "verify/ParallelSweep.h"

#include <functional>

using namespace perfbench;
using namespace tnums;
using namespace tnums::service;

namespace {

constexpr size_t HarvestPrograms = 2048;
constexpr size_t ServiceBatch = 256;
constexpr unsigned OperandsPerProgram = 2;
constexpr uint64_t OpLoopNs = 40'000'000;
constexpr uint64_t ProgramLoopNs = 200'000'000;

uint64_t Sink = 0;

/// Runs \p Pass (which makes \p CallsPerPass calls) until \p MinNs have
/// elapsed inside a span named \p Name; returns nanoseconds per call.
double nsPerCall(SpanBuffer *Buf, const char *Name, uint64_t MinNs,
                 size_t CallsPerPass, const std::function<void()> &Pass) {
  Span Call(Buf, Name);
  uint64_t Calls = 0;
  uint64_t Start = nowNs();
  do {
    Pass();
    Calls += CallsPerPass;
  } while (nowNs() - Start < MinNs);
  return static_cast<double>(nowNs() - Start) / static_cast<double>(Calls);
}

/// Partner index of operand \p I: a fixed scramble, so pairs mix values
/// from different programs.
size_t partner(size_t I, size_t N) { return (I * 31 + 7) % N; }

void tnumRungs(const std::vector<RegValue> &Values, SpanBuffer *Buf,
               MetricMap &M) {
  std::vector<Tnum> T;
  for (const RegValue &V : Values)
    T.push_back(V.tnum());
  size_t N = T.size();
  auto Rung = [&](const char *Metric, const char *Span, auto Op) {
    M[Metric] = {nsPerCall(Buf, Span, OpLoopNs, N,
                           [&] {
                             uint64_t Acc = 0;
                             for (size_t I = 0; I != N; ++I) {
                               Tnum R = Op(T[I], T[partner(I, N)]);
                               Acc ^= R.value() ^ R.mask();
                             }
                             Sink ^= Acc;
                           }),
                 "ns"};
  };
  Rung("tnum.add_ns", "tnum.add", [](Tnum P, Tnum Q) { return tnumAdd(P, Q); });
  Rung("tnum.sub_ns", "tnum.sub", [](Tnum P, Tnum Q) { return tnumSub(P, Q); });
  Rung("tnum.mul_ns", "tnum.mul", [](Tnum P, Tnum Q) { return ourMul(P, Q); });
  Rung("tnum.and_ns", "tnum.and", [](Tnum P, Tnum Q) { return tnumAnd(P, Q); });
  Rung("tnum.or_ns", "tnum.or", [](Tnum P, Tnum Q) { return tnumOr(P, Q); });
  Rung("tnum.xor_ns", "tnum.xor", [](Tnum P, Tnum Q) { return tnumXor(P, Q); });
  Rung("tnum.lsh_ns", "tnum.lsh",
       [](Tnum P, Tnum Q) { return tnumLshiftByTnum(P, Q, MaxBitWidth); });
}

void domainRungs(const std::vector<RegValue> &V, SpanBuffer *Buf,
                 MetricMap &M) {
  static constexpr BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Sub,
                                     BinaryOp::Mul, BinaryOp::And,
                                     BinaryOp::Or,  BinaryOp::Xor,
                                     BinaryOp::Lsh};
  static constexpr CompareOp Compares[] = {
      CompareOp::Eq,  CompareOp::Ne,  CompareOp::Lt,  CompareOp::Le,
      CompareOp::Gt,  CompareOp::Ge,  CompareOp::SLt, CompareOp::SLe,
      CompareOp::SGt, CompareOp::SGe, CompareOp::Set};
  size_t N = V.size();
  auto Rung = [&](const char *Metric, const char *Span, auto Call) {
    M[Metric] = {nsPerCall(Buf, Span, OpLoopNs, N,
                           [&] {
                             uint64_t Acc = 0;
                             for (size_t I = 0; I != N; ++I)
                               Acc ^= Call(I);
                             Sink ^= Acc;
                           }),
                 "ns"};
  };
  Rung("domain.binary_ns", "domain.applyBinary", [&](size_t I) {
    return applyBinary(Ops[I % 7], V[I], V[partner(I, N)]).tnum().mask();
  });
  Rung("domain.join_ns", "domain.RegValue.joinWith", [&](size_t I) {
    return V[I].joinWith(V[partner(I, N)]).tnum().mask();
  });
  Rung("domain.subset_ns", "domain.RegValue.isSubsetOf", [&](size_t I) {
    return static_cast<uint64_t>(V[I].isSubsetOf(V[partner(I, N)]));
  });
  Rung("domain.refine_ns", "domain.refineByComparison", [&](size_t I) {
    RegValue L = V[I], R = V[partner(I, N)];
    refineByComparison(Compares[I % 11], I & 1, L, R);
    return L.tnum().mask() ^ R.tnum().value();
  });
  Rung("domain.sync_ns", "domain.RegValue.fromTnum", [&](size_t I) {
    return RegValue::fromTnum(V[I].tnum()).unsignedBounds().max();
  });
}

/// The bpf rungs over the harvest programs; fills \p Values with the
/// scalar operands of their fixpoint states.
void bpfRungs(const Context &Ctx, SpanBuffer *Buf, MetricMap &M,
              std::vector<RegValue> &Values) {
  GenOptions Gen;
  Gen.Profile = GenProfile::Mixed;
  ProgramGen Generator(Ctx.Seed, Gen);
  std::vector<VerifyRequest> Requests(HarvestPrograms);
  for (VerifyRequest &Request : Requests) {
    Request.Prog = Generator.next();
    Request.MemSize = Gen.MemSize;
  }

  uint64_t Valid = 0, Insns = 0, Visits = 0, Accepted = 0;
  bpf::Analyzer Engine;
  for (const VerifyRequest &Request : Requests) {
    if (Request.Prog.validate())
      continue;
    bpf::Analyzer::Options Opts;
    Opts.MemSize = Request.MemSize;
    bpf::AnalysisResult Result = Engine.analyze(Request.Prog, Opts);
    ++Valid;
    Insns += Request.Prog.size();
    Visits += Result.InsnVisits;
    Accepted += Result.accepted();
    // A few scalar operands from the program's last reachable state.
    for (auto State = Result.InStates.rbegin();
         State != Result.InStates.rend(); ++State) {
      if (!State->Reachable)
        continue;
      unsigned Taken = 0;
      for (const bpf::AbsReg &Reg : State->Regs)
        if (Taken < OperandsPerProgram && Reg.isScalar() &&
            !Reg.value().isBottom()) {
          Values.push_back(Reg.value());
          ++Taken;
        }
      break;
    }
  }
  M["bpf.insn_visits"] = {static_cast<double>(Visits), "count"};
  M["bpf.visits_per_insn"] = {
      Insns ? static_cast<double>(Visits) / static_cast<double>(Insns) : 0,
      "ratio"};
  M["bpf.accept_frac"] = {static_cast<double>(Accepted) /
                              static_cast<double>(Requests.size()),
                          "frac"};

  double NsPerProgram = nsPerCall(
      Buf, "bpf.Analyzer.analyze", ProgramLoopNs, Valid, [&] {
        for (const VerifyRequest &Request : Requests) {
          if (Request.Prog.validate())
            continue;
          bpf::Analyzer::Options Opts;
          Opts.MemSize = Request.MemSize;
          Sink ^= Engine.analyze(Request.Prog, Opts).InsnVisits;
        }
      });
  M["bpf.analyze_us_per_program"] = {NsPerProgram / 1e3, "us"};
  M["bpf.ns_per_insn_visit"] = {
      NsPerProgram * static_cast<double>(Valid) / static_cast<double>(Visits),
      "ns"};
  M["bpf.validate_ns_per_program"] = {
      nsPerCall(Buf, "bpf.Program.validate", OpLoopNs, Requests.size(),
                [&] {
                  for (const VerifyRequest &Request : Requests)
                    Sink += Request.Prog.validate().has_value();
                }),
      "ns"};

  ServiceConfig Config;
  Config.NumThreads = 1;
  VerificationService Service(Config);
  uint64_t DedupHits = 0;
  for (size_t Begin = 0; Begin < Requests.size(); Begin += ServiceBatch) {
    std::vector<VerifyRequest> Batch(
        Requests.begin() + Begin,
        Requests.begin() + std::min(Requests.size(), Begin + ServiceBatch));
    Span Call(Buf, "service.VerificationService.verifyBatch");
    DedupHits += Service.verifyBatch(Batch).Stats.DedupHits;
  }
  M["service.dedup_hit_frac"] = {static_cast<double>(DedupHits) /
                                     static_cast<double>(Requests.size()),
                                 "frac"};
}

void verifyRungs(const std::vector<RegValue> &Values, SpanBuffer *Buf,
                 MetricMap &M) {
  static constexpr BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Sub,
                                     BinaryOp::Mul, BinaryOp::Div,
                                     BinaryOp::Mod, BinaryOp::And,
                                     BinaryOp::Or,  BinaryOp::Xor};
  SweepConfig Config;
  Config.NumThreads = 1;
  SweepGrid Grid = makeSweepGrid(5, Config);
  const std::vector<Tnum> &U = Grid.Universe;
  size_t N = U.size();
  M["verify.abstract_op_ns"] = {
      nsPerCall(Buf, "verify.applyAbstractBinary", OpLoopNs, N * N, [&] {
        uint64_t Acc = 0;
        for (size_t P = 0; P != N; ++P)
          for (size_t Q = 0; Q != N; ++Q)
            Acc ^= applyAbstractBinary(Ops[(P + Q) % 8], U[P], U[Q], 5).mask();
        Sink ^= Acc;
      }),
      "ns"};

  // SIMD kernels: 64 lanes of harvested values against harvested tnums.
  alignas(64) uint64_t Lanes[SimdBatchLanes];
  for (unsigned Lane = 0; Lane != SimdBatchLanes; ++Lane)
    Lanes[Lane] = Values[Lane % Values.size()].tnum().value();
  size_t Masks = std::min<size_t>(Values.size(), 256);
  auto Tier = [&](const std::string &Name, const SimdKernels &K) {
    M["support.simd." + Name + ".nonmember_ns_per_lane"] = {
        nsPerCall(Buf, "support.SimdKernels.NonMemberMask", OpLoopNs,
                  Masks * SimdBatchLanes,
                  [&] {
                    uint64_t Acc = 0;
                    for (size_t I = 0; I != Masks; ++I) {
                      const Tnum &T = Values[I].tnum();
                      Acc ^= K.NonMemberMask(Lanes, SimdBatchLanes, T.value(),
                                             ~T.mask());
                    }
                    Sink ^= Acc;
                  }),
        "ns"};
    M["support.simd." + Name + ".reduce_ns_per_lane"] = {
        nsPerCall(Buf, "support.SimdKernels.ReduceAndOr", OpLoopNs,
                  Masks * SimdBatchLanes,
                  [&] {
                    uint64_t And = ~uint64_t(0), Or = 0;
                    for (size_t I = 0; I != Masks; ++I)
                      K.ReduceAndOr(Lanes, SimdBatchLanes, &And, &Or);
                    Sink ^= And ^ Or;
                  }),
        "ns"};
  };
  Tier("portable", scalarSimdKernels());
  Tier("auto", selectSimdKernels(SimdMode::Auto));
  if (const SimdKernels *K = avx2SimdKernels())
    Tier("avx2", *K);
  if (const SimdKernels *K = avx512SimdKernels())
    Tier("avx512", *K);
  if (const SimdKernels *K = neonSimdKernels())
    Tier("neon", *K);
}

} // namespace

MetricMap perfbench::measureRungs(const Context &Ctx, Tracer &Trace) {
  SpanBuffer *Buf = Trace.newBuffer();
  Span Root(Buf, "bench.rungs");
  MetricMap M;
  std::vector<RegValue> Values;
  bpfRungs(Ctx, Buf, M, Values);
  if (Values.empty())
    Values.push_back(RegValue::makeTop());
  tnumRungs(Values, Buf, M);
  domainRungs(Values, Buf, M);
  verifyRungs(Values, Buf, M);
  for (auto &[Name, Value] : campaignRungs(Ctx, Buf))
    M[Name] = Value;
  for (auto &[Name, Value] : fuzzRungs(Ctx, Buf))
    M[Name] = Value;
  return M;
}
