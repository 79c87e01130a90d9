//===- bench/gbench_ops.cpp - Microbenchmarks for every operator ----------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment A2 (DESIGN.md): google-benchmark microbenchmarks of every
/// tnum transfer function, the reduced-product transfer, and whole-program
/// verification. Complements the RDTSC harness (fig5_mul_cycles) with
/// statistically managed wall-clock numbers.
///
/// `--json FILE` (a repo-local flag, stripped before google-benchmark sees
/// the command line) additionally writes BENCH_gbops.json for
/// ci/compare_bench.py (e2e.gbops_baseline); all other flags pass through to
/// google-benchmark unchanged.
///
//===----------------------------------------------------------------------===//

#include "bpf/Builder.h"
#include "bpf/Interpreter.h"
#include "bpf/Verifier.h"
#include "domain/RegValue.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "tnum/TnumMul.h"
#include "tnum/TnumOps.h"
#include "verify/SoundnessChecker.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace tnums;
using namespace tnums::bpf;

namespace {

/// Pre-drawn random operand pool so RNG cost stays out of the loop.
std::vector<std::pair<Tnum, Tnum>> makePairs(size_t Count, uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  std::vector<std::pair<Tnum, Tnum>> Pairs;
  Pairs.reserve(Count);
  for (size_t I = 0; I != Count; ++I)
    Pairs.emplace_back(randomWellFormedTnum(Rng, 64),
                       randomWellFormedTnum(Rng, 64));
  return Pairs;
}

constexpr size_t PoolSize = 4096;

template <Tnum (*Fn)(Tnum, Tnum)>
void BM_TnumBinary(benchmark::State &State) {
  static const auto Pairs = makePairs(PoolSize, 0xB0B0);
  size_t I = 0;
  for (auto _ : State) {
    const auto &[P, Q] = Pairs[I++ & (PoolSize - 1)];
    benchmark::DoNotOptimize(Fn(P, Q).value());
  }
}

Tnum lshift4(Tnum P, Tnum Q) {
  (void)Q;
  return tnumLshift(P, 4);
}
Tnum rshift4(Tnum P, Tnum Q) {
  (void)Q;
  return tnumRshift(P, 4);
}
Tnum arshift4(Tnum P, Tnum Q) {
  (void)Q;
  return tnumArshift(P, 4, 64);
}
Tnum negOp(Tnum P, Tnum Q) {
  (void)Q;
  return tnumNeg(P);
}
Tnum bitwiseOpt64(Tnum P, Tnum Q) { return bitwiseMulOpt(P, Q, 64); }
Tnum rippleAdd64(Tnum P, Tnum Q) { return rippleAdd(P, Q, 64); }
Tnum rippleSub64(Tnum P, Tnum Q) { return rippleSub(P, Q, 64); }
Tnum lshiftByTnum(Tnum P, Tnum Q) { return tnumLshiftByTnum(P, Q, 64); }
Tnum joinOp(Tnum P, Tnum Q) { return P.joinWith(Q); }
Tnum meetOp(Tnum P, Tnum Q) { return P.meetWith(Q); }

void BM_RegValueAdd(benchmark::State &State) {
  static const auto Pairs = makePairs(PoolSize, 0xA11CE);
  std::vector<std::pair<RegValue, RegValue>> Values;
  Values.reserve(PoolSize);
  for (const auto &[P, Q] : Pairs)
    Values.emplace_back(RegValue::fromTnum(P), RegValue::fromTnum(Q));
  size_t I = 0;
  for (auto _ : State) {
    const auto &[L, R] = Values[I++ & (PoolSize - 1)];
    benchmark::DoNotOptimize(
        applyBinary(BinaryOp::Add, L, R).unsignedBounds().min());
  }
}

void BM_VerifyPacketFilter(benchmark::State &State) {
  Program P = ProgramBuilder()
                  .jmpImm(CompareOp::Lt, R2, 16, "drop")
                  .load(R3, R1, 0, 1)
                  .jmpImm(CompareOp::Eq, R3, 0, "drop")
                  .aluImm(AluOp::And, R3, 7)
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 1)
                  .ja("out")
                  .label("drop")
                  .movImm(R0, 0)
                  .label("out")
                  .exit()
                  .build();
  for (auto _ : State) {
    VerifierReport Report = verifyProgram(P, 16);
    benchmark::DoNotOptimize(Report.Accepted);
  }
}

void BM_InterpretPacketFilter(benchmark::State &State) {
  Program P = ProgramBuilder()
                  .load(R3, R1, 0, 1)
                  .aluImm(AluOp::And, R3, 7)
                  .alu(AluOp::Add, R3, R1)
                  .load(R0, R3, 0, 1)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0x5A);
  for (auto _ : State) {
    ExecResult R = Interpreter(P, Mem).run();
    benchmark::DoNotOptimize(R.ReturnValue);
  }
}

} // namespace

BENCHMARK(BM_TnumBinary<&tnumAdd>)->Name("tnum_add");
BENCHMARK(BM_TnumBinary<&tnumSub>)->Name("tnum_sub");
BENCHMARK(BM_TnumBinary<&tnumAnd>)->Name("tnum_and");
BENCHMARK(BM_TnumBinary<&tnumOr>)->Name("tnum_or");
BENCHMARK(BM_TnumBinary<&tnumXor>)->Name("tnum_xor");
BENCHMARK(BM_TnumBinary<&negOp>)->Name("tnum_neg");
BENCHMARK(BM_TnumBinary<&lshift4>)->Name("tnum_lshift_const");
BENCHMARK(BM_TnumBinary<&rshift4>)->Name("tnum_rshift_const");
BENCHMARK(BM_TnumBinary<&arshift4>)->Name("tnum_arshift_const");
BENCHMARK(BM_TnumBinary<&lshiftByTnum>)->Name("tnum_lshift_by_tnum");
BENCHMARK(BM_TnumBinary<&joinOp>)->Name("tnum_join");
BENCHMARK(BM_TnumBinary<&meetOp>)->Name("tnum_meet");
BENCHMARK(BM_TnumBinary<&rippleAdd64>)->Name("ripple_add_rd_baseline");
BENCHMARK(BM_TnumBinary<&rippleSub64>)->Name("ripple_sub_rd_baseline");
BENCHMARK(BM_TnumBinary<&kernMul>)->Name("mul/kern_mul");
BENCHMARK(BM_TnumBinary<&bitwiseOpt64>)->Name("mul/bitwise_mul_opt");
BENCHMARK(BM_TnumBinary<&ourMul>)->Name("mul/our_mul");
BENCHMARK(BM_RegValueAdd)->Name("regvalue_add_reduced_product");
BENCHMARK(BM_VerifyPacketFilter)->Name("verify_packet_filter");
BENCHMARK(BM_InterpretPacketFilter)->Name("interpret_packet_filter");

namespace {

/// Console output as usual, plus a captured (name, real ns/op) roster for
/// --json. Iteration counts are google-benchmark's statistical business;
/// the gate only needs the per-op figure of merit.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
public:
  struct Row {
    std::string Name;
    double NsPerOp;
  };
  std::vector<Row> Rows;

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs)
      if (!R.error_occurred && R.run_type == Run::RT_Iteration)
        Rows.push_back({R.benchmark_name(), R.GetAdjustedRealTime()});
    benchmark::ConsoleReporter::ReportRuns(Runs);
  }
};

} // namespace

/// BENCHMARK_MAIN(), plus a repo-convention `--json FILE` that writes
/// BENCH_gbops.json for ci/compare_bench.py: the benchmark
/// roster is exact; ns_per_op is the machine-dependent number the gate
/// ceilings against the committed baseline.
int main(int argc, char **argv) {
  const char *JsonPath = nullptr;
  std::vector<char *> Passthrough;
  for (int I = 0; I != argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc) {
      JsonPath = argv[++I];
      continue;
    }
    Passthrough.push_back(argv[I]);
  }
  Passthrough.push_back(nullptr);
  int PassthroughArgc = static_cast<int>(Passthrough.size()) - 1;
  benchmark::Initialize(&PassthroughArgc, Passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(PassthroughArgc,
                                             Passthrough.data()))
    return 1;
  JsonCapturingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  if (!JsonPath)
    return 0;
  std::FILE *Json = std::fopen(JsonPath, "w");
  if (!Json) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
    return 1;
  }
  std::fprintf(Json,
               "{\n"
               "  \"bench\": \"gbench_ops\",\n"
               "  \"build_info\": %s,\n"
               "  \"benchmarks\": [\n",
               buildInfoJson().c_str());
  for (size_t I = 0; I != Reporter.Rows.size(); ++I)
    std::fprintf(Json, "    {\"name\": \"%s\", \"ns_per_op\": %.3f}%s\n",
                 jsonEscape(Reporter.Rows[I].Name).c_str(),
                 Reporter.Rows[I].NsPerOp,
                 I + 1 == Reporter.Rows.size() ? "" : ",");
  std::fprintf(Json, "  ]\n}\n");
  std::fclose(Json);
  std::printf("wrote %s\n", JsonPath);
  return 0;
}
