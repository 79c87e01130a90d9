//===- perfbench/src/Main.cpp - Repo benchmark entry point ----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
///                  --workdir DIR [--trace-out FILE]
///
/// Sets the workload up several times (set-up time is the fastest), then
///
///  * --trace 0: measures it untraced for S seconds and reports the
///    end-to-end metrics;
///  * --trace 1: measures it untraced for S/2 seconds and traced for S/2
///    seconds (the difference is the tracing overhead), takes the fixed
///    per-layer rungs of both ladders, and reports the per-layer metrics,
///    the ladder table with the ratio between adjacent rungs, and the self
///    time per layer. Spans go to --trace-out.
///
/// The last line of output is "PERFBENCH-RESULT <json>" with the metrics,
/// the operation counts, the recorded-answer keys and the host stamp;
/// perfbench/run.py turns it into the benchmark's result line.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Metrics.h"
#include "support/SimdBatch.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <sys/resource.h>
#include <sys/vfs.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

using namespace perfbench;

namespace {

/// Set-ups before the window and, in an untraced run, again after it; the
/// fastest is reported, since interference from other processes only ever
/// adds time to a set-up of a few milliseconds.
constexpr unsigned SetUps = 9;
/// Stream size and duration of the daemon rungs of a traced run.
constexpr unsigned DaemonPrograms = 64;
constexpr double DaemonSeconds = 1.0;

/// Every per-layer metric a traced run reports (BENCHMARK.json per_layer).
const char *const PerLayerMetrics[] = {
    "tnum.add_ns", "tnum.sub_ns", "tnum.mul_ns", "tnum.and_ns", "tnum.or_ns",
    "tnum.xor_ns", "tnum.lsh_ns", "domain.binary_ns", "domain.join_ns",
    "domain.subset_ns", "domain.refine_ns", "domain.sync_ns",
    "bpf.ns_per_insn_visit", "bpf.analyze_us_per_program",
    "bpf.validate_ns_per_program", "bpf.insn_visits", "bpf.visits_per_insn",
    "bpf.accept_frac", "service.dedup_hit_frac",
    "service.daemon.hit_p50_ms", "service.daemon.hit_p99_ms",
    "service.daemon.miss_p50_ms", "service.daemon.miss_p99_ms",
    "service.daemon.hit_frac", "service.daemon.busy_frac",
    "service.daemon.analyses", "service.daemon.stores",
    "service.daemon.unattributed_ms",
    "service.wire.codec_us", "service.cache.lookup_us",
    "service.cache.store_us", "verify.soundness.evals_per_s",
    "verify.optimality.evals_per_s", "verify.campaign.evals_per_s",
    "verify.evals", "verify.pairs", "verify.shards", "verify.abstract_op_ns",
    "support.simd.portable.nonmember_ns_per_lane",
    "support.simd.portable.reduce_ns_per_lane",
    "support.simd.auto.nonmember_ns_per_lane",
    "support.simd.auto.reduce_ns_per_lane",
    "bpf.interp.decode_ns_per_program", "bpf.interp.ns_per_step",
    "bpf.interp.steps", "service.fuzz.concrete_runs",
    "service.fuzz.step_limit_frac", "service.fuzz.verify_share",
    "ladder.regvalue_over_tnum", "ladder.visit_over_regvalue",
    "ladder.program_over_visit", "ladder.verdict_over_program",
    "ladder.eval_over_tnum", "trace_overhead_frac"};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;
  std::string TraceOut;
};

bool parseArgs(int Argc, char **Argv, Args &Out) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Out.Workload = Value;
    else if (Flag == "--seed")
      Out.Seed = std::stoull(Value);
    else if (Flag == "--seconds")
      Out.Seconds = std::stod(Value);
    else if (Flag == "--trace")
      Out.Trace = Value == "1";
    else if (Flag == "--workdir")
      Out.WorkDir = Value;
    else if (Flag == "--trace-out")
      Out.TraceOut = Value;
    else
      return false;
  }
  return Argc % 2 == 1 && !Out.Workload.empty() && !Out.WorkDir.empty() &&
         Out.Seconds > 0;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Context &Ctx) {
  if (Name == "analyze-mixed")
    return makeAnalyzeMixed(Ctx);
  if (Name == "campaign-sweep")
    return makeCampaignSweep(Ctx);
  if (Name == "fuzz-loops")
    return makeFuzzLoops(Ctx);
  return nullptr;
}

std::string cpuModel() {
#if defined(__x86_64__)
  unsigned Regs[12] = {};
  if (__get_cpuid(0x80000000u, &Regs[0], &Regs[1], &Regs[2], &Regs[3]) &&
      Regs[0] >= 0x80000004u) {
    for (unsigned Leaf = 0; Leaf != 3; ++Leaf)
      __get_cpuid(0x80000002u + Leaf, &Regs[4 * Leaf], &Regs[4 * Leaf + 1],
                  &Regs[4 * Leaf + 2], &Regs[4 * Leaf + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string Model = Brand;
    Model.erase(0, Model.find_first_not_of(' '));
    Model.erase(Model.find_last_not_of(' ') + 1);
    return Model;
  }
#endif
  return "unknown";
}

std::string filesystemType(const std::string &Path) {
  struct statfs Info;
  if (statfs(Path.c_str(), &Info) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(Info.f_type)) {
  case 0xEF53:
    return "ext4";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  case 0x01021994:
    return "tmpfs";
  case 0x794C7630:
    return "overlayfs";
  default: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%lx",
                  static_cast<unsigned long>(Info.f_type));
    return Buf;
  }
  }
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

double perSecond(const RunResult &R) {
  return R.Seconds > 0 ? R.Work / R.Seconds : 0;
}

/// The end-to-end rate: the median over slices that did work.
double rate(const RunResult &R) {
  std::vector<double> Rates;
  for (const SliceStats &Slice : R.Slices)
    if (Slice.Seconds > 0)
      Rates.push_back(Slice.Work / Slice.Seconds);
  return Rates.empty() ? perSecond(R) : median(Rates);
}

void mergeRun(RunResult &Into, const RunResult &From) {
  Into.Attempted += From.Attempted;
  Into.Failed += From.Failed;
  Into.Errors.insert(Into.Errors.end(), From.Errors.begin(),
                     From.Errors.end());
  for (const auto &[Key, Value] : From.Answers) {
    auto [It, Inserted] = Into.Answers.emplace(Key, Value);
    if (!Inserted && It->second != Value)
      Into.fail(1, "answer " + Key + " differs between windows");
  }
}

/// The ladder ratios from the rung metrics.
void addLadder(MetricMap &M) {
  double Tnum = 0;
  for (const char *Op : {"add", "sub", "mul", "and", "or", "xor", "lsh"})
    Tnum += M[std::string("tnum.") + Op + "_ns"].Value / 7;
  double RegValue = M["domain.binary_ns"].Value;
  double Visit = M["bpf.ns_per_insn_visit"].Value;
  double Program = M["bpf.analyze_us_per_program"].Value * 1e3;
  double Verdict = M["service.daemon.miss_p50_ms"].Value * 1e6;
  double Eval = 1e9 / M["verify.campaign.evals_per_s"].Value;
  M["ladder.regvalue_over_tnum"] = {RegValue / Tnum, "ratio"};
  M["ladder.visit_over_regvalue"] = {Visit / RegValue, "ratio"};
  M["ladder.program_over_visit"] = {Program / Visit, "ratio"};
  M["ladder.verdict_over_program"] = {Verdict / Program, "ratio"};
  M["ladder.eval_over_tnum"] = {Eval / Tnum, "ratio"};

  std::printf("\nladder (cost per unit; x = ratio to the rung below)\n");
  auto Row = [](const char *Rung, double Ns, double Below) {
    if (Below > 0)
      std::printf("  %-34s %12.2f ns   x%.1f\n", Rung, Ns, Ns / Below);
    else
      std::printf("  %-34s %12.2f ns\n", Rung, Ns);
  };
  std::printf(" analyzer ladder\n");
  Row("tnum op (mean of 7)", Tnum, 0);
  Row("RegValue op (applyBinary)", RegValue, Tnum);
  Row("analyzer insn visit", Visit, RegValue);
  Row("verified program (in process)", Program, Visit);
  Row("daemon verdict (miss p50)", Verdict, Program);
  std::printf(" campaign ladder\n");
  Row("tnum op (mean of 7)", Tnum, 0);
  Row("sweep eval (full campaign)", Eval, Tnum);
  double Pairs = M["verify.pairs"].Value, Evals = M["verify.evals"].Value;
  if (Pairs > 0)
    Row("campaign pair", Eval * Evals / Pairs, Eval);
}

void printSelfTime(const Tracer &Trace) {
  std::map<std::string, uint64_t> Self = Trace.selfNsByLayer();
  uint64_t Total = 0;
  for (const auto &[Layer, Ns] : Self)
    Total += Ns;
  std::printf("\nself time per layer (%llu spans)\n",
              static_cast<unsigned long long>(Trace.spanCount()));
  for (const auto &[Layer, Ns] : Self)
    std::printf("  %-10s %10.1f ms  %5.1f%%\n", Layer.c_str(),
                static_cast<double>(Ns) / 1e6,
                Total ? 100.0 * static_cast<double>(Ns) / Total : 0.0);
}

void printJsonMetrics(const MetricMap &M, const std::vector<std::string> &Only,
                      RunResult &Result) {
  std::printf("\"metrics\":{");
  bool First = true;
  for (const std::string &Name : Only) {
    auto It = M.find(Name);
    if (It == M.end()) {
      Result.fail(1, "metric " + Name + " was not measured");
      continue;
    }
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", First ? "" : ",",
                Name.c_str(), It->second.Value, It->second.Unit.c_str());
    First = false;
  }
  std::printf("}");
}

int run(const Args &A) {
  Context Ctx;
  Ctx.Seed = A.Seed;
  Ctx.WorkDir = A.WorkDir;
  std::filesystem::create_directories(A.WorkDir);
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, Ctx);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }

  std::printf("host: nproc=%u cpu=\"%s\" simd=%s fs=%s build=%s\n",
              std::thread::hardware_concurrency(), cpuModel().c_str(),
              tnums::simdPathDescription(tnums::SimdMode::Auto).c_str(),
              filesystemType(A.WorkDir).c_str(),
              tnums::buildInfoJson().c_str());
  std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace);

  std::vector<uint64_t> SetUpNs;
  auto SetUpRounds = [&] {
    for (unsigned Round = 0; Round != SetUps; ++Round) {
      W->tearDown();
      uint64_t Start = nowNs();
      W->setUp();
      SetUpNs.push_back(nowNs() - Start);
    }
  };
  SetUpRounds();

  MetricMap M;
  RunResult Result;
  std::vector<std::string> Reported;
  if (!A.Trace) {
    RunResult R = W->measure(A.Seconds, nullptr);
    // Set up again after the window: the set-ups before it can all fall
    // into one short spell of interference, and set-ups taken seconds
    // apart rarely both do.
    SetUpRounds();
    W->tearDown();
    mergeRun(Result, R);
    M["setup_s"] = {static_cast<double>(*std::min_element(SetUpNs.begin(),
                                                          SetUpNs.end())) /
                        1e9,
                    "s"};
    M["peak_rss_mb"] = {peakRssMb(), "MB"};
    double Tail = tailFraction(R.Latency.count());
    std::printf("\n%s: %.0f %s in %.3f s = %.1f %s/s; %zu calls, latency "
                "p50 %.4f ms, p%.1f %.4f ms\n",
                A.Workload.c_str(), R.Work, W->unit(), R.Seconds,
                perSecond(R), W->unit(),
                static_cast<size_t>(R.Latency.count()),
                R.Latency.percentile(0.5) / 1e6, Tail * 100,
                R.Latency.percentile(Tail) / 1e6);
    std::vector<double> P50;
    for (const SliceStats &Slice : R.Slices)
      if (Slice.Seconds > 0)
        P50.push_back(Slice.P50Ns);
    if (P50.empty()) // Window shorter than one slice.
      P50.push_back(R.Latency.percentile(0.5));
    M["throughput_per_s"] = {rate(R), "1/s"};
    M["latency_p50_ms"] = {median(P50) / 1e6, "ms"};
    std::printf("medians over %zu slices: %.1f %s/s, p50 %.4f ms\n",
                R.Slices.size(), M["throughput_per_s"].Value, W->unit(),
                M["latency_p50_ms"].Value);
    Reported = {"setup_s", "peak_rss_mb", "throughput_per_s",
                "latency_p50_ms"};
  } else {
    Tracer Trace;
    RunResult Untraced = W->measure(A.Seconds / 2, nullptr);
    W->tearDown();
    W->setUp();
    RunResult Traced = W->measure(A.Seconds / 2, &Trace);
    W->tearDown();
    mergeRun(Result, Untraced);
    mergeRun(Result, Traced);
    M = Traced.Layer;
    M["trace_overhead_frac"] = {rate(Untraced) / rate(Traced) - 1, "frac"};
    std::printf("\n%s: untraced %.1f %s/s, traced %.1f %s/s\n",
                A.Workload.c_str(), rate(Untraced), W->unit(), rate(Traced),
                W->unit());
    RunResult Daemon = daemonRungs(Ctx, DaemonPrograms, DaemonSeconds, Trace);
    mergeRun(Result, Daemon);
    for (auto &[Name, Value] : Daemon.Layer)
      M[Name] = Value;
    for (auto &[Name, Value] : measureRungs(Ctx, Trace))
      M[Name] = Value;
    // What a miss costs beyond the parts timed on their own: the event
    // loop, the queue and the socket.
    M["service.daemon.unattributed_ms"] = {
        M["service.daemon.miss_p50_ms"].Value -
            (M["service.wire.codec_us"].Value +
             M["service.cache.lookup_us"].Value +
             M["bpf.analyze_us_per_program"].Value +
             M["service.cache.store_us"].Value) /
                1e3,
        "ms"};
    addLadder(M);
    printSelfTime(Trace);
    if (!A.TraceOut.empty() && !Trace.writeJsonl(A.TraceOut))
      Result.fail(1, "cannot write " + A.TraceOut);
    Reported.assign(std::begin(PerLayerMetrics), std::end(PerLayerMetrics));
  }

  std::printf("\nmetrics\n");
  for (const auto &[Name, Value] : M)
    std::printf("  %-44s %16.6g %s\n", Name.c_str(), Value.Value,
                Value.Unit.c_str());
  for (const std::string &Error : Result.Errors)
    std::printf("error: %s\n", Error.c_str());

  std::printf("PERFBENCH-RESULT {");
  printJsonMetrics(M, Reported, Result);
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"answers\":{",
              static_cast<unsigned long long>(Result.Attempted),
              static_cast<unsigned long long>(Result.Failed));
  bool First = true;
  for (const auto &[Key, Value] : Result.Answers) {
    std::printf("%s\"%s\":\"%s\"", First ? "" : ",",
                tnums::jsonEscape(Key).c_str(),
                tnums::jsonEscape(Value).c_str());
    First = false;
  }
  std::printf("},\"host\":{\"nproc\":%u,\"cpu\":\"%s\",\"simd\":\"%s\","
              "\"fs\":\"%s\",\"build\":%s}}\n",
              std::thread::hardware_concurrency(),
              tnums::jsonEscape(cpuModel()).c_str(),
              tnums::jsonEscape(
                  tnums::simdPathDescription(tnums::SimdMode::Auto))
                  .c_str(),
              filesystemType(A.WorkDir).c_str(),
              tnums::buildInfoJson().c_str());
  return Result.Failed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
#if defined(__GLIBC__)
  // Keep freed heap pages in the process. Otherwise glibc hands memory back
  // to the kernel after a tear-down, and raises its mmap threshold at a
  // moment that depends on the heap's history, so whether a set-up pays
  // page faults is chance: set-up times switch between two levels 50%
  // apart within one run.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20); // glibc's maximum on 64-bit hosts.
#endif
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: %s --workload {analyze-mixed,campaign-sweep,"
                 "fuzz-loops} --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-out FILE]\n",
                 Argv[0]);
    return 2;
  }
  try {
    return run(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 2;
  }
}
