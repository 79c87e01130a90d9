//===- perfbench/src/Bench.h - Repo benchmark: shared pieces ----*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo benchmark drives the libraries from outside, through their
/// public entry points only. This header holds what every workload shares:
///
///  * the span tracer -- spans (name, start, end, parent) are kept in
///    per-thread memory buffers around each public call the benchmark makes
///    and written once when the run ends; a layer's self time is its spans'
///    durations minus the part their child spans cover;
///  * RunResult, the outcome of one timed window (work, time, per-call
///    latencies, failures, recorded-answer keys, per-layer metrics);
///  * the Workload interface: set up from the seed, measure for a time
///    budget (traced or not), tear down.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_PERFBENCH_BENCH_H
#define TNUMS_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One measured value with its unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

struct SpanRecord {
  const char *Name; ///< "<layer>.<call>"; a string literal.
  uint64_t StartNs;
  uint64_t EndNs;
  int64_t Parent; ///< Index in the same buffer, or -1 for a root.
};

/// The spans of one thread. Not thread-safe: each thread takes its own
/// buffer from the Tracer.
class SpanBuffer {
public:
  explicit SpanBuffer(unsigned ThreadV) : Thread(ThreadV) {}

  size_t open(const char *Name);
  void close(size_t Index);

  const std::vector<SpanRecord> &spans() const { return Spans; }
  unsigned thread() const { return Thread; }

private:
  std::vector<SpanRecord> Spans;
  std::vector<size_t> Open; ///< Stack of open span indices.
  unsigned Thread;
};

/// Owns every thread's span buffer for one traced run.
class Tracer {
public:
  /// A fresh buffer for the calling thread (thread-safe).
  SpanBuffer *newBuffer();

  /// Self time per layer (the name's first dot-separated component).
  std::map<std::string, uint64_t> selfNsByLayer() const;

  uint64_t spanCount() const;

  /// Writes the spans as one JSON object per line, at most
  /// MaxWrittenSpans per thread (a daemon client records hundreds of
  /// thousands a second). False on I/O error.
  bool writeJsonl(const std::string &Path) const;
  static constexpr size_t MaxWrittenSpans = 100'000;

private:
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<SpanBuffer>> Buffers;
};

/// Scoped span; a null buffer (the untraced run) makes it a no-op.
class Span {
public:
  Span(SpanBuffer *BufV, const char *Name)
      : Buf(BufV), Index(BufV ? BufV->open(Name) : 0) {}
  ~Span() {
    if (Buf)
      Buf->close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanBuffer *Buf;
  size_t Index;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile of \p Samples in linear time (reorders them);
/// 0 when empty.
double percentile(std::vector<uint64_t> &Samples, double Fraction);

/// Median of \p Values (mean of the middle two for an even count).
double median(std::vector<double> Values);

/// An exact latency distribution in bounded memory: one counter per
/// nanosecond below 2^20 ns (allocated on first use), longer samples kept
/// verbatim. Peak memory therefore does not grow with the request count.
class LatencyLog {
public:
  void add(uint64_t Ns);
  void merge(const LatencyLog &Other);
  uint64_t count() const { return Total; }
  /// Nearest-rank percentile in nanoseconds; 0 when empty.
  double percentile(double Fraction) const;

private:
  static constexpr uint64_t DenseNs = uint64_t(1) << 20;
  std::vector<uint32_t> Dense;
  mutable std::vector<uint64_t> Long;
  uint64_t Total = 0;
};

/// The highest percentile with at least ten samples beyond it, capped at
/// p99 (the rank a tail latency is reported at).
double tailFraction(size_t Samples);

/// One slice of a window: the work done in it, the time that work took,
/// and the median latency of the calls that ended in it.
struct SliceStats {
  double Work = 0;
  double Seconds = 0;
  double P50Ns = 0;
};

/// Cuts a window into consecutive fixed-length slices by call end time,
/// keeping only the open slice's samples (memory does not grow with the
/// call count). Workloads report medians over slices: interference on a
/// shared host arrives in bursts, and a median over slices ignores a burst
/// that a whole-window figure would absorb.
class SliceRecorder {
public:
  /// Slices of \p SliceNs from \p StartNs; only whole slices that end by
  /// \p EndNs are kept. A slice's Seconds is the summed duration of its
  /// calls.
  SliceRecorder(uint64_t StartNs, uint64_t EndNs, uint64_t SliceNsV)
      : SliceEnd(StartNs + SliceNsV), WindowEnd(EndNs), SliceNs(SliceNsV) {}

  /// One call that ended at \p EndNs after \p LatencyNs, doing \p Work.
  void add(uint64_t EndNs, uint64_t LatencyNs, double Work);
  /// Closes every slice that ends by \p NowNs; call once after the window.
  void closeUntil(uint64_t NowNs);
  const std::vector<SliceStats> &slices() const { return Closed; }

private:
  uint64_t SliceEnd;
  uint64_t WindowEnd;
  uint64_t SliceNs;
  std::vector<uint64_t> Open; ///< Latencies of the open slice.
  double OpenWork = 0;
  uint64_t OpenBusyNs = 0;
  std::vector<SliceStats> Closed;
};

/// Outcome of one timed window of a workload.
struct RunResult {
  uint64_t Attempted = 0; ///< Operations tried.
  uint64_t Failed = 0;    ///< Operations failed or answered wrongly.
  double Work = 0;        ///< Units of work completed (see Workload::unit).
  double Seconds = 0;     ///< Time the work took.
  LatencyLog Latency;     ///< One sample per timed call.
  std::vector<std::string> Errors; ///< The first few failure descriptions.
  /// Outputs that must equal the recorded answers (perfbench/answers.json).
  std::map<std::string, std::string> Answers;
  /// Workload-specific per-layer metrics (traced windows only).
  MetricMap Layer;
  /// The window's slices; the end-to-end figures are medians over them.
  std::vector<SliceStats> Slices;

  void fail(uint64_t Operations, const std::string &Why);
};

/// Everything a workload needs from the command line.
struct Context {
  uint64_t Seed = 1;
  /// Relative scratch directory for the daemon's socket and cache; removed
  /// by the caller when the run ends.
  std::string WorkDir;
};

/// One benchmark workload. setUp() may run several times per process (the
/// set-up time is the median); tearDown() undoes it and is idempotent.
class Workload {
public:
  virtual ~Workload() = default;
  virtual void setUp() = 0;
  virtual void tearDown() = 0;
  /// Runs the workload for about \p Seconds. With a tracer, records spans
  /// and fills RunResult::Layer.
  virtual RunResult measure(double Seconds, Tracer *Trace) = 0;
  /// What one unit of RunResult::Work is ("verdicts", "evals", ...).
  virtual const char *unit() const = 0;
};

std::unique_ptr<Workload> makeAnalyzeMixed(const Context &Ctx);
std::unique_ptr<Workload> makeCampaignSweep(const Context &Ctx);
std::unique_ptr<Workload> makeFuzzLoops(const Context &Ctx);

/// The daemon rungs: an in-process tnumsd with a durable cache, driven for
/// \p Seconds by closed-loop clients over the first \p StreamPrograms of
/// the seeded `mixed` stream, then the wire codec and the cache lookup and
/// store on their own. Verdicts that differ from the in-process engine
/// count as failed operations.
RunResult daemonRungs(const Context &Ctx, unsigned StreamPrograms,
                      double Seconds, Tracer &Trace);

/// The fixed-work rungs of both layer ladders (tnum, domain, bpf, verify,
/// support, interpreter, fuzz), measured on inputs derived from \p Seed.
/// Exact counts in the result repeat for a given seed.
MetricMap measureRungs(const Context &Ctx, Tracer &Trace);

/// The campaign rungs: each property family as its own runCampaign, and
/// the exact work of one full round.
MetricMap campaignRungs(const Context &Ctx, SpanBuffer *Buf);

/// The fuzz rungs over the fixed stream prefix: report counts, the
/// verification share, and the decoded interpreter's decode and step costs.
MetricMap fuzzRungs(const Context &Ctx, SpanBuffer *Buf);

/// Formats \p Value as 16 hex digits (answer keys).
std::string hex64(uint64_t Value);

/// FNV-1a step over a 64-bit word.
uint64_t fnvMix(uint64_t Hash, uint64_t Value);
inline constexpr uint64_t FnvBasis = 1469598103934665603ull;

} // namespace perfbench

#endif // TNUMS_PERFBENCH_BENCH_H
