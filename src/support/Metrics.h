//===- support/Metrics.h - Process-wide counters/gauges/histograms --------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named counters, gauges, and log2-bucketed
/// histograms, designed so instrumentation can live permanently in hot
/// paths:
///
///  * The recorder is OFF by default. Every hot-path record compiles to
///    one relaxed atomic load of a global pointer plus a branch; while
///    the pointer is null nothing else is touched -- no allocation, no
///    thread-local registration, no shard writes. Reports and bench
///    numbers are bit-identical with metrics on or off (metrics never
///    feed back into verdicts; see docs/OBSERVABILITY.md).
///
///  * When enabled, counter and histogram increments go to per-thread
///    shards of relaxed atomic slots -- no locks and no cross-thread
///    cache-line traffic on the hot path. A snapshot merges the shards
///    under the registry mutex. Gauges are set-typed (queue depth,
///    in-flight) so they live in process-wide atomics with a high-water
///    mark instead of shards.
///
///  * Handles (Counter/Gauge/Histogram) resolve their name to a stable
///    slot id once, at construction; the intended idiom is a function-
///    local static struct of handles per instrumented component.
///
/// Naming follows the Prometheus conventions: `tnums_<area>_<what>_total`
/// for counters, `tnums_<area>_<what>` for gauges, `tnums_<area>_<what>_ns`
/// for nanosecond histograms, with an optional label set (`op="add"`)
/// carried verbatim in the metric identity.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_SUPPORT_METRICS_H
#define TNUMS_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace tnums {

class MetricsRegistry;

/// The global recorder pointer. Null (the default) means disabled: every
/// record path is a load + branch and nothing else. enableProcessMetrics()
/// publishes the singleton registry here.
extern std::atomic<MetricsRegistry *> GlobalMetricsRecorder;

/// The registry the recorder publishes when enabled, reachable for
/// snapshots even while recording is off.
inline MetricsRegistry *enabledMetrics() {
  return GlobalMetricsRecorder.load(std::memory_order_relaxed);
}

/// Turn the process-wide recorder on. Idempotent; safe before or after
/// handle construction.
void enableProcessMetrics();

/// Turn the recorder back off (handles keep their ids; counts persist and
/// resume if re-enabled). Primarily for tests.
void disableProcessMetrics();

/// True while the recorder is installed.
inline bool metricsEnabled() { return enabledMetrics() != nullptr; }

//===----------------------------------------------------------------------===//
// Snapshots
//===----------------------------------------------------------------------===//

/// Histograms bucket by bit width: bucket 0 counts value 0, bucket i
/// (1..64) counts values v with 2^(i-1) <= v < 2^i, i.e. the inclusive
/// bucket upper bounds are 2^i - 1.
constexpr unsigned MetricsHistogramBuckets = 65;

enum class MetricKind : uint8_t { Counter = 0, Gauge = 1, Histogram = 2 };

/// One metric, merged across all thread shards at snapshot time.
struct MetricValue {
  std::string Name;   ///< Base name, e.g. "tnums_analyzer_insn_visits_total".
  std::string Labels; ///< Optional label body, e.g. `op="add"` (no braces).
  MetricKind Kind = MetricKind::Counter;

  uint64_t Count = 0; ///< Counter value, or histogram sample count.
  int64_t Value = 0;  ///< Gauge current value.
  int64_t Peak = 0;   ///< Gauge high-water mark since registration.
  uint64_t Sum = 0;   ///< Histogram sum of recorded values.
  std::vector<uint64_t> Buckets; ///< Histogram per-bucket counts (65 entries).

  /// "name{labels}" -- the full identity as exposed.
  std::string fullName() const;
};

/// A point-in-time merge of every registered metric, sorted by full name
/// so snapshots are deterministic given deterministic counts.
struct MetricsSnapshot {
  std::vector<MetricValue> Metrics;

  /// Render in the Prometheus text exposition format (TYPE comments,
  /// cumulative `_bucket{le=...}` histogram series, `_sum`/`_count`).
  std::string toPrometheusText() const;

  /// Render as a JSON object {"counters":{...},"gauges":{...},
  /// "histograms":{...}} for embedding in bench JSON outputs.
  std::string toJson() const;

  /// Find a metric by full name ("name" or "name{labels}"); null if absent.
  const MetricValue *find(const std::string &FullName) const;
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// Owns metric definitions and all per-thread shards. One per process
/// (instance()); handles talk to it through slot ids.
class MetricsRegistry {
public:
  /// The process singleton (constructed on first use, never destroyed --
  /// worker threads may still record during static destruction).
  static MetricsRegistry &instance();

  /// Register (or look up -- same name+labels+kind returns the same id)
  /// a metric and return its stable id.
  uint32_t registerCounter(const std::string &Name,
                           const std::string &Labels = std::string());
  uint32_t registerGauge(const std::string &Name,
                         const std::string &Labels = std::string());
  uint32_t registerHistogram(const std::string &Name,
                             const std::string &Labels = std::string());

  /// Hot-path record operations. Ids must come from the matching
  /// register call.
  void counterAdd(uint32_t Id, uint64_t Delta);
  void histogramRecord(uint32_t Id, uint64_t Sample);
  void gaugeSet(uint32_t Id, int64_t Value);
  void gaugeAdd(uint32_t Id, int64_t Delta);

  /// Merge every shard and gauge into a deterministic snapshot.
  MetricsSnapshot snapshot() const;

  /// Zero every slot, gauge, and peak (definitions stay). Tests only.
  void resetForTest();

  /// Number of thread shards ever created. The disabled-recorder test
  /// asserts recording while disabled creates none.
  size_t debugShardCount() const;

  /// Map a histogram sample to its bucket index (0..64): 0 for 0, else
  /// bit_width(Sample). Exposed for the bucket-boundary tests.
  static unsigned bucketIndex(uint64_t Sample);

  /// Inclusive upper bound of bucket I (2^I - 1; UINT64_MAX for 64).
  static uint64_t bucketUpperBound(unsigned I);

  struct ImplT; ///< Opaque state; defined in Metrics.cpp only.

private:
  MetricsRegistry();
  ~MetricsRegistry() = delete;

  ImplT *Impl;
};

//===----------------------------------------------------------------------===//
// Handles
//===----------------------------------------------------------------------===//

/// Monotonic event counter. `add` is a no-op branch while disabled.
class Counter {
public:
  explicit Counter(const char *Name, const char *Labels = nullptr)
      : Id(MetricsRegistry::instance().registerCounter(
            Name, Labels ? Labels : std::string())) {}

  void add(uint64_t Delta = 1) {
    if (MetricsRegistry *R = enabledMetrics())
      R->counterAdd(Id, Delta);
  }

  uint32_t id() const { return Id; }

private:
  uint32_t Id;
};

/// Set-typed value with a high-water mark (queue depth, in-flight jobs).
class Gauge {
public:
  explicit Gauge(const char *Name, const char *Labels = nullptr)
      : Id(MetricsRegistry::instance().registerGauge(
            Name, Labels ? Labels : std::string())) {}

  void set(int64_t Value) {
    if (MetricsRegistry *R = enabledMetrics())
      R->gaugeSet(Id, Value);
  }
  void add(int64_t Delta) {
    if (MetricsRegistry *R = enabledMetrics())
      R->gaugeAdd(Id, Delta);
  }

  uint32_t id() const { return Id; }

private:
  uint32_t Id;
};

/// Log2-bucketed sample distribution (latencies in ns, sizes, ...).
class Histogram {
public:
  explicit Histogram(const char *Name, const char *Labels = nullptr)
      : Id(MetricsRegistry::instance().registerHistogram(
            Name, Labels ? Labels : std::string())) {}

  void record(uint64_t Sample) {
    if (MetricsRegistry *R = enabledMetrics())
      R->histogramRecord(Id, Sample);
  }

  uint32_t id() const { return Id; }

private:
  uint32_t Id;
};

//===----------------------------------------------------------------------===//
// Build identification
//===----------------------------------------------------------------------===//

/// Compile- and run-time facts that explain cross-machine baseline
/// differences from artifacts alone.
struct BuildInfo {
  std::string Compiler;     ///< e.g. "gcc 12.2.0" (from __VERSION__).
  std::string BuildType;     ///< "release" (NDEBUG) or "debug".
  bool ComputedGoto = false; ///< Threaded interpreter dispatch available.
};

/// The current process's build facts (computed once).
const BuildInfo &buildInfo();

/// buildInfo() as a compact JSON object, e.g.
/// {"compiler":"gcc 12.2.0","build_type":"release",...}.
std::string buildInfoJson();

/// buildInfo() as a one-line human string for banners.
std::string buildInfoString();

/// Escape a string for embedding inside a JSON string literal (shared by
/// the exposition/event-log writers and the bench JSON dumps).
std::string jsonEscape(const std::string &Raw);

} // namespace tnums

#endif // TNUMS_SUPPORT_METRICS_H
