//===- support/Metrics.cpp - Process-wide metrics registry ----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/Table.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include <stdio.h>
#include <stdlib.h>

using namespace tnums;

std::atomic<MetricsRegistry *> tnums::GlobalMetricsRecorder{nullptr};

namespace {

/// Fixed slot budget per thread shard. Counters take one slot, histograms
/// take MetricsHistogramBuckets + 2 (count + sum). The process registers a
/// few hundred slots; exhausting the budget is a programming error.
constexpr uint32_t MaxShardSlots = 4096;

struct Shard {
  std::atomic<uint64_t> Slots[MaxShardSlots] = {};
};

struct GaugeCell {
  std::atomic<int64_t> Value{0};
  std::atomic<int64_t> Peak{0};
};

struct MetricDef {
  std::string Name;
  std::string Labels;
  MetricKind Kind;
  uint32_t SlotBase = 0;   ///< Counter/histogram: first shard slot.
  uint32_t GaugeIndex = 0; ///< Gauge: index into Gauges.
};

void raisePeak(std::atomic<int64_t> &Peak, int64_t Value) {
  int64_t Seen = Peak.load(std::memory_order_relaxed);
  while (Value > Seen &&
         !Peak.compare_exchange_weak(Seen, Value, std::memory_order_relaxed))
    ;
}

} // namespace

struct MetricsRegistry::ImplT {
  mutable std::mutex Mutex;
  std::vector<MetricDef> Defs;
  std::map<std::string, uint32_t> ByKey;
  uint32_t NextSlot = 0;
  /// Every shard ever created; retired threads' counts stay merged in.
  std::vector<std::unique_ptr<Shard>> Shards;
  /// Shards whose owning thread exited, available for rebinding.
  std::vector<Shard *> FreeShards;
  /// deque: gauge cells must keep stable addresses across growth.
  std::deque<GaugeCell> Gauges;
};

namespace {

/// Per-thread shard lease. Returns the shard to the registry freelist on
/// thread exit so long-lived processes with thread churn stay bounded.
struct ShardLease {
  Shard *S = nullptr;
  MetricsRegistry::ImplT *Owner = nullptr;
  ~ShardLease() {
    if (!S || !Owner)
      return;
    std::lock_guard<std::mutex> Lock(Owner->Mutex);
    Owner->FreeShards.push_back(S);
  }
};

thread_local ShardLease MyShard;

Shard &acquireShard(MetricsRegistry::ImplT &Impl) {
  if (MyShard.S)
    return *MyShard.S;
  std::lock_guard<std::mutex> Lock(Impl.Mutex);
  if (!Impl.FreeShards.empty()) {
    MyShard.S = Impl.FreeShards.back();
    Impl.FreeShards.pop_back();
  } else {
    Impl.Shards.push_back(std::make_unique<Shard>());
    MyShard.S = Impl.Shards.back().get();
  }
  MyShard.Owner = &Impl;
  return *MyShard.S;
}

std::string defKey(MetricKind Kind, const std::string &Name,
                   const std::string &Labels) {
  std::string Key;
  Key += static_cast<char>('0' + static_cast<unsigned>(Kind));
  Key += Name;
  Key += '\x01';
  Key += Labels;
  return Key;
}

} // namespace

MetricsRegistry::MetricsRegistry() : Impl(new ImplT()) {}

MetricsRegistry &MetricsRegistry::instance() {
  // Leaked on purpose: worker threads may record during static
  // destruction, so the registry must outlive everything.
  static MetricsRegistry *Singleton = new MetricsRegistry();
  return *Singleton;
}

void tnums::enableProcessMetrics() {
  GlobalMetricsRecorder.store(&MetricsRegistry::instance(),
                              std::memory_order_release);
}

void tnums::disableProcessMetrics() {
  GlobalMetricsRecorder.store(nullptr, std::memory_order_release);
}

unsigned MetricsRegistry::bucketIndex(uint64_t Sample) {
  if (Sample == 0)
    return 0;
  return 64 - static_cast<unsigned>(__builtin_clzll(Sample));
}

uint64_t MetricsRegistry::bucketUpperBound(unsigned I) {
  if (I >= 64)
    return UINT64_MAX;
  return (uint64_t(1) << I) - 1;
}

static uint32_t registerDef(MetricsRegistry::ImplT &Impl, MetricKind Kind,
                            const std::string &Name,
                            const std::string &Labels) {
  std::lock_guard<std::mutex> Lock(Impl.Mutex);
  std::string Key = defKey(Kind, Name, Labels);
  auto It = Impl.ByKey.find(Key);
  if (It != Impl.ByKey.end())
    return It->second;

  MetricDef Def;
  Def.Name = Name;
  Def.Labels = Labels;
  Def.Kind = Kind;
  if (Kind == MetricKind::Gauge) {
    Def.GaugeIndex = static_cast<uint32_t>(Impl.Gauges.size());
    Impl.Gauges.emplace_back();
  } else {
    uint32_t Needed =
        Kind == MetricKind::Histogram ? MetricsHistogramBuckets + 2 : 1;
    if (Impl.NextSlot + Needed > MaxShardSlots) {
      fprintf(stderr, "metrics: shard slot budget exhausted registering %s\n",
              Name.c_str());
      abort();
    }
    Def.SlotBase = Impl.NextSlot;
    Impl.NextSlot += Needed;
  }
  uint32_t Id = static_cast<uint32_t>(Impl.Defs.size());
  Impl.Defs.push_back(std::move(Def));
  Impl.ByKey.emplace(std::move(Key), Id);
  return Id;
}

uint32_t MetricsRegistry::registerCounter(const std::string &Name,
                                          const std::string &Labels) {
  return registerDef(*Impl, MetricKind::Counter, Name, Labels);
}

uint32_t MetricsRegistry::registerGauge(const std::string &Name,
                                        const std::string &Labels) {
  return registerDef(*Impl, MetricKind::Gauge, Name, Labels);
}

uint32_t MetricsRegistry::registerHistogram(const std::string &Name,
                                            const std::string &Labels) {
  return registerDef(*Impl, MetricKind::Histogram, Name, Labels);
}

void MetricsRegistry::counterAdd(uint32_t Id, uint64_t Delta) {
  Shard &S = acquireShard(*Impl);
  S.Slots[Impl->Defs[Id].SlotBase].fetch_add(Delta,
                                             std::memory_order_relaxed);
}

void MetricsRegistry::histogramRecord(uint32_t Id, uint64_t Sample) {
  Shard &S = acquireShard(*Impl);
  uint32_t Base = Impl->Defs[Id].SlotBase;
  S.Slots[Base + bucketIndex(Sample)].fetch_add(1, std::memory_order_relaxed);
  S.Slots[Base + MetricsHistogramBuckets].fetch_add(
      1, std::memory_order_relaxed);
  S.Slots[Base + MetricsHistogramBuckets + 1].fetch_add(
      Sample, std::memory_order_relaxed);
}

void MetricsRegistry::gaugeSet(uint32_t Id, int64_t Value) {
  GaugeCell &Cell = Impl->Gauges[Impl->Defs[Id].GaugeIndex];
  Cell.Value.store(Value, std::memory_order_relaxed);
  raisePeak(Cell.Peak, Value);
}

void MetricsRegistry::gaugeAdd(uint32_t Id, int64_t Delta) {
  GaugeCell &Cell = Impl->Gauges[Impl->Defs[Id].GaugeIndex];
  int64_t Now = Cell.Value.fetch_add(Delta, std::memory_order_relaxed) + Delta;
  raisePeak(Cell.Peak, Now);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Impl->Mutex);
  MetricsSnapshot Snap;
  Snap.Metrics.reserve(Impl->Defs.size());

  auto sumSlot = [&](uint32_t Slot) {
    uint64_t Total = 0;
    for (const auto &S : Impl->Shards)
      Total += S->Slots[Slot].load(std::memory_order_relaxed);
    return Total;
  };

  for (const MetricDef &Def : Impl->Defs) {
    MetricValue V;
    V.Name = Def.Name;
    V.Labels = Def.Labels;
    V.Kind = Def.Kind;
    switch (Def.Kind) {
    case MetricKind::Counter:
      V.Count = sumSlot(Def.SlotBase);
      break;
    case MetricKind::Gauge: {
      const GaugeCell &Cell = Impl->Gauges[Def.GaugeIndex];
      V.Value = Cell.Value.load(std::memory_order_relaxed);
      V.Peak = Cell.Peak.load(std::memory_order_relaxed);
      break;
    }
    case MetricKind::Histogram:
      V.Buckets.resize(MetricsHistogramBuckets);
      for (unsigned I = 0; I < MetricsHistogramBuckets; ++I)
        V.Buckets[I] = sumSlot(Def.SlotBase + I);
      V.Count = sumSlot(Def.SlotBase + MetricsHistogramBuckets);
      V.Sum = sumSlot(Def.SlotBase + MetricsHistogramBuckets + 1);
      break;
    }
    Snap.Metrics.push_back(std::move(V));
  }

  std::sort(Snap.Metrics.begin(), Snap.Metrics.end(),
            [](const MetricValue &A, const MetricValue &B) {
              if (A.Name != B.Name)
                return A.Name < B.Name;
              return A.Labels < B.Labels;
            });
  return Snap;
}

void MetricsRegistry::resetForTest() {
  std::lock_guard<std::mutex> Lock(Impl->Mutex);
  for (const auto &S : Impl->Shards)
    for (uint32_t I = 0; I < MaxShardSlots; ++I)
      S->Slots[I].store(0, std::memory_order_relaxed);
  for (GaugeCell &Cell : Impl->Gauges) {
    Cell.Value.store(0, std::memory_order_relaxed);
    Cell.Peak.store(0, std::memory_order_relaxed);
  }
}

size_t MetricsRegistry::debugShardCount() const {
  std::lock_guard<std::mutex> Lock(Impl->Mutex);
  return Impl->Shards.size();
}

//===----------------------------------------------------------------------===//
// Snapshot rendering
//===----------------------------------------------------------------------===//

std::string MetricValue::fullName() const {
  if (Labels.empty())
    return Name;
  return Name + "{" + Labels + "}";
}

const MetricValue *MetricsSnapshot::find(const std::string &FullName) const {
  for (const MetricValue &V : Metrics)
    if (V.fullName() == FullName)
      return &V;
  return nullptr;
}

std::string MetricsSnapshot::toPrometheusText() const {
  std::string Out;
  Out += "# tnums metrics exposition\n";
  Out += "# build_info " + buildInfoJson() + "\n";
  std::string LastTyped;

  auto typeLine = [&](const std::string &Name, const char *Type) {
    if (Name == LastTyped)
      return;
    LastTyped = Name;
    Out += "# TYPE " + Name + " " + Type + "\n";
  };
  auto series = [&](const std::string &Name, const std::string &Labels,
                    const std::string &Value) {
    Out += Name;
    if (!Labels.empty())
      Out += "{" + Labels + "}";
    Out += " " + Value + "\n";
  };

  for (const MetricValue &V : Metrics) {
    switch (V.Kind) {
    case MetricKind::Counter:
      typeLine(V.Name, "counter");
      series(V.Name, V.Labels, std::to_string(V.Count));
      break;
    case MetricKind::Gauge:
      typeLine(V.Name, "gauge");
      series(V.Name, V.Labels, std::to_string(V.Value));
      typeLine(V.Name + "_peak", "gauge");
      series(V.Name + "_peak", V.Labels, std::to_string(V.Peak));
      break;
    case MetricKind::Histogram: {
      typeLine(V.Name, "histogram");
      // Cumulative buckets up to the highest populated one, then +Inf.
      unsigned Highest = 0;
      for (unsigned I = 0; I < V.Buckets.size(); ++I)
        if (V.Buckets[I])
          Highest = I;
      uint64_t Cum = 0;
      for (unsigned I = 0; I <= Highest && I < 64; ++I) {
        Cum += V.Buckets[I];
        std::string Le = "le=\"" +
                         std::to_string(MetricsRegistry::bucketUpperBound(I)) +
                         "\"";
        std::string Labels = V.Labels.empty() ? Le : V.Labels + "," + Le;
        series(V.Name + "_bucket", Labels, std::to_string(Cum));
      }
      std::string Inf = "le=\"+Inf\"";
      std::string Labels = V.Labels.empty() ? Inf : V.Labels + "," + Inf;
      series(V.Name + "_bucket", Labels, std::to_string(V.Count));
      series(V.Name + "_sum", V.Labels, std::to_string(V.Sum));
      series(V.Name + "_count", V.Labels, std::to_string(V.Count));
      break;
    }
    }
  }
  return Out;
}

std::string MetricsSnapshot::toJson() const {
  std::string Counters, Gauges, Histograms;
  for (const MetricValue &V : Metrics) {
    std::string Key = "\"" + jsonEscape(V.fullName()) + "\":";
    switch (V.Kind) {
    case MetricKind::Counter:
      if (!Counters.empty())
        Counters += ",";
      Counters += Key + std::to_string(V.Count);
      break;
    case MetricKind::Gauge:
      if (!Gauges.empty())
        Gauges += ",";
      Gauges += Key + "{\"value\":" + std::to_string(V.Value) +
                ",\"peak\":" + std::to_string(V.Peak) + "}";
      break;
    case MetricKind::Histogram: {
      if (!Histograms.empty())
        Histograms += ",";
      unsigned Highest = 0;
      for (unsigned I = 0; I < V.Buckets.size(); ++I)
        if (V.Buckets[I])
          Highest = I;
      std::string Buckets;
      for (unsigned I = 0; I <= Highest; ++I) {
        if (!Buckets.empty())
          Buckets += ",";
        Buckets += std::to_string(V.Buckets[I]);
      }
      Histograms += Key + "{\"count\":" + std::to_string(V.Count) +
                    ",\"sum\":" + std::to_string(V.Sum) + ",\"buckets\":[" +
                    Buckets + "]}";
      break;
    }
    }
  }
  return "{\"counters\":{" + Counters + "},\"gauges\":{" + Gauges +
         "},\"histograms\":{" + Histograms + "}}";
}

//===----------------------------------------------------------------------===//
// Build identification
//===----------------------------------------------------------------------===//

std::string tnums::jsonEscape(const std::string &Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (unsigned char C : Raw) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += static_cast<char>(C);
    }
  }
  return Out;
}

const BuildInfo &tnums::buildInfo() {
  static const BuildInfo Info = [] {
    BuildInfo B;
#if defined(__clang__)
    B.Compiler = formatString("clang %d.%d.%d", __clang_major__,
                              __clang_minor__, __clang_patchlevel__);
#elif defined(__GNUC__)
    B.Compiler = formatString("gcc %d.%d.%d", __GNUC__, __GNUC_MINOR__,
                              __GNUC_PATCHLEVEL__);
#else
    B.Compiler = "unknown";
#endif
#if defined(NDEBUG)
    B.BuildType = "release";
#else
    B.BuildType = "debug";
#endif
    // Mirrors the dispatch predicate in src/bpf/Decoded.cpp.
#if defined(__GNUC__) || defined(__clang__)
    B.ComputedGoto = true;
#else
    B.ComputedGoto = false;
#endif
    return B;
  }();
  return Info;
}

std::string tnums::buildInfoJson() {
  const BuildInfo &B = buildInfo();
  return "{\"compiler\":\"" + jsonEscape(B.Compiler) + "\",\"build_type\":\"" +
         jsonEscape(B.BuildType) + "\",\"computed_goto\":" +
         (B.ComputedGoto ? "true" : "false") + "}";
}

std::string tnums::buildInfoString() {
  const BuildInfo &B = buildInfo();
  return B.Compiler + ", " + B.BuildType + ", computed-goto " +
         (B.ComputedGoto ? "yes" : "no");
}
