//===- perfbench/src/Bench.cpp - Tracer and result helpers ----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

size_t SpanBuffer::open(const char *Name) {
  int64_t Parent = Open.empty() ? -1 : static_cast<int64_t>(Open.back());
  Spans.push_back({Name, nowNs(), 0, Parent});
  Open.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void SpanBuffer::close(size_t Index) {
  Spans[Index].EndNs = nowNs();
  // Spans close in LIFO order (they are scoped), so Index is the top.
  Open.pop_back();
}

SpanBuffer *Tracer::newBuffer() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Buffers.push_back(
      std::make_unique<SpanBuffer>(static_cast<unsigned>(Buffers.size())));
  return Buffers.back().get();
}

std::map<std::string, uint64_t> Tracer::selfNsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, uint64_t> Self;
  for (const std::unique_ptr<SpanBuffer> &Buf : Buffers) {
    const std::vector<SpanRecord> &Spans = Buf->spans();
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    for (const SpanRecord &S : Spans)
      if (S.Parent >= 0)
        ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
    for (size_t I = 0; I != Spans.size(); ++I) {
      uint64_t Duration = Spans[I].EndNs - Spans[I].StartNs;
      std::string Name = Spans[I].Name;
      std::string Layer = Name.substr(0, Name.find('.'));
      Self[Layer] += Duration > ChildNs[I] ? Duration - ChildNs[I] : 0;
    }
  }
  return Self;
}

uint64_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Count = 0;
  for (const std::unique_ptr<SpanBuffer> &Buf : Buffers)
    Count += Buf->spans().size();
  return Count;
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  for (const std::unique_ptr<SpanBuffer> &Buf : Buffers) {
    const std::vector<SpanRecord> &Spans = Buf->spans();
    size_t Count = std::min<size_t>(Spans.size(), MaxWrittenSpans);
    for (size_t I = 0; I != Count; ++I)
      std::fprintf(Out,
                   "{\"thread\":%u,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%lld}\n",
                   Buf->thread(), tnums::jsonEscape(Spans[I].Name).c_str(),
                   static_cast<unsigned long long>(Spans[I].StartNs),
                   static_cast<unsigned long long>(Spans[I].EndNs),
                   static_cast<long long>(Spans[I].Parent));
  }
  return std::fclose(Out) == 0;
}

double perfbench::percentile(std::vector<uint64_t> &Samples, double Fraction) {
  if (Samples.empty())
    return 0;
  size_t Rank = std::min(
      static_cast<size_t>(Fraction * (Samples.size() - 1) + 0.5),
      Samples.size() - 1);
  std::nth_element(Samples.begin(), Samples.begin() + Rank, Samples.end());
  return static_cast<double>(Samples[Rank]);
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid] : (Values[Mid - 1] + Values[Mid]) / 2;
}

void LatencyLog::add(uint64_t Ns) {
  ++Total;
  if (Ns >= DenseNs) {
    Long.push_back(Ns);
    return;
  }
  if (Dense.empty())
    Dense.assign(DenseNs, 0);
  ++Dense[Ns];
}

void LatencyLog::merge(const LatencyLog &Other) {
  Total += Other.Total;
  Long.insert(Long.end(), Other.Long.begin(), Other.Long.end());
  if (Other.Dense.empty())
    return;
  if (Dense.empty())
    Dense.assign(DenseNs, 0);
  for (uint64_t Ns = 0; Ns != DenseNs; ++Ns)
    Dense[Ns] += Other.Dense[Ns];
}

double LatencyLog::percentile(double Fraction) const {
  if (!Total)
    return 0;
  uint64_t Rank = static_cast<uint64_t>(Fraction * (Total - 1) + 0.5);
  if (Rank >= Total)
    Rank = Total - 1;
  for (uint64_t Ns = 0; Ns != Dense.size(); ++Ns) {
    if (Rank < Dense[Ns])
      return static_cast<double>(Ns);
    Rank -= Dense[Ns];
  }
  std::sort(Long.begin(), Long.end());
  return static_cast<double>(Long[Rank]);
}

double perfbench::tailFraction(size_t Samples) {
  if (Samples <= 20)
    return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(Samples));
}

void SliceRecorder::add(uint64_t EndNs, uint64_t LatencyNs, double Work) {
  closeUntil(EndNs);
  if (EndNs >= WindowEnd)
    return;
  Open.push_back(LatencyNs);
  OpenWork += Work;
  OpenBusyNs += LatencyNs;
}

void SliceRecorder::closeUntil(uint64_t NowNs) {
  for (; SliceEnd <= std::min(NowNs, WindowEnd); SliceEnd += SliceNs) {
    SliceStats Slice;
    Slice.Work = OpenWork;
    Slice.Seconds = static_cast<double>(OpenBusyNs) / 1e9;
    Slice.P50Ns = percentile(Open, 0.5);
    Closed.push_back(Slice);
    Open.clear();
    OpenWork = 0;
    OpenBusyNs = 0;
  }
}

void RunResult::fail(uint64_t Operations, const std::string &Why) {
  Failed += Operations;
  if (Errors.size() < 8)
    Errors.push_back(Why);
}

std::string perfbench::hex64(uint64_t Value) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Value));
  return Buf;
}

uint64_t perfbench::fnvMix(uint64_t Hash, uint64_t Value) {
  for (unsigned Byte = 0; Byte != 8; ++Byte) {
    Hash ^= (Value >> (8 * Byte)) & 0xFF;
    Hash *= 1099511628211ull;
  }
  return Hash;
}
