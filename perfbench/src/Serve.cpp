//===- perfbench/src/Serve.cpp - Daemon rungs -----------------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon rungs every traced run takes: an in-process tnumsd (2
/// workers) with a durable VerdictCache in a fresh directory, driven by two
/// closed-loop clients. Each client submits the same seeded `mixed` stream
/// in its own shuffled order, over and over, waiting for each verdict
/// before sending the next request. The first sighting of a program is a
/// miss (analysis plus durable store); every later one is a cache hit. The
/// stream is short on purpose: every stored entry must be unlinked when the
/// run ends, and on a discard-mounted disk an unlink of an fsynced file
/// costs tens of milliseconds.
///
/// Every verdict is checked against the in-process VerificationService on
/// the same stream (the daemon-equals-in-process identity). The wire codec
/// and the cache lookup and store are then timed on their own.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/Daemon.h"
#include "service/DaemonClient.h"
#include "service/ProgramGen.h"
#include "service/VerdictCache.h"
#include "service/VerificationService.h"
#include "service/WireProtocol.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include <unistd.h>

namespace fs = std::filesystem;
using namespace perfbench;
using namespace tnums;
using namespace tnums::service;

namespace {

constexpr unsigned NumClients = 2;
constexpr unsigned DaemonWorkers = 2;
/// Closed-loop callers multiplexed on each client connection: a caller
/// sends its next request only after its previous verdict arrived.
constexpr unsigned CallersPerClient = 2;
/// Fresh keys stored by the cache probe (each one is a file the run must
/// unlink again).
constexpr unsigned CacheProbePrograms = 32;
/// Minimum duration of the wire codec loop.
constexpr uint64_t CodecLoopNs = 100'000'000;

/// Distinguishes the socket and cache directory of every daemon this
/// process starts.
std::atomic<unsigned> NextInstance{0};

/// Client-specific deterministic shuffle (SplitMix64 Fisher-Yates).
std::vector<uint32_t> shuffledOrder(size_t Count, uint64_t Seed) {
  std::vector<uint32_t> Order(Count);
  for (size_t Index = 0; Index != Count; ++Index)
    Order[Index] = static_cast<uint32_t>(Index);
  uint64_t State = Seed;
  auto Next = [&State] {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  };
  for (size_t Index = Count; Index > 1; --Index)
    std::swap(Order[Index - 1], Order[Next() % Index]);
  return Order;
}

/// Digest of a verdict's wire bytes with the cache-hit flag cleared, so
/// hits and misses of one program compare equal.
uint64_t verdictDigest(VerdictMsg Verdict) {
  Verdict.CacheHit = false;
  uint64_t Hash = FnvBasis;
  for (char Byte : encodeVerdict(Verdict))
    Hash = fnvMix(Hash, static_cast<uint8_t>(Byte));
  return Hash;
}

/// What one client thread saw.
struct ClientLog {
  LatencyLog Hits;
  LatencyLog Misses;
  uint64_t Wrong = 0; ///< Verdicts that differ from the expected answer.
  std::string FirstWrong;
  std::string Error;
};

double meanUs(uint64_t Ns, uint64_t Count) {
  return Count ? static_cast<double>(Ns) / 1e3 / static_cast<double>(Count)
               : 0.0;
}

/// One daemon with its clients, socket and cache directory. tearDown()
/// (also run by the destructor) removes the socket and the directory on
/// every exit path.
class DaemonSession {
public:
  DaemonSession(const Context &CtxV, unsigned ProgramsV)
      : Ctx(CtxV), Programs(ProgramsV) {}
  ~DaemonSession() { tearDown(); }
  DaemonSession(const DaemonSession &) = delete;
  DaemonSession &operator=(const DaemonSession &) = delete;

  void setUp();
  void tearDown();
  RunResult measure(double Seconds, Tracer &Trace);

private:
  void runClient(unsigned Client, uint64_t DeadlineNs,
                 const std::vector<uint64_t> &Expected, SpanBuffer *Buf,
                 ClientLog &Log);
  void addLayerMetrics(const std::vector<ClientLog> &Logs,
                       const DaemonStats &Before, const DaemonStats &After,
                       const BatchResult &Reference, Tracer &Trace,
                       RunResult &Out);

  Context Ctx;
  unsigned Programs;
  std::vector<VerifyRequest> Stream;
  std::string Dir;
  std::string SocketPath;
  std::optional<Daemon> Server;
  std::string LoopError;
  std::vector<DaemonClient> Clients;
  std::thread Loop; ///< Runs Server; declared after what it uses.
};

void DaemonSession::setUp() {
  tearDown();
  unsigned Instance = NextInstance++;
  std::string Stem = Ctx.WorkDir + "/serve-" + std::to_string(getpid()) +
                     "-" + std::to_string(Instance);
  Dir = Stem;
  SocketPath = Stem + ".sock";
  fs::create_directories(Dir);

  GenOptions Gen;
  Gen.Profile = GenProfile::Mixed;
  ProgramGen Generator(Ctx.Seed, Gen);
  Stream.clear();
  Stream.reserve(Programs);
  for (unsigned Index = 0; Index != Programs; ++Index) {
    VerifyRequest Request;
    Request.Prog = Generator.next();
    Request.MemSize = Gen.MemSize;
    Stream.push_back(std::move(Request));
  }

  DaemonConfig Config;
  Config.SocketPath = SocketPath;
  Config.NumThreads = DaemonWorkers;
  Config.CacheDir = Dir + "/cache";
  Config.EnableMetrics = false;
  std::string Error;
  Server = Daemon::create(Config, Error);
  if (!Server)
    throw std::runtime_error("daemon: " + Error);
  Loop = std::thread([this] { Server->run(LoopError); });
  for (unsigned Client = 0; Client != NumClients; ++Client) {
    std::optional<DaemonClient> Conn = DaemonClient::connectUnixSocket(
        SocketPath, "client" + std::to_string(Client), /*TimeoutMs=*/5000,
        Error);
    // One round trip through the event loop that leaves the cache alone.
    StatsReplyMsg Stats;
    if (!Conn || !Conn->queryStats(Stats, Error))
      throw std::runtime_error("connect: " + Error);
    Clients.push_back(std::move(*Conn));
  }
}

void DaemonSession::tearDown() {
  Clients.clear();
  if (Server) {
    Server->requestStop();
    if (Loop.joinable())
      Loop.join();
    Server.reset();
    // A failed event loop also fails every client call, which the
    // measurement counts; this only names the cause.
    if (!LoopError.empty())
      std::fprintf(stderr, "daemon loop: %s\n", LoopError.c_str());
    LoopError.clear();
  }
  std::error_code Ignored;
  if (!Dir.empty())
    fs::remove_all(Dir, Ignored);
  if (!SocketPath.empty())
    fs::remove(SocketPath, Ignored);
  Dir.clear();
  SocketPath.clear();
}

void DaemonSession::runClient(unsigned Client, uint64_t DeadlineNs,
                              const std::vector<uint64_t> &Expected,
                              SpanBuffer *Buf, ClientLog &Log) {
  Span Root(Buf, "bench.serve.client");
  std::vector<uint32_t> Order =
      shuffledOrder(Stream.size(), Ctx.Seed ^ (0xC11E47ull + Client));
  DaemonClient &Conn = Clients[Client];
  struct Pending {
    uint64_t Id;
    uint32_t Index;
    uint64_t StartNs;
  };
  std::vector<Pending> InFlight;
  auto Send = [&](uint32_t Index, uint64_t StartNs) {
    Span Call(Buf, "service.DaemonClient.submitAsync");
    uint64_t Id = 0;
    if (!Conn.submitAsync(Stream[Index], /*Priority=*/0, Id, Log.Error))
      return false;
    InFlight.push_back({Id, Index, StartNs});
    return true;
  };
  size_t Position = 0;
  for (unsigned Caller = 0; Caller != CallersPerClient; ++Caller)
    if (!Send(Order[Position++ % Order.size()], nowNs()))
      return;
  while (!InFlight.empty()) {
    ClientReply Reply;
    {
      Span Call(Buf, "service.DaemonClient.readReply");
      if (!Conn.readReply(Reply, Log.Error))
        return;
    }
    uint64_t End = nowNs();
    auto It = std::find_if(InFlight.begin(), InFlight.end(),
                           [&](const Pending &P) {
                             return P.Id == Reply.RequestId;
                           });
    if (It == InFlight.end()) {
      Log.Error = "reply to an unknown request";
      return;
    }
    Pending Done = *It;
    InFlight.erase(It);
    if (Reply.Type == MsgType::Busy) {
      // Backpressure: the caller retries, and its latency keeps counting.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (!Send(Done.Index, Done.StartNs))
        return;
      continue;
    }
    if (Reply.Type != MsgType::Verdict) {
      Log.Error = "unexpected reply: " + Reply.Err.Message;
      return;
    }
    const VerdictMsg &Verdict = Reply.Verdict;
    (Verdict.CacheHit ? Log.Hits : Log.Misses).add(End - Done.StartNs);
    if (verdictDigest(Verdict) != Expected[Done.Index] && !Log.Wrong++)
      Log.FirstWrong = "program " + std::to_string(Done.Index);
    if (End < DeadlineNs && !Send(Order[Position++ % Order.size()], End))
      return;
  }
}

RunResult DaemonSession::measure(double Seconds, Tracer &Trace) {
  RunResult Out;
  // The in-process engine on the same stream is the expected answer for
  // every verdict any client receives.
  ServiceConfig ReferenceConfig;
  ReferenceConfig.NumThreads = 1;
  BatchResult Reference =
      VerificationService(ReferenceConfig).verifyBatch(Stream);
  std::vector<uint64_t> Expected;
  for (const VerifyResult &Result : Reference.Results)
    Expected.push_back(verdictDigest(resultToVerdict(Result, false)));

  DaemonStats Before = Server->stats();
  std::vector<ClientLog> Logs(NumClients);
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  {
    std::vector<std::thread> Threads;
    for (unsigned Client = 0; Client != NumClients; ++Client) {
      SpanBuffer *Buf = Trace.newBuffer();
      Threads.emplace_back([this, Client, Deadline, Buf, &Expected, &Logs] {
        runClient(Client, Deadline, Expected, Buf, Logs[Client]);
      });
    }
    for (std::thread &Thread : Threads)
      Thread.join();
  }
  DaemonStats After = Server->stats();

  for (unsigned Client = 0; Client != NumClients; ++Client) {
    const ClientLog &Log = Logs[Client];
    Out.Attempted += Log.Hits.count() + Log.Misses.count();
    if (Log.Wrong)
      Out.fail(Log.Wrong, "client " + std::to_string(Client) + ": " +
                              std::to_string(Log.Wrong) +
                              " verdicts differ from the in-process engine, "
                              "first for " + Log.FirstWrong);
    if (!Log.Error.empty()) {
      ++Out.Attempted;
      Out.fail(1, "client " + std::to_string(Client) + ": " + Log.Error);
    }
  }
  addLayerMetrics(Logs, Before, After, Reference, Trace, Out);
  return Out;
}

void DaemonSession::addLayerMetrics(const std::vector<ClientLog> &Logs,
                                    const DaemonStats &Before,
                                    const DaemonStats &After,
                                    const BatchResult &Reference,
                                    Tracer &Trace, RunResult &Out) {
  MetricMap &M = Out.Layer;
  LatencyLog Hits, Misses;
  for (const ClientLog &Log : Logs) {
    Hits.merge(Log.Hits);
    Misses.merge(Log.Misses);
  }
  double Total = static_cast<double>(Hits.count() + Misses.count());
  M["service.daemon.hit_p50_ms"] = {Hits.percentile(0.50) / 1e6, "ms"};
  M["service.daemon.hit_p99_ms"] = {Hits.percentile(0.99) / 1e6, "ms"};
  M["service.daemon.miss_p50_ms"] = {Misses.percentile(0.50) / 1e6, "ms"};
  M["service.daemon.miss_p99_ms"] = {Misses.percentile(0.99) / 1e6, "ms"};
  M["service.daemon.hit_frac"] = {
      Total ? static_cast<double>(Hits.count()) / Total : 0, "frac"};
  uint64_t Submits = After.Submits - Before.Submits;
  uint64_t Busy = (After.BusyPool + After.BusyQuota) -
                  (Before.BusyPool + Before.BusyQuota);
  M["service.daemon.busy_frac"] = {
      Submits ? static_cast<double>(Busy) / static_cast<double>(Submits) : 0,
      "frac"};
  M["service.daemon.analyses"] = {
      static_cast<double>(After.Analyses - Before.Analyses), "count"};
  M["service.daemon.stores"] = {
      static_cast<double>(After.CacheStores - Before.CacheStores), "count"};

  SpanBuffer *Buf = Trace.newBuffer();
  Span Root(Buf, "bench.serve.layers");

  // Wire: both frames of one request, encoded and decoded.
  uint64_t CodecNs = 0, CodecRequests = 0;
  {
    Span Call(Buf, "service.wire.codec");
    uint64_t Start = nowNs();
    while (nowNs() - Start < CodecLoopNs)
      for (size_t I = 0; I != Stream.size(); ++I) {
        SubmitMsg Submit;
        Submit.Request = Stream[I];
        std::string SubmitFrame =
            encodeFrame(MsgType::Submit, I, encodeSubmit(Submit));
        std::string VerdictFrame =
            encodeFrame(MsgType::Verdict, I,
                        encodeVerdict(resultToVerdict(Reference.Results[I],
                                                      false)));
        for (const std::string *Bytes : {&SubmitFrame, &VerdictFrame}) {
          FrameDecoder Decoder;
          Decoder.feed(Bytes->data(), Bytes->size());
          Frame F;
          WireError Code;
          std::string Error;
          if (Decoder.next(F, Code, Error) != FrameDecoder::Status::Ready ||
              !(F.Type == MsgType::Submit ? decodeSubmit(F.Payload, Error)
                                                .has_value()
                                          : decodeVerdict(F.Payload, Error)
                                                .has_value()))
            Out.fail(1, "wire round trip failed: " + Error);
        }
        ++CodecRequests;
      }
    CodecNs = nowNs() - Start;
  }

  // Cache: miss lookups and durable stores of fresh keys, on the same
  // filesystem as the daemon's cache.
  uint64_t LookupNs = 0, StoreNs = 0, CacheOps = 0;
  {
    std::string Error;
    std::unique_ptr<VerdictCache> Probe =
        VerdictCache::open(Dir + "/probe", Error);
    if (!Probe) {
      Out.fail(1, "cache probe: " + Error);
    } else {
      std::vector<uint64_t> Seen;
      for (size_t I = 0; I != Stream.size() && CacheOps < CacheProbePrograms;
           ++I) {
        uint64_t Key = verdictCacheKey(Stream[I]);
        if (std::find(Seen.begin(), Seen.end(), Key) != Seen.end())
          continue;
        Seen.push_back(Key);
        uint64_t T0 = nowNs();
        bool Missed;
        {
          Span Call(Buf, "service.VerdictCache.lookup");
          Missed = !Probe->lookup(Stream[I]).has_value();
        }
        uint64_t T1 = nowNs();
        bool Stored;
        {
          Span Call(Buf, "service.VerdictCache.store");
          Stored = Probe->store(Stream[I], Reference.Results[I], Error);
        }
        uint64_t T2 = nowNs();
        if (!Missed || !Stored)
          Out.fail(1, "cache probe: unexpected hit or store error " + Error);
        LookupNs += T1 - T0;
        StoreNs += T2 - T1;
        ++CacheOps;
      }
    }
  }

  M["service.wire.codec_us"] = {meanUs(CodecNs, CodecRequests), "us"};
  M["service.cache.lookup_us"] = {meanUs(LookupNs, CacheOps), "us"};
  M["service.cache.store_us"] = {meanUs(StoreNs, CacheOps), "us"};
}

} // namespace

RunResult perfbench::daemonRungs(const Context &Ctx, unsigned StreamPrograms,
                                 double Seconds, Tracer &Trace) {
  DaemonSession Session(Ctx, StreamPrograms);
  Session.setUp();
  return Session.measure(Seconds, Trace);
}
