//===- service/VerdictCache.cpp - Persistent cross-run verdict cache ------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "service/VerdictCache.h"

#include "bpf/Analyzer.h"
#include "service/WireProtocol.h"
#include "support/Checkpoint.h"
#include "support/Record.h"
#include "support/Table.h"
#include "verify/Oracle.h"

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <string_view>
#include <vector>

#include <unistd.h>

using namespace tnums;
using namespace tnums::service;

namespace fs = std::filesystem;

namespace {

constexpr const char *ManifestName = "verdicts.manifest";
constexpr const char *ManifestText = "tnums-verdict-cache v1\n";
constexpr const char *EntryMagic = "tnums-verdict-entry v1";

/// The cache key of a request's canonical bytes (verdictCacheKey).
uint64_t canonicalKey(const std::string &Canonical) {
  Fnv1a Hash;
  Hash.mixString(Canonical);
  return Hash.digest();
}

/// The file name entryPath gives the entry of \p Key.
std::string entryName(uint64_t Key) {
  return formatString("verdict-%016" PRIx64 ".vkt", Key);
}

/// An entry file: the version fingerprint, the key of the canonical
/// request bytes, and the hex of a body that holds the length-prefixed
/// canonical bytes and the wire verdict (so an entry parses only if its
/// verdict round-trips the protocol). lookup() accepts a file only if this
/// reproduces it from the fingerprint and body it parsed.
std::string entryText(uint64_t VersionFp, const std::string &Canonical,
                      const VerifyResult &Result) {
  const uint32_t Len = static_cast<uint32_t>(Canonical.size());
  std::string Body;
  for (unsigned Byte = 0; Byte != 4; ++Byte)
    Body.push_back(static_cast<char>(Len >> (8 * Byte)));
  Body += Canonical;
  Body += encodeVerdict(resultToVerdict(Result, /*CacheHit=*/false));
  return formatString("%s\nversionfp %016" PRIx64 "\nkey %016" PRIx64
                      "\npayload ",
                      EntryMagic, VersionFp, canonicalKey(Canonical)) +
         hexEncode(Body) + "\n";
}

/// Splits an entry body (see entryText) into its canonical bytes and
/// verdict.
bool decodeEntryBody(const std::string &Body, std::string &Canonical,
                     VerifyResult &Result) {
  if (Body.size() < 4)
    return false;
  uint32_t Len = 0;
  for (unsigned Byte = 0; Byte != 4; ++Byte)
    Len |= static_cast<uint32_t>(static_cast<unsigned char>(Body[Byte]))
           << (8 * Byte);
  if (Body.size() - 4 < Len)
    return false;
  Canonical = Body.substr(4, Len);
  std::string Error;
  std::optional<VerdictMsg> Msg =
      decodeVerdict(Body.substr(4 + Len), Error);
  if (!Msg)
    return false;
  Result = verdictToResult(*Msg);
  return true;
}

} // namespace

uint64_t tnums::service::analyzerVerdictFingerprint() {
  Fnv1a Hash;
  Hash.mixString("tnums-verdict-version");
  Hash.mixString(bpf::analyzerVersionTag());
  // Every transfer function the reduced product can dispatch, in enum
  // order; MulAlgorithm::Our is the one the analyzer runs.
  for (BinaryOp Op : AllBinaryOps)
    Hash.mixU64(opFingerprint(Op, MulAlgorithm::Our));
  return Hash.digest();
}

uint64_t tnums::service::verdictCacheKey(const VerifyRequest &Request) {
  return canonicalKey(encodeRequestCanonical(Request));
}

std::string VerdictCache::entryPath(uint64_t Key) const {
  return Dir + "/" + entryName(Key);
}

std::unique_ptr<VerdictCache> VerdictCache::open(const std::string &Dir,
                                                 std::string &Error) {
  return open(Dir, analyzerVerdictFingerprint(), Error);
}

std::unique_ptr<VerdictCache>
VerdictCache::open(const std::string &Dir, uint64_t VersionFingerprint,
                   std::string &Error) {
  return open(Dir, VersionFingerprint, VerdictCacheLimits(), Error);
}

std::unique_ptr<VerdictCache>
VerdictCache::open(const std::string &Dir, uint64_t VersionFingerprint,
                   const VerdictCacheLimits &Limits, std::string &Error) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec) {
    Error = formatString("cannot create verdict cache directory %s: %s",
                         Dir.c_str(), Ec.message().c_str());
    return nullptr;
  }
  sweepOrphanedTempFiles(Dir);
  std::string ManifestPath = Dir + "/" + ManifestName;
  if (std::optional<std::string> Existing = readWholeFile(ManifestPath)) {
    if (*Existing != ManifestText) {
      Error = formatString("%s is not a tnums verdict cache",
                           ManifestPath.c_str());
      return nullptr;
    }
    // Note: deliberately no fingerprint in the manifest. Entries carry
    // their own, so a version bump invalidates exactly the stale entries
    // lazily instead of refusing (or wiping) the whole store.
  } else if (!writeFileDurable(ManifestPath, ManifestText, Error)) {
    return nullptr;
  }
  std::unique_ptr<VerdictCache> Cache(
      new VerdictCache(Dir, VersionFingerprint, Limits));
  Cache->loadDiskIndex();
  return Cache;
}

void VerdictCache::loadDiskIndex() {
  // Scan whatever a previous process (possibly uncapped, possibly a
  // different cap) left behind. Recency is unknowable across restarts, so
  // file mtime stands in for it: the sweep below evicts oldest-first,
  // with the file name as a deterministic tie-break.
  struct Found {
    uint64_t Key;
    uint64_t Bytes;
    fs::file_time_type MTime;
    std::string Name;
  };
  std::vector<Found> Entries;
  std::error_code Ec;
  for (const fs::directory_entry &Ent : fs::directory_iterator(Dir, Ec)) {
    std::string Name = Ent.path().filename().string();
    // Exactly the name entryPath() writes: eviction unlinks that name.
    // Anything else in the directory (the manifest, foreign files) is not
    // the cache's to manage.
    if (!Name.starts_with("verdict-"))
      continue;
    std::optional<uint64_t> Key =
        parseNumber<uint64_t>(std::string_view(Name).substr(8, 16), 16);
    if (!Key || entryName(*Key) != Name)
      continue;
    std::error_code SizeEc, TimeEc;
    uint64_t Bytes = Ent.file_size(SizeEc);
    fs::file_time_type MTime = Ent.last_write_time(TimeEc);
    if (SizeEc || TimeEc)
      continue;
    Entries.push_back({*Key, Bytes, MTime, std::move(Name)});
  }
  std::sort(Entries.begin(), Entries.end(),
            [](const Found &A, const Found &B) {
              return A.MTime != B.MTime ? A.MTime < B.MTime : A.Name < B.Name;
            });
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Found &E : Entries)
    indexDiskEntryLocked(E.Key, E.Bytes); // Appends: oldest lands in front.
  evictOverCapLocked();
}

void VerdictCache::indexDiskEntryLocked(uint64_t Key, uint64_t Bytes) {
  auto It = Disk.find(Key);
  if (It != Disk.end()) {
    DiskBytes -= It->second.Bytes;
    DiskBytes += Bytes;
    It->second.Bytes = Bytes;
    Lru.splice(Lru.end(), Lru, It->second.LruPos);
    return;
  }
  Lru.push_back(Key);
  Disk.emplace(Key, DiskEntry{Bytes, std::prev(Lru.end())});
  DiskBytes += Bytes;
}

void VerdictCache::touchDiskEntryLocked(uint64_t Key) {
  auto It = Disk.find(Key);
  if (It != Disk.end())
    Lru.splice(Lru.end(), Lru, It->second.LruPos);
}

void VerdictCache::forgetDiskEntryLocked(uint64_t Key) {
  auto It = Disk.find(Key);
  if (It == Disk.end())
    return;
  DiskBytes -= It->second.Bytes;
  Lru.erase(It->second.LruPos);
  Disk.erase(It);
}

void VerdictCache::evictOverCapLocked() {
  while (!Lru.empty() &&
         ((Limits.MaxEntries && Lru.size() > Limits.MaxEntries) ||
          (Limits.MaxBytes && DiskBytes > Limits.MaxBytes))) {
    // The caps are hard bounds: the least-recently-used entry goes even
    // if it is the one just stored (a single entry above MaxBytes).
    uint64_t Victim = Lru.front();
    ::unlink(entryPath(Victim).c_str());
    Memory.erase(Victim);
    forgetDiskEntryLocked(Victim);
    ++Stats.Evictions;
  }
}

std::optional<VerifyResult>
VerdictCache::lookup(const VerifyRequest &Request) {
  std::string Canonical = encodeRequestCanonical(Request);
  uint64_t Key = verdictCacheKey(Request);

  std::lock_guard<std::mutex> Lock(Mutex);
  ++Stats.Lookups;

  auto It = Memory.find(Key);
  if (It != Memory.end()) {
    if (It->second.Canonical == Canonical) {
      ++Stats.MemoryHits;
      touchDiskEntryLocked(Key); // A hit is a use: protect from eviction.
      return It->second.Result;
    }
    ++Stats.Misses; // Key collision: a different request owns the slot.
    return std::nullopt;
  }

  std::string Path = entryPath(Key);
  std::optional<std::string> Contents = readWholeFile(Path);
  if (!Contents) {
    ++Stats.Misses;
    forgetDiskEntryLocked(Key); // Vanished externally; stop tracking it.
    return std::nullopt;
  }
  const uint64_t EntryBytes = Contents->size();

  // Anything entryText would not write back byte for byte is poison
  // (a torn tail, a respelled field, a stray CacheHit byte): refuse and
  // GC it. The magic and key lines are left to that round trip.
  auto Poisoned = [&]() -> std::optional<VerifyResult> {
    ++Stats.PoisonedRejected;
    ::unlink(Path.c_str());
    forgetDiskEntryLocked(Key);
    return std::nullopt;
  };
  std::string_view Text = *Contents;
  takeLine(Text);
  uint64_t EntryFp = 0;
  const bool HaveFp = takeNumber(Text, EntryFp, 16);
  takeLine(Text);
  std::optional<std::string> Body = hexDecode(takeField(Text));
  std::string EntryCanonical;
  VerifyResult Result;
  if (!HaveFp || !Body || !decodeEntryBody(*Body, EntryCanonical, Result) ||
      entryText(EntryFp, EntryCanonical, Result) != *Contents ||
      canonicalKey(EntryCanonical) != Key)
    return Poisoned();

  if (EntryFp != VersionFp) {
    // A verdict of an older analyzer/tnum-op version: stale, exactly like
    // a campaign cell whose operator fingerprint moved. GC and re-verify.
    ++Stats.StaleInvalidated;
    ++Stats.Misses;
    ::unlink(Path.c_str());
    forgetDiskEntryLocked(Key); // GC'd, not evicted: no Evictions count.
    return std::nullopt;
  }
  if (EntryCanonical != Canonical) {
    ++Stats.Misses; // Key collision on disk: not this request's verdict.
    return std::nullopt;
  }

  ++Stats.DiskHits;
  indexDiskEntryLocked(Key, EntryBytes);
  Memory.emplace(Key, MemEntry{std::move(Canonical), Result});
  return Result;
}

bool VerdictCache::store(const VerifyRequest &Request,
                         const VerifyResult &Result, std::string &Error) {
  std::string Canonical = encodeRequestCanonical(Request);
  uint64_t Key = verdictCacheKey(Request);

  // Persist only the wire verdict fields; KeepStates tables are
  // per-batch debugging aids, not verdicts.
  VerifyResult Slim = Result;
  Slim.InStates.clear();

  std::string Contents = entryText(VersionFp, Canonical, Slim);

  std::lock_guard<std::mutex> Lock(Mutex);
  ++Stats.Stores;
  Memory[Key] = MemEntry{std::move(Canonical), std::move(Slim)};
  if (!writeFileDurable(entryPath(Key), Contents, Error))
    return false; // In-memory entry stays; nothing on disk to track.
  indexDiskEntryLocked(Key, Contents.size());
  evictOverCapLocked(); // The insert may have pushed the cache over a cap.
  return true;
}

VerdictCacheStats VerdictCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}
