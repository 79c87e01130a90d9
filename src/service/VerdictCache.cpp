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
#include "support/Table.h"
#include "verify/Oracle.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <vector>

#include <unistd.h>

using namespace tnums;
using namespace tnums::service;

namespace fs = std::filesystem;

namespace {

constexpr const char *ManifestName = "verdicts.manifest";
constexpr const char *ManifestMagic = "tnums-verdict-cache v1";
constexpr const char *EntryMagic = "tnums-verdict-entry v1";

std::optional<std::string> readFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return std::nullopt;
  std::string Contents;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) != 0)
    Contents.append(Buf, N);
  std::fclose(File);
  return Contents;
}

std::string takeLine(std::string &Text) {
  size_t Eol = Text.find('\n');
  std::string Line = Text.substr(0, Eol);
  Text.erase(0, Eol == std::string::npos ? Text.size() : Eol + 1);
  return Line;
}

/// The value of the hex digit \p C, or -1. Lower case only: that is what
/// every writer here emits.
int hexNibble(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  return -1;
}

/// Parses exactly 16 lower-case hex digits, as store() and entryPath()
/// write a 64-bit word. No sign, prefix, space or padding.
std::optional<uint64_t> parseHex64(std::string_view Digits) {
  if (Digits.size() != 16)
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : Digits) {
    int Digit = hexNibble(C);
    if (Digit < 0)
      return std::nullopt;
    Value = Value << 4 | static_cast<uint64_t>(Digit);
  }
  return Value;
}

/// Parses "<key> <hex64>" exactly as store() writes it: the key, one
/// space, 16 lower-case hex digits.
std::optional<uint64_t> parseKeyedHex64(const std::string &Line,
                                        const char *Key) {
  size_t KeyLen = std::strlen(Key);
  if (Line.size() != KeyLen + 17 || Line.compare(0, KeyLen, Key) != 0 ||
      Line[KeyLen] != ' ')
    return std::nullopt;
  return parseHex64(std::string_view(Line).substr(KeyLen + 1));
}

std::string hexEncode(const std::string &Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(Bytes.size() * 2);
  for (unsigned char C : Bytes) {
    Out.push_back(Digits[C >> 4]);
    Out.push_back(Digits[C & 0xF]);
  }
  return Out;
}

std::optional<std::string> hexDecode(const std::string &Text) {
  if (Text.size() % 2 != 0)
    return std::nullopt;
  std::string Out;
  Out.reserve(Text.size() / 2);
  for (size_t I = 0; I != Text.size(); I += 2) {
    int Hi = hexNibble(Text[I]), Lo = hexNibble(Text[I + 1]);
    if (Hi < 0 || Lo < 0)
      return std::nullopt;
    Out.push_back(static_cast<char>((Hi << 4) | Lo));
  }
  return Out;
}

/// The binary body of one entry: length-prefixed canonical request bytes
/// followed by the wire verdict payload. Reuses the protocol codec so an
/// entry is parseable iff its verdict round-trips the wire format.
std::string encodeEntryBody(const std::string &Canonical,
                            const VerifyResult &Result) {
  std::string Body;
  uint32_t Len = static_cast<uint32_t>(Canonical.size());
  for (unsigned Byte = 0; Byte != 4; ++Byte)
    Body.push_back(static_cast<char>(Len >> (8 * Byte)));
  Body.append(Canonical);
  Body.append(encodeVerdict(resultToVerdict(Result, /*CacheHit=*/false)));
  return Body;
}

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
  Fnv1a Hash;
  Hash.mixString(encodeRequestCanonical(Request));
  return Hash.digest();
}

std::string VerdictCache::entryPath(uint64_t Key) const {
  return formatString("%s/verdict-%016" PRIx64 ".vkt", Dir.c_str(), Key);
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
  if (std::optional<std::string> Existing = readFile(ManifestPath)) {
    std::string Text = *Existing;
    if (takeLine(Text) != ManifestMagic) {
      Error = formatString("%s is not a tnums verdict cache",
                           ManifestPath.c_str());
      return nullptr;
    }
    // Note: deliberately no fingerprint in the manifest. Entries carry
    // their own, so a version bump invalidates exactly the stale entries
    // lazily instead of refusing (or wiping) the whole store.
  } else if (!writeFileDurable(ManifestPath,
                               std::string(ManifestMagic) + "\n", Error)) {
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
    // Exactly "verdict-<16 lower-case hex>.vkt", as entryPath() writes it:
    // eviction unlinks that canonical name. Anything else in the directory
    // (the manifest, foreign files) is not the cache's to manage.
    if (Name.size() != 28 || Name.compare(0, 8, "verdict-") != 0 ||
        Name.compare(24, 4, ".vkt") != 0)
      continue;
    std::optional<uint64_t> Key =
        parseHex64(std::string_view(Name).substr(8, 16));
    if (!Key)
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
  std::optional<std::string> Contents = readFile(Path);
  if (!Contents) {
    ++Stats.Misses;
    forgetDiskEntryLocked(Key); // Vanished externally; stop tracking it.
    return std::nullopt;
  }
  const uint64_t EntryBytes = Contents->size();

  // Parse strictly; anything unexpected is poison -- refuse and GC.
  auto Poisoned = [&]() -> std::optional<VerifyResult> {
    ++Stats.PoisonedRejected;
    ::unlink(Path.c_str());
    forgetDiskEntryLocked(Key);
    return std::nullopt;
  };
  std::string Text = std::move(*Contents);
  // A complete entry always ends in a newline; a torn tail never does.
  if (Text.empty() || Text.back() != '\n')
    return Poisoned();
  if (takeLine(Text) != EntryMagic)
    return Poisoned();
  std::optional<uint64_t> EntryFp =
      parseKeyedHex64(takeLine(Text), "versionfp");
  std::optional<uint64_t> EntryKey = parseKeyedHex64(takeLine(Text), "key");
  if (!EntryFp || !EntryKey || *EntryKey != Key)
    return Poisoned();
  std::string PayloadLine = takeLine(Text);
  if (PayloadLine.compare(0, 8, "payload ") != 0 || !Text.empty())
    return Poisoned();
  std::optional<std::string> Body = hexDecode(PayloadLine.substr(8));
  std::string EntryCanonical;
  VerifyResult Result;
  if (!Body || !decodeEntryBody(*Body, EntryCanonical, Result))
    return Poisoned();

  if (*EntryFp != VersionFp) {
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

  std::string Contents = formatString(
      "%s\nversionfp %016" PRIx64 "\nkey %016" PRIx64 "\npayload ",
      EntryMagic, VersionFp, Key);
  Contents += hexEncode(encodeEntryBody(Canonical, Slim));
  Contents += "\n";

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
