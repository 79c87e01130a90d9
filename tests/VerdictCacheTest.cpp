//===- tests/VerdictCacheTest.cpp - Persistent verdict cache tests --------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict cache's contract (service/VerdictCache.h): a stored
/// verdict is served back bit-identically across cache reopens (the
/// daemon-restart warm start) with zero re-analysis, counter-asserted; a
/// version-fingerprint bump invalidates EXACTLY the stale entries --
/// current-fingerprint entries keep hitting; and a truncated, bit-flipped,
/// or otherwise torn entry file is refused (miss + PoisonedRejected + GC),
/// never misread as a verdict. Key collisions degrade to misses via the
/// embedded canonical-request witness. Occupancy caps (VerdictCacheLimits)
/// evict least-recently-used entries on over-cap inserts and sweep a
/// pre-existing over-cap store at open() oldest-mtime-first, while the
/// retained entries keep warm-hitting byte-identically.
///
//===----------------------------------------------------------------------===//

#include "service/ProgramGen.h"
#include "service/VerdictCache.h"
#include "service/VerificationService.h"
#include "service/WireProtocol.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace tnums;
using namespace tnums::service;

namespace {

constexpr uint64_t MemSize = 32;

std::string makeCacheDir() {
  std::string Template = testing::TempDir() + "verdictsXXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  const char *Dir = mkdtemp(Buf.data());
  EXPECT_NE(Dir, nullptr);
  return std::string(Dir) + "/cache";
}

/// Generated requests, deduplicated by canonical encoding: the exact
/// counter asserts below need each request to own its cache key (the
/// generator legitimately repeats small programs now and then).
std::vector<VerifyRequest> makeRequests(uint64_t Seed, uint64_t Count) {
  GenOptions Opts;
  Opts.Profile = GenProfile::Mixed;
  Opts.MemSize = MemSize;
  ProgramGen Gen(Seed, Opts);
  std::vector<VerifyRequest> Requests;
  std::set<std::string> Seen;
  while (Requests.size() != Count) {
    VerifyRequest Request;
    Request.Prog = Gen.next();
    Request.MemSize = MemSize;
    if (Seen.insert(encodeRequestCanonical(Request)).second)
      Requests.push_back(std::move(Request));
  }
  return Requests;
}

std::string entryFile(const VerdictCache &Cache, const VerifyRequest &Request) {
  char Name[64];
  std::snprintf(Name, sizeof(Name), "/verdict-%016llx.vkt",
                static_cast<unsigned long long>(verdictCacheKey(Request)));
  return Cache.path() + Name;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

std::string slurp(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(File, nullptr) << Path;
  std::string Out;
  char Buf[4096];
  size_t N;
  while (File && (N = std::fread(Buf, 1, sizeof(Buf), File)) != 0)
    Out.append(Buf, N);
  if (File)
    std::fclose(File);
  return Out;
}

void spew(const std::string &Path, const std::string &Contents) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr) << Path;
  ASSERT_EQ(std::fwrite(Contents.data(), 1, Contents.size(), File),
            Contents.size());
  std::fclose(File);
}

bool sameVerdict(const VerifyResult &A, const VerifyResult &B) {
  if (A.Done != B.Done || A.Accepted != B.Accepted ||
      A.StructuralError != B.StructuralError ||
      A.InsnVisits != B.InsnVisits || A.Violations.size() != B.Violations.size())
    return false;
  for (size_t I = 0; I != A.Violations.size(); ++I)
    if (A.Violations[I].Pc != B.Violations[I].Pc ||
        A.Violations[I].Message != B.Violations[I].Message)
      return false;
  return true;
}

TEST(VerdictCache, ColdMissStoreThenMemoryHit) {
  std::string Dir = makeCacheDir();
  std::string Error;
  std::unique_ptr<VerdictCache> Cache = VerdictCache::open(Dir, Error);
  ASSERT_TRUE(Cache) << Error;

  VerifyRequest Request = makeRequests(3, 1).front();
  EXPECT_FALSE(Cache->lookup(Request));

  VerificationService Service;
  VerifyResult Result = Service.verifyOne(Request);
  ASSERT_TRUE(Cache->store(Request, Result, Error)) << Error;
  EXPECT_TRUE(fileExists(entryFile(*Cache, Request)));

  std::optional<VerifyResult> Hit = Cache->lookup(Request);
  ASSERT_TRUE(Hit);
  EXPECT_TRUE(sameVerdict(*Hit, Result));

  VerdictCacheStats Stats = Cache->stats();
  EXPECT_EQ(Stats.Lookups, 2u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.MemoryHits, 1u);
  EXPECT_EQ(Stats.DiskHits, 0u);
  EXPECT_EQ(Stats.Stores, 1u);
}

TEST(VerdictCache, WarmReopenServesEverythingZeroReanalysis) {
  std::string Dir = makeCacheDir();
  std::string Error;
  std::vector<VerifyRequest> Requests = makeRequests(17, 60);
  VerificationService Service;
  std::vector<VerifyResult> Results;
  {
    std::unique_ptr<VerdictCache> Cache = VerdictCache::open(Dir, Error);
    ASSERT_TRUE(Cache) << Error;
    for (const VerifyRequest &Request : Requests) {
      Results.push_back(Service.verifyOne(Request));
      ASSERT_TRUE(Cache->store(Request, Results.back(), Error)) << Error;
    }
  }

  // "Restart": a fresh cache instance over the same directory. Every
  // lookup must be a disk hit -- Misses stays 0, which is the
  // counter-asserted "zero re-analysis" guarantee a warm daemon start
  // relies on.
  std::unique_ptr<VerdictCache> Warm = VerdictCache::open(Dir, Error);
  ASSERT_TRUE(Warm) << Error;
  for (size_t I = 0; I != Requests.size(); ++I) {
    std::optional<VerifyResult> Hit = Warm->lookup(Requests[I]);
    ASSERT_TRUE(Hit) << "cold lookup " << I << " after reopen";
    EXPECT_TRUE(sameVerdict(*Hit, Results[I])) << "verdict " << I;
  }
  VerdictCacheStats Stats = Warm->stats();
  EXPECT_EQ(Stats.Misses, 0u);
  EXPECT_EQ(Stats.DiskHits, Requests.size());

  // Second pass is served from memory.
  for (const VerifyRequest &Request : Requests)
    EXPECT_TRUE(Warm->lookup(Request));
  EXPECT_EQ(Warm->stats().MemoryHits, Requests.size());
}

TEST(VerdictCache, VersionBumpInvalidatesExactlyTheStaleEntries) {
  std::string Dir = makeCacheDir();
  std::string Error;
  std::vector<VerifyRequest> Requests = makeRequests(23, 20);
  VerificationService Service;

  constexpr uint64_t OldVersion = 0x1111111111111111ull;
  constexpr uint64_t NewVersion = 0x2222222222222222ull;

  // First 10 entries written under the old fingerprint...
  {
    std::unique_ptr<VerdictCache> Cache =
        VerdictCache::open(Dir, OldVersion, Error);
    ASSERT_TRUE(Cache) << Error;
    for (size_t I = 0; I != 10; ++I)
      ASSERT_TRUE(
          Cache->store(Requests[I], Service.verifyOne(Requests[I]), Error));
  }
  // ...the rest under the new one.
  {
    std::unique_ptr<VerdictCache> Cache =
        VerdictCache::open(Dir, NewVersion, Error);
    ASSERT_TRUE(Cache) << Error;
    for (size_t I = 10; I != Requests.size(); ++I)
      ASSERT_TRUE(
          Cache->store(Requests[I], Service.verifyOne(Requests[I]), Error));
  }

  std::unique_ptr<VerdictCache> Cache =
      VerdictCache::open(Dir, NewVersion, Error);
  ASSERT_TRUE(Cache) << Error;

  // Stale entries: miss, counted, GC'd from disk.
  for (size_t I = 0; I != 10; ++I) {
    EXPECT_FALSE(Cache->lookup(Requests[I])) << "stale entry " << I;
    EXPECT_FALSE(fileExists(entryFile(*Cache, Requests[I])))
        << "stale entry " << I << " not GC'd";
  }
  // Current entries: untouched, still hitting. Invalidation was exact.
  for (size_t I = 10; I != Requests.size(); ++I) {
    EXPECT_TRUE(Cache->lookup(Requests[I])) << "current entry " << I;
    EXPECT_TRUE(fileExists(entryFile(*Cache, Requests[I])));
  }
  VerdictCacheStats Stats = Cache->stats();
  EXPECT_EQ(Stats.StaleInvalidated, 10u);
  EXPECT_EQ(Stats.DiskHits, 10u);
  EXPECT_EQ(Stats.PoisonedRejected, 0u);

  // The stale entries are gone for good: plain misses now.
  for (size_t I = 0; I != 10; ++I)
    EXPECT_FALSE(Cache->lookup(Requests[I]));
  EXPECT_EQ(Cache->stats().StaleInvalidated, 10u);
}

TEST(VerdictCache, TornAndPoisonedEntriesRefusedNeverMisread) {
  std::string Error;
  std::vector<VerifyRequest> Requests = makeRequests(31, 6);
  VerificationService Service;

  // Each corruption gets a fresh directory so counters are isolated. The
  // respelled kinds keep a header field's value but not the writer's
  // spelling of it (16 lower-case hex digits): strtoull would read each
  // back as the stored value.
  enum class Damage {
    TruncateHalf,
    TruncateOneByte,
    GarbageMagic,
    FlipHeader,
    SignedVersionFp,
    SignedKey,
    PlusSign,
    LeadingSpace,
    HexPrefix,
    CacheHitSet
  };
  for (Damage Kind :
       {Damage::TruncateHalf, Damage::TruncateOneByte, Damage::GarbageMagic,
        Damage::FlipHeader, Damage::SignedVersionFp, Damage::SignedKey,
        Damage::PlusSign, Damage::LeadingSpace, Damage::HexPrefix,
        Damage::CacheHitSet}) {
    std::string Dir = makeCacheDir();
    std::string Path;
    {
      std::unique_ptr<VerdictCache> Cache = VerdictCache::open(Dir, Error);
      ASSERT_TRUE(Cache) << Error;
      ASSERT_TRUE(Cache->store(Requests[0],
                               Service.verifyOne(Requests[0]), Error));
      Path = entryFile(*Cache, Requests[0]);
    }
    std::string Contents = slurp(Path);
    ASSERT_GT(Contents.size(), 8u);
    // Replaces the 16 digits of header field Name with Spell(digits).
    auto Respell = [&](const std::string &Name, auto Spell) {
      size_t At = Contents.find("\n" + Name + " ") + Name.size() + 2;
      Contents.replace(At, 16, Spell(Contents.substr(At, 16)));
      spew(Path, Contents);
    };
    // "-" and the two's complement: strtoull negates it back.
    auto Signed = [](const std::string &Digits) {
      uint64_t Value = std::stoull(Digits, nullptr, 16);
      char Text[32];
      std::snprintf(Text, sizeof(Text), "-%016llx",
                    static_cast<unsigned long long>(0 - Value));
      return std::string(Text);
    };
    switch (Kind) {
    case Damage::TruncateHalf: // A torn write that lost its tail.
      spew(Path, Contents.substr(0, Contents.size() / 2));
      break;
    case Damage::TruncateOneByte:
      spew(Path, Contents.substr(0, Contents.size() - 1));
      break;
    case Damage::GarbageMagic:
      spew(Path, "not a verdict entry\n" + Contents);
      break;
    case Damage::FlipHeader: // Bit flip inside the versionfp hex line.
      Contents[Contents.find("versionfp ") + 10] ^= 0x01;
      spew(Path, Contents);
      break;
    case Damage::SignedVersionFp:
      Respell("versionfp", Signed);
      break;
    case Damage::SignedKey:
      Respell("key", Signed);
      break;
    case Damage::PlusSign:
      Respell("versionfp", [](const std::string &D) { return "+" + D; });
      break;
    case Damage::LeadingSpace:
      Respell("key", [](const std::string &D) { return " " + D; });
      break;
    case Damage::HexPrefix:
      Respell("versionfp", [](const std::string &D) { return "0x" + D; });
      break;
    case Damage::CacheHitSet: {
      // The payload is the hex of a 4-byte little-endian length, the
      // canonical request and the wire verdict, whose second byte is
      // CacheHit. The writer always stores 0 there; a 1 still decodes.
      const size_t Hex = Contents.find("\npayload ") + 9;
      size_t Len = 0;
      for (unsigned Byte = 0; Byte != 4; ++Byte)
        Len |= std::stoul(Contents.substr(Hex + 2 * Byte, 2), nullptr, 16)
               << (8 * Byte);
      ASSERT_EQ(Contents.substr(Hex + 2 * (4 + Len + 1), 2), "00");
      Contents.replace(Hex + 2 * (4 + Len + 1), 2, "01");
      spew(Path, Contents);
      break;
    }
    }

    std::unique_ptr<VerdictCache> Reopened = VerdictCache::open(Dir, Error);
    ASSERT_TRUE(Reopened) << Error;
    std::optional<VerifyResult> Hit = Reopened->lookup(Requests[0]);
    VerdictCacheStats Stats = Reopened->stats();
    if (Kind == Damage::FlipHeader) {
      // A clean hex line with the wrong value parses as a stale entry --
      // still refused, just attributed to versioning.
      EXPECT_FALSE(Hit);
      EXPECT_EQ(Stats.StaleInvalidated + Stats.PoisonedRejected, 1u);
    } else {
      EXPECT_FALSE(Hit);
      EXPECT_EQ(Stats.PoisonedRejected, 1u) << "damage kind "
                                            << static_cast<int>(Kind);
    }
    // Refused entries are GC'd; the next lookup is a plain miss.
    EXPECT_FALSE(fileExists(Path));
    EXPECT_FALSE(Reopened->lookup(Requests[0]));
    EXPECT_EQ(Reopened->stats().PoisonedRejected, Stats.PoisonedRejected);
  }
}

TEST(VerdictCache, WrongKeyEntryRefusedAsPoison) {
  std::string Dir = makeCacheDir();
  std::string Error;
  std::vector<VerifyRequest> Requests = makeRequests(37, 2);
  VerificationService Service;
  std::unique_ptr<VerdictCache> Cache = VerdictCache::open(Dir, Error);
  ASSERT_TRUE(Cache) << Error;
  ASSERT_TRUE(Cache->store(Requests[0], Service.verifyOne(Requests[0]), Error));

  // Copy request 0's entry over request 1's slot: the embedded key no
  // longer matches the filename-derived key, so the entry is refused --
  // a collision or rename can never serve the wrong verdict.
  std::string Stolen = slurp(entryFile(*Cache, Requests[0]));
  spew(entryFile(*Cache, Requests[1]), Stolen);

  std::unique_ptr<VerdictCache> Reopened = VerdictCache::open(Dir, Error);
  ASSERT_TRUE(Reopened) << Error;
  EXPECT_FALSE(Reopened->lookup(Requests[1]));
  EXPECT_EQ(Reopened->stats().PoisonedRejected, 1u);
}

TEST(VerdictCache, RefusesForeignManifest) {
  // The manifest is exactly the one line open() writes: another tool's
  // file, trailing bytes and a missing final newline are all refused.
  for (const char *Manifest :
       {"some other tool's file\n", "tnums-verdict-cache v1\ntrailing\n",
        "tnums-verdict-cache v1\n\n", "tnums-verdict-cache v1"}) {
    SCOPED_TRACE(Manifest);
    std::string Dir = makeCacheDir();
    std::string Error;
    ASSERT_EQ(::mkdir(Dir.c_str(), 0755), 0);
    spew(Dir + "/verdicts.manifest", Manifest);
    EXPECT_FALSE(VerdictCache::open(Dir, Error));
    EXPECT_NE(Error.find("is not a tnums verdict cache"), std::string::npos)
        << Error;
  }
}

TEST(VerdictCache, StatesAreNeverPersisted) {
  std::string Dir = makeCacheDir();
  std::string Error;
  std::unique_ptr<VerdictCache> Cache = VerdictCache::open(Dir, Error);
  ASSERT_TRUE(Cache) << Error;

  VerifyRequest Request = makeRequests(41, 1).front();
  ServiceConfig Config;
  Config.KeepStates = true;
  VerifyResult Result = VerificationService(Config).verifyOne(Request);
  ASSERT_TRUE(Cache->store(Request, Result, Error)) << Error;

  std::unique_ptr<VerdictCache> Reopened = VerdictCache::open(Dir, Error);
  ASSERT_TRUE(Reopened) << Error;
  std::optional<VerifyResult> Hit = Reopened->lookup(Request);
  ASSERT_TRUE(Hit);
  EXPECT_TRUE(Hit->InStates.empty());
  // The wire-verdict fields still match exactly.
  VerifyResult Slim = Result;
  Slim.InStates.clear();
  EXPECT_TRUE(sameVerdict(*Hit, Slim));
}

TEST(VerdictCache, EntryCapEvictsLeastRecentlyUsedOnInsert) {
  std::string Dir = makeCacheDir();
  std::string Error;
  std::vector<VerifyRequest> Requests = makeRequests(43, 4);
  VerificationService Service;

  VerdictCacheLimits Limits;
  Limits.MaxEntries = 3;
  std::unique_ptr<VerdictCache> Cache =
      VerdictCache::open(Dir, analyzerVerdictFingerprint(), Limits, Error);
  ASSERT_TRUE(Cache) << Error;

  std::vector<VerifyResult> Results;
  for (size_t I = 0; I != 3; ++I) {
    Results.push_back(Service.verifyOne(Requests[I]));
    ASSERT_TRUE(Cache->store(Requests[I], Results.back(), Error)) << Error;
  }
  EXPECT_EQ(Cache->stats().Evictions, 0u); // At the cap, not over it.

  // A hit is a use: request 0 is now the MOST recently used, so the
  // over-cap insert below must evict request 1, not 0.
  ASSERT_TRUE(Cache->lookup(Requests[0]));
  Results.push_back(Service.verifyOne(Requests[3]));
  ASSERT_TRUE(Cache->store(Requests[3], Results.back(), Error)) << Error;

  EXPECT_EQ(Cache->stats().Evictions, 1u);
  EXPECT_FALSE(fileExists(entryFile(*Cache, Requests[1])));
  EXPECT_FALSE(Cache->lookup(Requests[1])); // Evicted means gone.
  // The survivors keep serving byte-identical verdicts.
  for (size_t I : {size_t(0), size_t(2), size_t(3)}) {
    std::optional<VerifyResult> Hit = Cache->lookup(Requests[I]);
    ASSERT_TRUE(Hit) << "survivor " << I;
    EXPECT_TRUE(sameVerdict(*Hit, Results[I == 3 ? 3 : I]));
    EXPECT_TRUE(fileExists(entryFile(*Cache, Requests[I])));
  }
  // An evicted request can simply be re-stored (evicting the next LRU).
  ASSERT_TRUE(Cache->store(Requests[1], Service.verifyOne(Requests[1]), Error));
  EXPECT_EQ(Cache->stats().Evictions, 2u);
  EXPECT_TRUE(Cache->lookup(Requests[1]));
}

TEST(VerdictCache, OpenSweepsOverCapStoreOldestMtimeFirst) {
  std::string Dir = makeCacheDir();
  std::string Error;
  std::vector<VerifyRequest> Requests = makeRequests(47, 5);
  VerificationService Service;
  std::vector<VerifyResult> Results;
  std::vector<std::string> Files;
  // Foreign files whose names only resemble an entry's: a sign, a space,
  // a 0x prefix, upper case. The sweep must neither count nor touch them
  // (eviction unlinks the canonical name, which none of them is).
  std::vector<std::string> Foreign;
  {
    std::unique_ptr<VerdictCache> Empty = VerdictCache::open(Dir, Error);
    ASSERT_TRUE(Empty) << Error;
  }
  for (const char *Name :
       {"verdict-+00000000000001f.vkt", "verdict- 00000000000002f.vkt",
        "verdict-0x0000000000003f.vkt", "verdict-00000000000004F.vkt"}) {
    Foreign.push_back(Dir + "/" + Name);
    std::FILE *File = std::fopen(Foreign.back().c_str(), "wb");
    ASSERT_NE(File, nullptr) << Foreign.back();
    std::fputs(Name, File);
    std::fclose(File);
  }
  {
    VerdictCacheLimits One;
    One.MaxEntries = 1;
    std::unique_ptr<VerdictCache> Swept =
        VerdictCache::open(Dir, analyzerVerdictFingerprint(), One, Error);
    ASSERT_TRUE(Swept) << Error;
    EXPECT_EQ(Swept->stats().Evictions, 0u);
  }
  {
    // Fill uncapped -- the ops story: caps are introduced (or lowered)
    // on a store a previous daemon grew without them.
    std::unique_ptr<VerdictCache> Cache = VerdictCache::open(Dir, Error);
    ASSERT_TRUE(Cache) << Error;
    for (const VerifyRequest &Request : Requests) {
      Results.push_back(Service.verifyOne(Request));
      ASSERT_TRUE(Cache->store(Request, Results.back(), Error)) << Error;
      Files.push_back(entryFile(*Cache, Request));
    }
  }
  // Pin distinct, increasing mtimes so "oldest first" is unambiguous
  // regardless of filesystem timestamp granularity.
  namespace fs = std::filesystem;
  fs::file_time_type Base = fs::last_write_time(Files[0]);
  for (size_t I = 0; I != Files.size(); ++I)
    fs::last_write_time(Files[I], Base + std::chrono::seconds(I + 1));
  std::string Retained = slurp(Files[4]);

  VerdictCacheLimits Limits;
  Limits.MaxEntries = 2;
  std::unique_ptr<VerdictCache> Capped =
      VerdictCache::open(Dir, analyzerVerdictFingerprint(), Limits, Error);
  ASSERT_TRUE(Capped) << Error;

  // The sweep evicted exactly the three oldest, before any lookup ran.
  EXPECT_EQ(Capped->stats().Evictions, 3u);
  for (size_t I = 0; I != 3; ++I) {
    EXPECT_FALSE(fileExists(Files[I])) << "old entry " << I << " kept";
    EXPECT_FALSE(Capped->lookup(Requests[I]));
  }
  // Retained entries are untouched on disk and warm-hit byte-identical.
  EXPECT_EQ(slurp(Files[4]), Retained);
  for (size_t I = 3; I != 5; ++I) {
    std::optional<VerifyResult> Hit = Capped->lookup(Requests[I]);
    ASSERT_TRUE(Hit) << "retained entry " << I;
    EXPECT_TRUE(sameVerdict(*Hit, Results[I]));
  }
  EXPECT_EQ(Capped->stats().DiskHits, 2u);
  for (const std::string &Path : Foreign)
    EXPECT_EQ(slurp(Path), Path.substr(Dir.size() + 1)) << "foreign file";
}

TEST(VerdictCache, ByteCapBoundsTheDiskFootprint) {
  std::string Dir = makeCacheDir();
  std::string Error;
  std::vector<VerifyRequest> Requests = makeRequests(53, 4);
  VerificationService Service;
  std::vector<uint64_t> Sizes;
  std::vector<std::string> Files;
  {
    std::unique_ptr<VerdictCache> Cache = VerdictCache::open(Dir, Error);
    ASSERT_TRUE(Cache) << Error;
    for (const VerifyRequest &Request : Requests) {
      ASSERT_TRUE(Cache->store(Request, Service.verifyOne(Request), Error));
      Files.push_back(entryFile(*Cache, Request));
      Sizes.push_back(std::filesystem::file_size(Files.back()));
    }
  }
  namespace fs = std::filesystem;
  fs::file_time_type Base = fs::last_write_time(Files[0]);
  for (size_t I = 0; I != Files.size(); ++I)
    fs::last_write_time(Files[I], Base + std::chrono::seconds(I + 1));

  // A byte budget that fits exactly the two newest entries: the sweep
  // must evict the two oldest and then stop -- it never over-evicts.
  VerdictCacheLimits Limits;
  Limits.MaxBytes = Sizes[2] + Sizes[3];
  std::unique_ptr<VerdictCache> Capped =
      VerdictCache::open(Dir, analyzerVerdictFingerprint(), Limits, Error);
  ASSERT_TRUE(Capped) << Error;
  EXPECT_EQ(Capped->stats().Evictions, 2u);
  EXPECT_FALSE(fileExists(Files[0]));
  EXPECT_FALSE(fileExists(Files[1]));
  EXPECT_TRUE(fileExists(Files[2]));
  EXPECT_TRUE(fileExists(Files[3]));

  // Inserts keep respecting the byte cap: storing request 0 again evicts
  // from the front until the new entry fits.
  ASSERT_TRUE(Capped->store(Requests[0], Service.verifyOne(Requests[0]), Error));
  uint64_t OnDisk = 0;
  for (const std::string &File : Files)
    if (fileExists(File))
      OnDisk += fs::file_size(File);
  EXPECT_LE(OnDisk, Limits.MaxBytes);
  EXPECT_GE(Capped->stats().Evictions, 3u);
  EXPECT_TRUE(Capped->lookup(Requests[0]));
}

} // namespace
