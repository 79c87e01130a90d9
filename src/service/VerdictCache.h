//===- service/VerdictCache.h - Persistent cross-run verdict cache -*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The disk-backed promotion of the batch engine's per-batch content-hash
/// verdict dedup: a directory of durable verdict entries keyed exactly
/// like Campaign cells --
///
///   key  = FNV-1a(canonical request bytes)   (program x analyzer opts)
///   guard = analyzerVerdictFingerprint()     (analyzer + tnum-op versions)
///
/// so repeat traffic (the production workload is mostly duplicate
/// filters) is served from disk without re-analysis, and a version bump
/// of the analyzer or any tnum transfer function invalidates exactly the
/// stale entries -- the same soundness-preserving versioning discipline
/// the campaign store applies per cell.
///
/// Guarantees (locked by tests/VerdictCacheTest.cpp):
///
///  * Entries are written through support/Checkpoint's writeFileDurable
///    (temp + fsync + close-check + rename + dir fsync): a killed writer
///    leaves a complete entry or nothing, never a torn file.
///  * A stored entry embeds the full canonical request bytes; lookup
///    compares them exactly, so a key collision degrades to a miss,
///    never a wrong verdict.
///  * An entry whose version fingerprint differs from the cache's is
///    stale: lookup treats it as a miss, unlinks it (GC), and counts it
///    in StaleInvalidated. Entries written under the current fingerprint
///    are untouched -- invalidation is exact, not whole-store.
///  * An entry is REFUSED (miss + PoisonedRejected + unlink), never misread
///    as a verdict, unless store() would write back its bytes exactly
///    (support/Record.h): a truncated, bit-flipped or respelled entry, or
///    one whose stored CacheHit byte is set, is poison. open() likewise
///    refuses a manifest that is not exactly its one line.
///  * Occupancy is bounded when caps are configured (VerdictCacheLimits):
///    exceeding MaxEntries or MaxBytes evicts least-recently-used entries
///    (disk file and in-memory mirror together) until back under both
///    caps -- on every store, and once at open() over whatever a previous
///    (possibly uncapped) process left behind, oldest mtime first. The
///    entries that survive keep serving byte-identical warm hits;
///    evictions are counted separately from stale/poison GC.
///
/// Lookups hit an in-memory map first (entries this process loaded or
/// stored); disk is consulted once per cold key. All methods are
/// thread-safe -- daemon workers share one cache.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_SERVICE_VERDICTCACHE_H
#define TNUMS_SERVICE_VERDICTCACHE_H

#include "service/VerificationService.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace tnums {
namespace service {

/// Digest of everything that can change a verdict besides the request
/// itself: the analyzer's version tag (bpf/Analyzer.h) and the content
/// fingerprints of every tnum transfer function the reduced product
/// dispatches (verify/Oracle.h opFingerprint over all BinaryOps). Bumping
/// any of those versions changes this digest, which is what invalidates
/// stale cache entries.
uint64_t analyzerVerdictFingerprint();

/// The cache key of \p Request: FNV-1a of its canonical wire encoding
/// (WireProtocol.h encodeRequestCanonical).
uint64_t verdictCacheKey(const VerifyRequest &Request);

/// Occupancy caps over the on-disk entry set (manifest excluded). 0
/// means unlimited. Exceeding either cap evicts least-recently-used
/// entries until the cache is back under both; the over-cap sweep at
/// open() seeds recency from file mtimes (oldest evicted first).
struct VerdictCacheLimits {
  uint64_t MaxEntries = 0; ///< Entry-count cap.
  uint64_t MaxBytes = 0;   ///< Sum-of-entry-file-sizes cap.
};

/// Counters, cumulative since open().
struct VerdictCacheStats {
  uint64_t Lookups = 0;
  uint64_t MemoryHits = 0;
  uint64_t DiskHits = 0;
  uint64_t Misses = 0;
  uint64_t Stores = 0;
  uint64_t StaleInvalidated = 0;  ///< Version-fingerprint mismatches GC'd.
  uint64_t PoisonedRejected = 0;  ///< Corrupt entries refused (and GC'd).
  uint64_t Evictions = 0;         ///< Capacity (LRU) evictions, including
                                  ///< the over-cap sweep at open().

  uint64_t hits() const { return MemoryHits + DiskHits; }
};

/// A persistent verdict store rooted at one directory. Open once per
/// daemon; safe for concurrent lookup/store from many threads.
class VerdictCache {
public:
  /// Opens (creating if needed) the cache directory \p Dir for the
  /// current \p VersionFingerprint (defaulted via
  /// analyzerVerdictFingerprint(); tests inject synthetic values to
  /// exercise invalidation). Refuses a directory whose manifest is not a
  /// verdict-cache manifest. Sweeps orphaned temp files, then (when
  /// \p Limits caps anything) sweeps over-cap entries oldest-mtime-first.
  /// Returned by pointer: the cache pins a mutex shared with worker
  /// threads, so it never moves.
  static std::unique_ptr<VerdictCache> open(const std::string &Dir,
                                            std::string &Error);
  static std::unique_ptr<VerdictCache> open(const std::string &Dir,
                                            uint64_t VersionFingerprint,
                                            std::string &Error);
  static std::unique_ptr<VerdictCache> open(const std::string &Dir,
                                            uint64_t VersionFingerprint,
                                            const VerdictCacheLimits &Limits,
                                            std::string &Error);

  VerdictCache(const VerdictCache &) = delete;
  VerdictCache &operator=(const VerdictCache &) = delete;

  /// Returns the cached verdict for \p Request, or nullopt on miss.
  /// Never returns a verdict for a different request or fingerprint.
  std::optional<VerifyResult> lookup(const VerifyRequest &Request);

  /// Durably records \p Result as \p Request's verdict under the current
  /// version fingerprint. KeepStates tables are never persisted (the
  /// wire verdict fields only). False with \p Error on I/O failure; the
  /// in-memory entry is installed regardless so a read-only filesystem
  /// degrades to a per-process cache. A successful store then evicts
  /// least-recently-used entries as needed to stay under the caps.
  bool store(const VerifyRequest &Request, const VerifyResult &Result,
             std::string &Error);

  VerdictCacheStats stats() const;

  const std::string &path() const { return Dir; }
  uint64_t versionFingerprint() const { return VersionFp; }
  const VerdictCacheLimits &limits() const { return Limits; }

private:
  VerdictCache(std::string DirV, uint64_t VersionFpV,
               VerdictCacheLimits LimitsV)
      : Dir(std::move(DirV)), VersionFp(VersionFpV), Limits(LimitsV) {}

  std::string entryPath(uint64_t Key) const;

  /// Seeds the disk index from a directory scan (recency = file mtime,
  /// oldest first) and applies the over-cap sweep. Called once by open().
  void loadDiskIndex();

  /// Records (or re-measures) \p Key's on-disk entry of \p Bytes bytes
  /// and marks it most recently used.
  void indexDiskEntryLocked(uint64_t Key, uint64_t Bytes);
  /// Marks \p Key most recently used if it is tracked.
  void touchDiskEntryLocked(uint64_t Key);
  /// Drops \p Key from the disk index (stale/poison GC or external
  /// disappearance -- NOT counted as an eviction).
  void forgetDiskEntryLocked(uint64_t Key);
  /// Evicts least-recently-used entries (unlink + in-memory mirror) until
  /// the cache is under both caps; each one counts in Stats.Evictions.
  void evictOverCapLocked();

  struct MemEntry {
    std::string Canonical; ///< Exact-match witness.
    VerifyResult Result;
  };

  /// One tracked on-disk entry; recency lives in the Lru list.
  struct DiskEntry {
    uint64_t Bytes;
    std::list<uint64_t>::iterator LruPos;
  };

  std::string Dir;
  uint64_t VersionFp;
  VerdictCacheLimits Limits;

  // Shared state behind one mutex: lookups are a hash-map probe plus (on
  // cold keys) one file read; the analyzer work they replace is orders
  // of magnitude heavier, so a single lock is nowhere near contention.
  mutable std::mutex Mutex;
  std::unordered_map<uint64_t, MemEntry> Memory;
  std::unordered_map<uint64_t, DiskEntry> Disk;
  std::list<uint64_t> Lru; ///< Front = least recently used.
  uint64_t DiskBytes = 0;  ///< Sum of tracked entry-file sizes.
  VerdictCacheStats Stats;
};

} // namespace service
} // namespace tnums

#endif // TNUMS_SERVICE_VERDICTCACHE_H
