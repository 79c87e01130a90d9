//===- support/Checkpoint.h - Durable campaign shard store ------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk state a checkpointed campaign (verify/Campaign.h) survives
/// preemption with: one directory holding a manifest plus one small file
/// per *completed* shard. The store knows nothing about what a shard
/// means -- payloads are opaque text the campaign layer serializes -- it
/// only guarantees durability and identity:
///
///  * Shard writes are atomic and durable: payloads land in a temp file,
///    are fsync'd, and are renamed into place (then the directory is
///    fsync'd). close() after fsync is checked too -- NFS and quota-full
///    filesystems surface deferred write errors there, and a shard that
///    hit one must never be renamed into place. A killed process
///    therefore leaves either a complete, loadable shard file or nothing
///    -- never a torn one -- which is what makes "kill anywhere, resume,
///    merge" safe. Orphaned temp files from killed invocations are swept
///    on open (only when their writer pid is provably dead), and live
///    temp names carry a random nonce besides the pid so a recycled pid
///    can never collide with another writer.
///  * Every file carries a format version and the campaign fingerprint
///    (a digest of the spec *shape* that produced the manifest). Opening
///    a directory written by a different campaign, or loading a shard
///    whose fingerprint disagrees, fails loudly instead of merging
///    garbage.
///  * v2 adds a per-cell header to every shard file: the cell index and
///    the cell's content fingerprint (in the campaign layer: a digest of
///    the transfer-function implementation the cell verified). The store
///    round-trips both; the campaign layer compares the cell fingerprint
///    on load and re-runs -- after removeShard() GC -- cells whose
///    operator implementation changed. v1 directories are REFUSED with an
///    explicit migration message (their shards lack the per-cell header,
///    so reusing them could serve verdicts of operators that have since
///    changed).
///
/// Multiple invocations may share one directory concurrently (the
/// --shards=K / --shard-index=i farming mode): they write disjoint shard
/// files, and identical manifest rewrites are idempotent.
///
/// Format (v2, line-oriented text; see docs/CAMPAIGN.md):
///
///   campaign.manifest:   tnums-campaign-manifest v2
///                        fingerprint <hex64>
///                        shards <N>
///
///   shard-<index>.ckpt:  tnums-campaign-shard v2
///                        fingerprint <hex64>
///                        shard <index>
///                        cell <index>
///                        cellfp <hex64>
///                        terminal <0|1>
///                        <payload lines...>
///
/// "terminal" marks a shard whose outcome ends its cell early (the
/// early-exit optimality mode): the merge may stop there, so shards after
/// it are allowed to be missing forever.
///
/// A manifest or shard header loads only if its writer reproduces it from
/// the parsed values (support/Record.h), terminal is 0 or 1, and the
/// fingerprint and shard index are this store's.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_SUPPORT_CHECKPOINT_H
#define TNUMS_SUPPORT_CHECKPOINT_H

#include <cstdint>
#include <optional>
#include <string>

namespace tnums {

/// What one completed shard contributes on resume.
struct ShardRecord {
  std::string Payload;   ///< Campaign-layer serialized shard result.
  bool Terminal = false; ///< Ends its cell early (early-exit witness).
  /// Index of the campaign cell this shard belongs to.
  uint64_t Cell = 0;
  /// Content fingerprint of the cell as the writer computed it (campaign
  /// layer: the op-fingerprint keying). A stored shard whose CellFingerprint
  /// no longer matches the current spec's is stale -- the campaign layer
  /// GCs and re-runs it instead of merging an outdated verdict.
  uint64_t CellFingerprint = 0;
};

/// A campaign checkpoint directory. Open it once per invocation; all
/// methods are safe against concurrent invocations writing *other*
/// shards into the same directory.
class CheckpointStore {
public:
  /// Opens \p Dir for the campaign identified by \p Fingerprint over
  /// \p NumShards shards, creating the directory and manifest when absent,
  /// and sweeping temp files orphaned by dead writers. Fails (nullopt,
  /// \p Error set) when the directory already holds a manifest for a
  /// different campaign -- resuming must never mix state from two specs --
  /// or a v1-format manifest (see the file comment: v1 stores are refused,
  /// not misread).
  static std::optional<CheckpointStore> open(const std::string &Dir,
                                             uint64_t Fingerprint,
                                             uint64_t NumShards,
                                             std::string &Error);

  /// Durably records shard \p Index: temp file + fsync + rename + dir
  /// fsync. Safe across invocations racing on the same shard: last
  /// rename wins, and every writer's payload merges to the same result
  /// (payloads are deterministic up to informational fields like the
  /// campaign layer's "seconds").
  bool storeShard(uint64_t Index, const ShardRecord &Record,
                  std::string &Error) const;

  /// Loads shard \p Index if its file exists. nullopt with \p Error empty
  /// means "not completed yet"; nullopt with \p Error set means the file
  /// exists but is unreadable or belongs to a different campaign. The
  /// caller owns the CellFingerprint staleness decision.
  std::optional<ShardRecord> loadShard(uint64_t Index,
                                       std::string &Error) const;

  /// Removes shard \p Index's file (the invalidated-cell GC). A missing
  /// file is success -- a concurrent GC may have won the race.
  bool removeShard(uint64_t Index, std::string &Error) const;

  /// True when shard \p Index has a completed file.
  bool hasShard(uint64_t Index) const;

  const std::string &path() const { return Dir; }

private:
  CheckpointStore(std::string DirV, uint64_t FingerprintV)
      : Dir(std::move(DirV)), Fingerprint(FingerprintV) {}

  std::string shardPath(uint64_t Index) const;

  std::string Dir;
  uint64_t Fingerprint;
};

/// \name Durability primitives
/// The atomic-write discipline CheckpointStore's shards are built on,
/// exported for other durable stores (the service layer's cross-run
/// VerdictCache persists verdict entries through exactly this path, so
/// its files inherit the same torn-write guarantee).
/// @{

/// Writes \p Contents to \p Path durably: pid+nonce temp sibling + fsync
/// + close-check + rename + directory fsync. A killed writer leaves
/// either the complete new file or the old state -- never a torn file.
/// False with \p Error set on any syscall failure.
bool writeFileDurable(const std::string &Path, const std::string &Contents,
                      std::string &Error);

/// Unlinks "<target>.tmp.<pid>.<nonce>" temp files in \p Dir whose writer
/// pid is provably dead and whose mtime is past the cross-machine grace
/// period. Only the exact spelling writeFileDurable writes (a decimal pid
/// and 16 lower-case hex nonce digits) is taken; every other file is left
/// alone. Best-effort cleanup; call once when opening a durable store.
void sweepOrphanedTempFiles(const std::string &Dir);
/// @}

/// FNV-1a over a byte run -- the digest the campaign layer fingerprints
/// specs with (shared here so every front end hashes identically).
class Fnv1a {
public:
  void mixByte(unsigned char Byte) {
    Hash = (Hash ^ Byte) * 1099511628211ull;
  }
  void mixU64(uint64_t Value) {
    for (unsigned Byte = 0; Byte != 8; ++Byte)
      mixByte(static_cast<unsigned char>(Value >> (8 * Byte)));
  }
  void mixString(const std::string &Text) {
    for (unsigned char C : Text)
      mixByte(C);
    mixByte(0xFF); // Terminator so "ab"+"c" != "a"+"bc".
  }
  uint64_t digest() const { return Hash; }

private:
  uint64_t Hash = 1469598103934665603ull; // FNV-1a offset basis
};

} // namespace tnums

#endif // TNUMS_SUPPORT_CHECKPOINT_H
