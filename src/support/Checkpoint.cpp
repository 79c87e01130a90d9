//===- support/Checkpoint.cpp - Durable campaign shard store --------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "support/Checkpoint.h"

#include "support/Record.h"
#include "support/Table.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <random>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace tnums;

namespace fs = std::filesystem;

namespace {

constexpr const char *ManifestName = "campaign.manifest";
constexpr const char *ManifestMagic = "tnums-campaign-manifest v2";
constexpr const char *ShardMagic = "tnums-campaign-shard v2";
/// The previous format's magics: recognized only to refuse them with a
/// migration message instead of a generic parse error. v1 shards carry no
/// per-cell fingerprint, so reusing them could silently serve verdicts of
/// transfer functions that have since changed.
constexpr const char *ManifestMagicV1 = "tnums-campaign-manifest v1";
constexpr const char *ShardMagicV1 = "tnums-campaign-shard v1";

/// A per-call temp-name nonce: process-random seed mixed with a counter.
/// Temp names embed this besides the pid because pids recycle -- a
/// crashed writer's pid can be reassigned to a live invocation sharing
/// the directory, and two same-pid writers (or sweep-vs-writer races on a
/// recycled pid) must never address the same temp file.
uint64_t tempNonce() {
  static std::atomic<uint64_t> Counter{0};
  static const uint64_t Seed = [] {
    std::random_device Device;
    uint64_t S = (static_cast<uint64_t>(Device()) << 32) ^ Device();
    S ^= static_cast<uint64_t>(::getpid()) * 0x9E3779B97F4A7C15ull;
    S ^= static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    return S;
  }();
  Fnv1a Hash;
  Hash.mixU64(Seed);
  Hash.mixU64(Counter.fetch_add(1, std::memory_order_relaxed));
  return Hash.digest();
}

/// The temp sibling writeFileDurable writes \p Path through. The sweep
/// takes a file as an orphan only if this reproduces its name.
std::string tempPath(const std::string &Path, pid_t Pid, uint64_t Nonce) {
  return formatString("%s.tmp.%ld.%016" PRIx64, Path.c_str(),
                      static_cast<long>(Pid), Nonce);
}

} // namespace

// (Declared in Checkpoint.h; the shard store below and the service
// layer's VerdictCache share this implementation.) Writes \p Contents to
// \p Path durably: temp sibling + fsync + rename + directory fsync.
// Returns false with \p Error set on any syscall failure. The temp name
// embeds the pid (so open() can sweep temps whose writer died) plus a
// random nonce (so writers never collide even across pid recycling).
bool tnums::writeFileDurable(const std::string &Path,
                             const std::string &Contents,
                             std::string &Error) {
  std::string Temp = tempPath(Path, ::getpid(), tempNonce());
  int Fd = ::open(Temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    Error = formatString("cannot create %s: %s", Temp.c_str(),
                         std::strerror(errno));
    return false;
  }
  size_t Written = 0;
  while (Written != Contents.size()) {
    ssize_t N = ::write(Fd, Contents.data() + Written,
                        Contents.size() - Written);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = formatString("cannot write %s: %s", Temp.c_str(),
                           std::strerror(errno));
      ::close(Fd);
      ::unlink(Temp.c_str());
      return false;
    }
    Written += static_cast<size_t>(N);
  }
  if (::fsync(Fd) != 0) {
    Error = formatString("cannot fsync %s: %s", Temp.c_str(),
                         std::strerror(errno));
    ::close(Fd);
    ::unlink(Temp.c_str());
    return false;
  }
  // close() is where NFS and quota-full filesystems surface deferred
  // write errors; ignoring it here could rename a torn shard into place.
  if (::close(Fd) != 0) {
    Error = formatString("cannot close %s (deferred write error): %s",
                         Temp.c_str(), std::strerror(errno));
    ::unlink(Temp.c_str());
    return false;
  }
  if (::rename(Temp.c_str(), Path.c_str()) != 0) {
    Error = formatString("cannot rename %s -> %s: %s", Temp.c_str(),
                         Path.c_str(), std::strerror(errno));
    ::unlink(Temp.c_str());
    return false;
  }
  // Make the rename itself durable: fsync the containing directory.
  std::string Dir = fs::path(Path).parent_path().string();
  int DirFd =
      ::open(Dir.empty() ? "." : Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd >= 0) {
    ::fsync(DirFd); // Best-effort; some filesystems refuse dir fsync.
    ::close(DirFd);
  }
  return true;
}

namespace {

/// Minimum idle age before a dead-pid temp file is considered orphaned.
/// The pid test is only meaningful on the machine that created the file;
/// in the cross-machine farming mode (one checkpoint dir on NFS) a
/// remote writer's pid looks dead locally, so the sweep additionally
/// requires the file to have been idle far longer than any in-flight
/// writeFileDurable. A genuine orphan is swept by whichever invocation
/// opens the store after the grace period.
constexpr time_t OrphanTempGraceSeconds = 15 * 60;

} // namespace

// (Declared in Checkpoint.h.) Unlinks temp files in \p Dir whose writer
// is provably dead. A temp name is "<target>.tmp.<pid>.<nonce>", spelled
// exactly as writeFileDurable spells it; the file is an orphan when
// kill(pid, 0) reports ESRCH AND its mtime is older than the grace period
// above. Any other name is not ours to remove. A live pid -- even one
// recycled to an unrelated process -- leaves the file alone: sweeping is
// an opportunistic cleanup, and the nonce already guarantees no live
// writer can be addressed by a new one.
void tnums::sweepOrphanedTempFiles(const std::string &Dir) {
  std::error_code Ec;
  const time_t Now = ::time(nullptr);
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir, Ec)) {
    const std::string Name = Entry.path().filename().string();
    const size_t Marker = Name.rfind(".tmp.");
    if (Marker == std::string::npos)
      continue;
    std::string_view Suffix = std::string_view(Name).substr(Marker + 5);
    const size_t Dot = Suffix.find('.');
    std::optional<pid_t> Pid = parseNumber<pid_t>(Suffix.substr(0, Dot));
    std::optional<uint64_t> Nonce =
        parseNumber<uint64_t>(Suffix.substr(Dot + 1), 16);
    if (!Pid || *Pid <= 0 || !Nonce ||
        tempPath(Name.substr(0, Marker), *Pid, *Nonce) != Name)
      continue; // Not a name writeFileDurable writes.
    if (::kill(*Pid, 0) == 0 || errno != ESRCH)
      continue; // A live (or indeterminate) writer on this machine.
    struct stat St;
    if (::stat(Entry.path().c_str(), &St) != 0 ||
        Now - St.st_mtime < OrphanTempGraceSeconds)
      continue; // Too fresh: could be a remote machine's live writer.
    ::unlink(Entry.path().c_str()); // Best-effort; races are benign.
  }
}

namespace {

std::string manifestContents(uint64_t Fingerprint, uint64_t NumShards) {
  return formatString("%s\nfingerprint %016" PRIx64 "\nshards %" PRIu64 "\n",
                      ManifestMagic, Fingerprint, NumShards);
}

/// A shard file's header lines; the payload follows them.
std::string shardHeader(uint64_t Fingerprint, uint64_t Index,
                        const ShardRecord &Record) {
  return formatString("%s\nfingerprint %016" PRIx64 "\nshard %" PRIu64
                      "\ncell %" PRIu64 "\ncellfp %016" PRIx64
                      "\nterminal %d\n",
                      ShardMagic, Fingerprint, Index, Record.Cell,
                      Record.CellFingerprint, Record.Terminal ? 1 : 0);
}

} // namespace

std::string CheckpointStore::shardPath(uint64_t Index) const {
  return formatString("%s/shard-%08" PRIu64 ".ckpt", Dir.c_str(), Index);
}

std::optional<CheckpointStore>
CheckpointStore::open(const std::string &Dir, uint64_t Fingerprint,
                      uint64_t NumShards, std::string &Error) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec) {
    Error = formatString("cannot create checkpoint directory %s: %s",
                         Dir.c_str(), Ec.message().c_str());
    return std::nullopt;
  }
  sweepOrphanedTempFiles(Dir);
  std::string ManifestPath = Dir + "/" + ManifestName;
  if (std::optional<std::string> Existing = readWholeFile(ManifestPath)) {
    // Resuming: the directory must belong to this exact campaign.
    std::string_view Text = *Existing;
    if (takeLine(Text) == ManifestMagicV1) {
      Error = formatString(
          "%s is a v1 checkpoint store; the v2 per-cell format cannot "
          "safely reuse it (v1 shards carry no operator fingerprints, so "
          "verdicts of since-changed transfer functions would be served "
          "silently) -- point at a fresh directory and re-run",
          Dir.c_str());
      return std::nullopt;
    }
    uint64_t HaveFp = 0, HaveShards = 0;
    if (!takeNumber(Text, HaveFp, 16) || !takeNumber(Text, HaveShards) ||
        manifestContents(HaveFp, HaveShards) != *Existing) {
      Error = formatString("%s is not a v2 campaign manifest",
                           ManifestPath.c_str());
      return std::nullopt;
    }
    if (HaveFp != Fingerprint || HaveShards != NumShards) {
      Error = formatString(
          "checkpoint directory %s belongs to a different campaign "
          "(manifest fingerprint %016" PRIx64 "/%" PRIu64
          " shards, this spec %016" PRIx64 "/%" PRIu64
          " shards); refusing to mix state",
          Dir.c_str(), HaveFp, HaveShards, Fingerprint, NumShards);
      return std::nullopt;
    }
  } else if (!writeFileDurable(ManifestPath,
                               manifestContents(Fingerprint, NumShards),
                               Error)) {
    return std::nullopt;
  }
  return CheckpointStore(Dir, Fingerprint);
}

bool CheckpointStore::storeShard(uint64_t Index, const ShardRecord &Record,
                                 std::string &Error) const {
  return writeFileDurable(shardPath(Index),
                          shardHeader(Fingerprint, Index, Record) +
                              Record.Payload,
                          Error);
}

std::optional<ShardRecord>
CheckpointStore::loadShard(uint64_t Index, std::string &Error) const {
  Error.clear();
  std::string Path = shardPath(Index);
  std::optional<std::string> Contents = readWholeFile(Path);
  if (!Contents)
    return std::nullopt; // Not completed yet; Error stays empty.
  std::string_view Text = *Contents;
  if (takeLine(Text) == ShardMagicV1) {
    Error = formatString(
        "%s is a v1 campaign shard (no per-cell operator fingerprint); "
        "v1 state cannot be reused -- point at a fresh directory",
        Path.c_str());
    return std::nullopt;
  }
  ShardRecord Record;
  uint64_t Fp = 0, Shard = 0, Terminal = 0;
  const bool Parsed = takeNumber(Text, Fp, 16) && takeNumber(Text, Shard) &&
                      takeNumber(Text, Record.Cell) &&
                      takeNumber(Text, Record.CellFingerprint, 16) &&
                      takeNumber(Text, Terminal) && Terminal <= 1;
  Record.Terminal = Terminal == 1;
  const std::string Header = shardHeader(Fp, Shard, Record);
  if (!Parsed || !Contents->starts_with(Header)) {
    Error = formatString("%s is not a v2 campaign shard file", Path.c_str());
    return std::nullopt;
  }
  if (Fp != Fingerprint || Shard != Index) {
    Error = formatString("%s belongs to a different campaign or shard "
                         "(fingerprint %016" PRIx64 ", shard %" PRIu64 ")",
                         Path.c_str(), Fp, Shard);
    return std::nullopt;
  }
  Record.Payload = Contents->substr(Header.size());
  return Record;
}

bool CheckpointStore::removeShard(uint64_t Index, std::string &Error) const {
  if (::unlink(shardPath(Index).c_str()) == 0 || errno == ENOENT)
    return true;
  Error = formatString("cannot remove stale shard %s: %s",
                       shardPath(Index).c_str(), std::strerror(errno));
  return false;
}

bool CheckpointStore::hasShard(uint64_t Index) const {
  struct stat St;
  return ::stat(shardPath(Index).c_str(), &St) == 0;
}
