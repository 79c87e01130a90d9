//===- service/VerificationService.cpp - Batched BPF verification ---------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "service/VerificationService.h"

#include "support/Atomic.h"
#include "support/ChunkSchedule.h"
#include "support/Table.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace {

//===----------------------------------------------------------------------===//
// Content-hash request dedup
//
// Two requests with identical canonicalized program bytes and identical
// verdict-relevant options necessarily produce identical verdicts (a
// verdict is a pure function of the request), so a batch only needs to
// analyze the first occurrence. Hash matches are confirmed by exact
// field-wise comparison -- a collision degrades to a miss, never to a
// wrong verdict.
//===----------------------------------------------------------------------===//

/// Mixes one 64-bit word into \p Hash. The multiply and the xor-shift are
/// both bijections, so requests that differ in one field never collide.
uint64_t mixWord(uint64_t Hash, uint64_t Word) {
  Hash = (Hash ^ Word) * 0x9E3779B97F4A7C15ull;
  return Hash ^ (Hash >> 32);
}

/// Digest of everything that can influence a verdict: the context size,
/// the analyzer knobs and three words per instruction (the narrow fields
/// packed, Offset, Imm). In memory only: the verdict cache and every
/// persisted fingerprint keep byte-wise FNV-1a.
uint64_t hashRequest(const VerifyRequest &Request) {
  uint64_t Hash = mixWord(Request.MemSize, Request.Prog.size());
  Hash = mixWord(Hash, Request.AnalyzerOpts.WideningThreshold);
  Hash = mixWord(Hash, Request.AnalyzerOpts.MaxInsnVisits);
  for (const Insn &I : Request.Prog) {
    uint64_t Narrow = static_cast<uint64_t>(I.InsnKind) |
                      static_cast<uint64_t>(I.Alu) << 8 |
                      static_cast<uint64_t>(I.Cmp) << 16 |
                      static_cast<uint64_t>(I.Dst) << 24 |
                      static_cast<uint64_t>(I.Src) << 32 |
                      static_cast<uint64_t>(I.UsesImm) << 40 |
                      static_cast<uint64_t>(I.Size) << 48 |
                      static_cast<uint64_t>(I.Is32) << 56;
    Hash = mixWord(Hash, Narrow);
    Hash = mixWord(Hash, static_cast<uint32_t>(I.Offset));
    Hash = mixWord(Hash, static_cast<uint64_t>(I.Imm));
  }
  return Hash;
}

bool sameInsn(const Insn &A, const Insn &B) {
  return A.InsnKind == B.InsnKind && A.Alu == B.Alu && A.Cmp == B.Cmp &&
         A.Dst == B.Dst && A.Src == B.Src && A.UsesImm == B.UsesImm &&
         A.Imm == B.Imm && A.Offset == B.Offset && A.Size == B.Size &&
         A.Is32 == B.Is32;
}

bool sameRequest(const VerifyRequest &A, const VerifyRequest &B) {
  if (A.MemSize != B.MemSize ||
      A.AnalyzerOpts.WideningThreshold != B.AnalyzerOpts.WideningThreshold ||
      A.AnalyzerOpts.MaxInsnVisits != B.AnalyzerOpts.MaxInsnVisits ||
      A.Prog.size() != B.Prog.size())
    return false;
  for (size_t I = 0; I != A.Prog.size(); ++I)
    if (!sameInsn(A.Prog.insn(I), B.Prog.insn(I)))
      return false;
  return true;
}

/// Representative[i] = index of the first request identical to
/// Requests[i] (== i for first occurrences, which are the ones actually
/// scheduled). First occurrences sit in one open-addressing table of
/// (hash, index) slots, at least twice the batch and probed linearly; a
/// slot matches only if sameRequest() confirms it.
std::vector<size_t>
computeRepresentatives(const std::vector<VerifyRequest> &Requests) {
  struct Slot {
    uint64_t Hash = 0;
    size_t Index = SIZE_MAX; ///< SIZE_MAX while empty.
  };
  std::vector<Slot> Table(std::bit_ceil(2 * Requests.size()));
  const size_t Mask = Table.size() - 1;
  std::vector<size_t> Representative(Requests.size());
  for (size_t Index = 0; Index != Requests.size(); ++Index) {
    uint64_t Hash = hashRequest(Requests[Index]);
    size_t Pos = Hash & Mask;
    while (Table[Pos].Index != SIZE_MAX &&
           !(Table[Pos].Hash == Hash &&
             sameRequest(Requests[Table[Pos].Index], Requests[Index])))
      Pos = (Pos + 1) & Mask;
    if (Table[Pos].Index == SIZE_MAX)
      Table[Pos] = Slot{Hash, Index};
    Representative[Index] = Table[Pos].Index;
  }
  return Representative;
}

} // namespace

void tnums::service::verifyRequestInto(const VerifyRequest &Request,
                                       bool KeepStates, Analyzer &Engine,
                                       VerifyResult &Out) {
  Out.Done = true;
  if (std::optional<std::string> Error = Request.Prog.validate()) {
    Out.Accepted = false;
    Out.StructuralError = std::move(*Error);
    return;
  }
  Analyzer::Options Opts = Request.AnalyzerOpts;
  Opts.MemSize = Request.MemSize;
  AnalysisResult Result = Engine.analyze(Request.Prog, Opts);
  Out.Accepted = Result.accepted();
  Out.Violations = std::move(Result.Violations);
  Out.InsnVisits = Result.InsnVisits;
  if (KeepStates)
    Out.InStates = std::move(Result.InStates);
  else
    Engine.recycle(std::move(Result.InStates));
}

std::string BatchStats::toString() const {
  return formatString(
      "%llu programs in %.3f s (%.0f programs/s, %.2f Minsn-visits/s): "
      "%llu accepted, %llu rejected structural, %llu rejected semantic, "
      "%llu dedup hits",
      static_cast<unsigned long long>(Programs), Seconds,
      programsPerSecond(), insnVisitsPerSecond() / 1e6,
      static_cast<unsigned long long>(Accepted),
      static_cast<unsigned long long>(RejectedStructural),
      static_cast<unsigned long long>(RejectedSemantic),
      static_cast<unsigned long long>(DedupHits));
}

uint64_t tnums::service::verdictFingerprint(const BatchResult &Batch) {
  uint64_t Hash = 1469598103934665603ull; // FNV-1a offset basis
  auto Mix = [&Hash](uint64_t Value) {
    for (unsigned Byte = 0; Byte != 8; ++Byte) {
      Hash ^= (Value >> (8 * Byte)) & 0xFF;
      Hash *= 1099511628211ull;
    }
  };
  auto MixString = [&Hash](const std::string &Text) {
    for (unsigned char C : Text) {
      Hash ^= C;
      Hash *= 1099511628211ull;
    }
    Hash ^= 0xFF; // Terminator so "ab" + "c" != "a" + "bc".
    Hash *= 1099511628211ull;
  };
  for (const VerifyResult &R : Batch.Results) {
    Mix(R.Done ? 1 : 0);
    if (!R.Done)
      continue;
    Mix(R.Accepted ? 1 : 0);
    Mix(R.InsnVisits);
    MixString(R.StructuralError);
    Mix(R.Violations.size());
    for (const Violation &V : R.Violations) {
      Mix(V.Pc);
      MixString(V.Message);
    }
  }
  return Hash;
}

VerifyResult
VerificationService::verifyOne(const VerifyRequest &Request) const {
  VerifyResult Result;
  Analyzer Engine;
  verifyRequestInto(Request, Config.KeepStates, Engine, Result);
  return Result;
}

BatchResult
VerificationService::verifyBatch(const std::vector<VerifyRequest> &Requests) const {
  BatchResult Batch;
  Batch.Results.resize(Requests.size());
  auto Start = std::chrono::steady_clock::now();

  // With dedup, only first occurrences are scheduled; duplicates inherit
  // their representative's verdict after the pool drains. Without it,
  // every index is its own representative and Unique is the identity.
  std::vector<size_t> Representative;
  std::vector<size_t> Unique;
  if (Config.DedupPrograms) {
    Representative = computeRepresentatives(Requests);
    Unique.reserve(Requests.size());
    for (size_t Index = 0; Index != Representative.size(); ++Index)
      if (Representative[Index] == Index)
        Unique.push_back(Index);
  } else {
    Unique.resize(Requests.size());
    for (size_t Index = 0; Index != Unique.size(); ++Index)
      Unique[Index] = Index;
  }

  const uint64_t Total = Unique.size();
  const uint64_t ChunkPrograms = std::max<uint64_t>(1, Config.ChunkPrograms);
  const uint64_t NumChunks = (Total + ChunkPrograms - 1) / ChunkPrograms;

  // Lowest chunk index containing a reject; only consulted in
  // StopAtFirstReject mode. Same protocol as the sweeps: cancel strictly
  // above, always finish at or below, so the first Done reject in index
  // order is exactly the serial-order first reject. (Dedup preserves
  // this: the unique stream keeps first-occurrence order, and every
  // duplicate both follows and matches its representative.)
  std::atomic<uint64_t> FirstRejectChunk{UINT64_MAX};

  forEachChunkOnPool(
      Config.NumThreads, NumChunks,
      // One engine per worker: its order vector, fixpoint scratch and
      // (with KeepStates off) state table are recycled across every
      // program that worker processes.
      [] { return Analyzer(); },
      [&](uint64_t Chunk, Analyzer &Engine) {
        if (Config.StopAtFirstReject &&
            Chunk > FirstRejectChunk.load(std::memory_order_acquire))
          return;
        uint64_t Begin = Chunk * ChunkPrograms;
        uint64_t End = std::min(Total, Begin + ChunkPrograms);
        for (uint64_t Position = Begin; Position != End; ++Position) {
          if (Config.StopAtFirstReject &&
              Chunk > FirstRejectChunk.load(std::memory_order_relaxed))
            break;
          size_t Index = Unique[Position];
          VerifyResult &Out = Batch.Results[Index];
          verifyRequestInto(Requests[Index], Config.KeepStates, Engine, Out);
          if (!Out.Accepted && Config.StopAtFirstReject) {
            atomicMinU64(FirstRejectChunk, Chunk);
            break; // This chunk's first (= serial-order) reject stands.
          }
        }
      });

  if (Config.DedupPrograms)
    for (size_t Index = 0; Index != Representative.size(); ++Index) {
      size_t Rep = Representative[Index];
      if (Rep == Index || !Batch.Results[Rep].Done)
        continue;
      Batch.Results[Index] = Batch.Results[Rep];
      ++Batch.Stats.DedupHits;
    }

  std::chrono::duration<double> Elapsed =
      std::chrono::steady_clock::now() - Start;
  Batch.Stats.Seconds = Elapsed.count();
  for (size_t Index = 0; Index != Batch.Results.size(); ++Index) {
    const VerifyResult &R = Batch.Results[Index];
    if (!R.Done)
      continue;
    ++Batch.Stats.Programs;
    Batch.Stats.InsnVisits += R.InsnVisits;
    if (R.Accepted) {
      ++Batch.Stats.Accepted;
    } else {
      if (!R.StructuralError.empty())
        ++Batch.Stats.RejectedStructural;
      else
        ++Batch.Stats.RejectedSemantic;
      if (!Batch.FirstRejected)
        Batch.FirstRejected = Index;
    }
  }
  return Batch;
}
