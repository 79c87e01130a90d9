//===- service/VerificationService.h - Batched BPF verification -*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer-level scaling layer: a batched verification engine that
/// accepts a queue of Program requests and drives the bpf substrate
/// (validate -> Analyzer fixpoint) across the work-stealing ThreadPool.
/// This is the miniature of the loader service the paper's tnum domain
/// ultimately serves -- a path that must verify many untrusted programs
/// fast -- where PR 1/2's parallel engine scaled the *domain-level*
/// sweeps.
///
/// Work is scheduled as chunks of consecutive request indices; each pool
/// worker owns one long-lived Analyzer whose order vector, fixpoint scratch
/// and (when states are not kept) in-state table are recycled across the
/// programs it processes (per-worker amortization).
///
/// Determinism contract (mirrors verify/ParallelSweep.h):
///
///  * Results[i] always corresponds to Requests[i], and every filled
///    result is bit-identical for every thread count, chunk size, and
///    scheduling order -- each program's verdict is a pure function of its
///    request. By default every request is verified, so whole batches
///    (and verdictFingerprint) are bit-identical and the aggregate stats
///    are exact batch totals.
///  * With StopAtFirstReject, chunks strictly above the lowest rejecting
///    chunk are cancelled best-effort (a fast chunk may finish before the
///    reject is published, so WHICH results end Done = false is
///    scheduling-dependent -- only filled results are deterministic) and
///    the rejecting chunk stops at its own first reject; chunks at or
///    below always finish, so FirstRejected is exactly the serial-order
///    first rejected request. Work stats and verdictFingerprint then
///    reflect the work actually performed, like the sweeps' counters on
///    failure.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_SERVICE_VERIFICATIONSERVICE_H
#define TNUMS_SERVICE_VERIFICATIONSERVICE_H

#include "bpf/Verifier.h"

#include <optional>
#include <string>
#include <vector>

namespace tnums {
namespace service {

/// Tuning knobs for a batch run.
struct ServiceConfig {
  /// Worker threads; 0 means ThreadPool::hardwareConcurrency().
  unsigned NumThreads = 0;

  /// Consecutive request indices per work chunk. Program costs vary a lot
  /// (straight-line vs widening loops), so chunks stay small enough for
  /// the pool to load-balance yet coarse enough that the scheduling atomic
  /// is off the critical path.
  uint64_t ChunkPrograms = 16;

  /// Retain each program's per-instruction fixpoint states in its result
  /// (the differential fuzz oracle needs them; throughput runs leave this
  /// off, so each worker's engine reuses one state table for every
  /// program).
  bool KeepStates = false;

  /// First-fail mode: cancel everything past the serial-order first
  /// rejected request (the ParallelSweep cancellation protocol). For
  /// loader-style "stop at the first bad program in the bundle" flows.
  bool StopAtFirstReject = false;

  /// Content-hash verdict dedup: requests whose canonicalized program
  /// bytes (and verdict-relevant options) are identical to an earlier
  /// request in the batch are served the first occurrence's verdict
  /// instead of being re-analyzed. A verdict is a pure function of the
  /// request, so full-batch results -- and verdictFingerprint -- are
  /// bit-identical with dedup on or off; only BatchStats::DedupHits and
  /// the wall clock move. (Under StopAtFirstReject, a duplicate is filled
  /// whenever its representative ran, which can fill entries a
  /// non-deduped schedule would have cancelled -- the set of cancelled
  /// entries is best-effort in that mode either way.)
  bool DedupPrograms = true;
};

/// One program to verify against a MemSize-byte context region.
struct VerifyRequest {
  bpf::Program Prog;
  uint64_t MemSize = 32;
  /// Analyzer tuning; the MemSize field is overridden by MemSize above.
  bpf::Analyzer::Options AnalyzerOpts = {};
};

/// One program's verdict. Default-constructed results (Done == false)
/// mark requests cancelled by StopAtFirstReject.
struct VerifyResult {
  bool Done = false;
  bool Accepted = false;
  /// Structural problem, if validation already failed.
  std::string StructuralError;
  /// Semantic complaints from the analyzer.
  std::vector<bpf::Violation> Violations;
  /// Fixpoint states (only with ServiceConfig::KeepStates; empty if
  /// validation failed).
  std::vector<bpf::AbstractState> InStates;
  /// Transfer evaluations the fixpoint performed.
  uint64_t InsnVisits = 0;
};

/// Aggregate throughput accounting for one batch.
struct BatchStats {
  uint64_t Programs = 0;           ///< Requests with a verdict (Done),
                                   ///< including dedup-served duplicates.
  uint64_t Accepted = 0;
  uint64_t RejectedStructural = 0;
  uint64_t RejectedSemantic = 0;
  uint64_t InsnVisits = 0;
  uint64_t DedupHits = 0;          ///< Duplicates served from an earlier
                                   ///< identical request's verdict.
  double Seconds = 0;              ///< Wall clock for the whole batch.

  double programsPerSecond() const {
    return Seconds > 0 ? static_cast<double>(Programs) / Seconds : 0.0;
  }
  double insnVisitsPerSecond() const {
    return Seconds > 0 ? static_cast<double>(InsnVisits) / Seconds : 0.0;
  }

  /// One-line human-readable summary.
  std::string toString() const;
};

/// Everything a batch run produces.
struct BatchResult {
  /// Results[i] is the verdict of Requests[i].
  std::vector<VerifyResult> Results;
  BatchStats Stats;
  /// The serial-order first rejected request, if any verified request was
  /// rejected. Exact in every mode (see the determinism contract).
  std::optional<size_t> FirstRejected;
};

/// Verifies one request into \p Out (validate -> Analyzer fixpoint) with
/// a caller-owned, reused engine -- the per-worker amortization shared by
/// the batch engine and the tnumsd daemon's workers. Sets Out.Done and
/// fills exactly the fields verifyOne() would. Without \p KeepStates the
/// state table goes back to \p Engine (Analyzer::recycle).
void verifyRequestInto(const VerifyRequest &Request, bool KeepStates,
                       bpf::Analyzer &Engine, VerifyResult &Out);

/// FNV-1a digest of every filled verdict in \p Batch (Done flags,
/// accept/reject, structural errors, violation lists, visit counts) --
/// the cross-jobs/cross-run bit-identity check the tests and the
/// throughput bench both pin. Timing is deliberately excluded. The
/// digest is scheduling-independent for full batches only; under
/// StopAtFirstReject the set of cancelled (Done = false) entries is
/// best-effort, so fingerprints are only comparable with that mode off.
uint64_t verdictFingerprint(const BatchResult &Batch);

/// The batched verification engine. Stateless between batches apart from
/// its configuration; one instance can run any number of batches.
class VerificationService {
public:
  explicit VerificationService(ServiceConfig ConfigV = ServiceConfig())
      : Config(ConfigV) {}

  /// Verifies every request (subject to StopAtFirstReject) and returns
  /// index-aligned results plus aggregate stats.
  BatchResult verifyBatch(const std::vector<VerifyRequest> &Requests) const;

  /// Convenience single-program form (bypasses the pool).
  VerifyResult verifyOne(const VerifyRequest &Request) const;

  const ServiceConfig &config() const { return Config; }

private:
  ServiceConfig Config;
};

} // namespace service
} // namespace tnums

#endif // TNUMS_SERVICE_VERIFICATIONSERVICE_H
