//===- service/Corpus.h - Request corpus save/load --------------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A durable, line-oriented corpus of verification requests, so a fuzz
/// campaign's program stream can be dumped once and replayed exactly --
/// across runs, machines, and code changes (regression corpora for
/// findings, seed corpora for CI smokes).
///
/// Format ("tnums-corpus v1", locked by tests/CorpusTest.cpp):
///
///   tnums-corpus v1
///   # any number of comment / blank lines anywhere after the header
///   <lower-case hex of encodeRequestCanonical(request)>
///   ...
///
/// Each entry is the canonical request encoding (WireProtocol.h) in hex,
/// one request per line -- the same bytes the wire protocol submits and
/// the VerdictCache keys on, so a corpus line identifies a verdict the
/// same way every other subsystem does. Text + hex keeps corpora
/// greppable, diffable, and safely versionable.
///
/// Loading is strict: a bad header, or an entry line that is not what
/// encodeCorpusText writes for the request it decodes to (upper case, a
/// stray character, odd length, undecodable bytes), fails the whole load
/// with a "<name>:<line>: why" diagnostic, and every decoded program must
/// pass Program::validate(). Comment and blank lines, CRLF and a missing
/// final newline are the only tolerances. A corpus either replays exactly
/// or is refused -- no silent skips.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_SERVICE_CORPUS_H
#define TNUMS_SERVICE_CORPUS_H

#include "service/VerificationService.h"

#include <optional>
#include <string>
#include <vector>

namespace tnums {
namespace service {

/// The corpus text for \p Requests: header line plus one hex-encoded
/// canonical request per line.
std::string encodeCorpusText(const std::vector<VerifyRequest> &Requests);

/// Parses corpus text. \p Name labels diagnostics (usually the file
/// path). nullopt with a "<name>:<line>: why" diagnostic in \p Error on
/// any malformed input; entries are canonical-decoded and their programs
/// re-validated, so every returned request is structurally sound.
std::optional<std::vector<VerifyRequest>>
parseCorpusText(const std::string &Text, const std::string &Name,
                std::string &Error);

/// Writes \p Requests to \p Path atomically enough for corpora (write,
/// then close; no temp-file dance -- corpora are developer artifacts).
/// False with \p Error set on I/O failure.
bool saveCorpus(const std::string &Path,
                const std::vector<VerifyRequest> &Requests,
                std::string &Error);

/// Reads and parses \p Path. nullopt with \p Error set on I/O failure or
/// any parse failure (see parseCorpusText).
std::optional<std::vector<VerifyRequest>> loadCorpus(const std::string &Path,
                                                     std::string &Error);

} // namespace service
} // namespace tnums

#endif // TNUMS_SERVICE_CORPUS_H
