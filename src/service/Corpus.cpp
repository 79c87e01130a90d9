//===- service/Corpus.cpp - Request corpus save/load ----------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "service/Corpus.h"

#include "service/WireProtocol.h"
#include "support/Record.h"
#include "support/Table.h"

#include <cstdio>

using namespace tnums;
using namespace tnums::service;

namespace {

constexpr const char *HeaderLine = "tnums-corpus v1";

std::string diag(const std::string &Name, size_t Line, const std::string &Why) {
  return formatString("%s:%zu: %s", Name.c_str(), Line, Why.c_str());
}

} // namespace

std::string
tnums::service::encodeCorpusText(const std::vector<VerifyRequest> &Requests) {
  std::string Text = HeaderLine;
  Text += '\n';
  for (const VerifyRequest &Request : Requests) {
    Text += hexEncode(encodeRequestCanonical(Request));
    Text += '\n';
  }
  return Text;
}

std::optional<std::vector<VerifyRequest>>
tnums::service::parseCorpusText(const std::string &Text,
                                const std::string &Name, std::string &Error) {
  std::vector<VerifyRequest> Requests;
  std::string_view Rest = Text;
  // No trailing newline after the final line is fine (takeLine).
  for (size_t LineNo = 1; LineNo == 1 || !Rest.empty(); ++LineNo) {
    std::string_view Line = takeLine(Rest);
    if (Line.ends_with('\r'))
      Line.remove_suffix(1); // Tolerate CRLF corpora.
    if (LineNo == 1) {
      if (Line != HeaderLine) {
        Error = diag(Name, LineNo,
                     formatString("expected header \"%s\"", HeaderLine));
        return std::nullopt;
      }
      continue;
    }
    if (Line.empty() || Line[0] == '#')
      continue;

    std::optional<std::string> Bytes = hexDecode(Line);
    if (!Bytes) {
      Error = diag(Name, LineNo, "entry is not lower-case hex");
      return std::nullopt;
    }
    std::string DecodeError;
    std::optional<VerifyRequest> Request =
        decodeRequestCanonical(*Bytes, DecodeError);
    if (!Request) {
      Error = diag(Name, LineNo, "undecodable entry: " + DecodeError);
      return std::nullopt;
    }
    if (std::optional<std::string> Invalid = Request->Prog.validate()) {
      Error = diag(Name, LineNo, "invalid program: " + *Invalid);
      return std::nullopt;
    }
    if (hexEncode(encodeRequestCanonical(*Request)) != Line) {
      Error = diag(Name, LineNo, "entry is not its request's encoding");
      return std::nullopt;
    }
    Requests.push_back(std::move(*Request));
  }
  return Requests;
}

bool tnums::service::saveCorpus(const std::string &Path,
                                const std::vector<VerifyRequest> &Requests,
                                std::string &Error) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File) {
    Error = formatString("cannot open %s for writing", Path.c_str());
    return false;
  }
  std::string Text = encodeCorpusText(Requests);
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), File) == Text.size();
  Ok &= std::fclose(File) == 0;
  if (!Ok)
    Error = formatString("short write to %s", Path.c_str());
  return Ok;
}

std::optional<std::vector<VerifyRequest>>
tnums::service::loadCorpus(const std::string &Path, std::string &Error) {
  std::optional<std::string> Text = readWholeFile(Path);
  if (!Text) {
    Error = formatString("cannot read %s", Path.c_str());
    return std::nullopt;
  }
  return parseCorpusText(*Text, Path, Error);
}
