//===- tests/CorpusTest.cpp - Request corpus format tests -----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks the "tnums-corpus v1" format (service/Corpus.h): encode/parse and
/// save/load round-trip requests bit-exactly (canonical-encoding
/// identity), comments / blank lines / CRLF / a missing final newline are
/// tolerated, and every malformed input -- bad header, odd-length,
/// non-hex or upper-case entry, undecodable bytes, structurally invalid
/// program -- fails the WHOLE load with a "<name>:<line>:" diagnostic. A
/// corpus either replays exactly or is refused.
///
//===----------------------------------------------------------------------===//

#include "service/Corpus.h"

#include "service/ProgramGen.h"
#include "service/WireProtocol.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include <stdlib.h>

using namespace tnums;
using namespace tnums::service;

namespace {

std::vector<VerifyRequest> makeRequests(uint64_t Seed, uint64_t Count,
                                        GenProfile Profile) {
  GenOptions Opts;
  Opts.Profile = Profile;
  ProgramGen Gen(Seed, Opts);
  std::vector<VerifyRequest> Requests;
  for (uint64_t I = 0; I != Count; ++I) {
    VerifyRequest Request;
    Request.Prog = Gen.next();
    Request.MemSize = Opts.MemSize;
    Requests.push_back(std::move(Request));
  }
  return Requests;
}

/// Requests are value-equal iff their canonical encodings are: that is the
/// format's identity, and the one replay relies on.
void expectSameRequests(const std::vector<VerifyRequest> &A,
                        const std::vector<VerifyRequest> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_EQ(encodeRequestCanonical(A[I]), encodeRequestCanonical(B[I]))
        << "request " << I;
}

TEST(Corpus, EncodeParseRoundTripIsExact) {
  std::vector<VerifyRequest> Requests =
      makeRequests(11, 50, GenProfile::Mixed);
  std::string Text = encodeCorpusText(Requests);
  EXPECT_EQ(Text.compare(0, 16, "tnums-corpus v1\n"), 0);

  std::string Error;
  std::optional<std::vector<VerifyRequest>> Parsed =
      parseCorpusText(Text, "mem", Error);
  ASSERT_TRUE(Parsed) << Error;
  expectSameRequests(Requests, *Parsed);
  // And the round trip is a fixpoint: re-encoding reproduces the text.
  EXPECT_EQ(encodeCorpusText(*Parsed), Text);
}

TEST(Corpus, SaveLoadRoundTripsThroughAFile) {
  std::string Template = testing::TempDir() + "corpusXXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  ASSERT_NE(mkdtemp(Buf.data()), nullptr);
  std::string Path = std::string(Buf.data()) + "/seed.corpus";

  std::vector<VerifyRequest> Requests =
      makeRequests(13, 25, GenProfile::MaskIdx);
  std::string Error;
  ASSERT_TRUE(saveCorpus(Path, Requests, Error)) << Error;
  std::optional<std::vector<VerifyRequest>> Loaded = loadCorpus(Path, Error);
  ASSERT_TRUE(Loaded) << Error;
  expectSameRequests(Requests, *Loaded);
}

TEST(Corpus, ToleratesCommentsBlanksCrlfAndMissingFinalNewline) {
  std::vector<VerifyRequest> Requests = makeRequests(17, 3, GenProfile::Mixed);
  std::string Text = encodeCorpusText(Requests);

  // Dress the text up with everything the format tolerates.
  size_t FirstEntry = Text.find('\n') + 1;
  Text.insert(FirstEntry, "# a comment\n\n");
  std::string Crlf;
  for (char C : Text)
    Crlf += C == '\n' ? std::string("\r\n") : std::string(1, C);
  Crlf.pop_back(); // ...including no newline after the final line.
  Crlf.pop_back();

  std::string Error;
  std::optional<std::vector<VerifyRequest>> Parsed =
      parseCorpusText(Crlf, "dressed", Error);
  ASSERT_TRUE(Parsed) << Error;
  expectSameRequests(Requests, *Parsed);
}

TEST(Corpus, RefusesBadHeader) {
  std::string Error;
  EXPECT_FALSE(parseCorpusText("tnums-corpus v2\n", "f", Error));
  EXPECT_NE(Error.find("f:1:"), std::string::npos) << Error;
  Error.clear();
  EXPECT_FALSE(parseCorpusText("", "empty", Error));
  EXPECT_NE(Error.find("empty:1:"), std::string::npos) << Error;
}

TEST(Corpus, RefusesMalformedEntriesWithLineDiagnostics) {
  std::vector<VerifyRequest> Requests = makeRequests(19, 1, GenProfile::Mixed);
  std::string Good = encodeCorpusText(Requests);
  std::string Error;

  // Odd-length hex on line 3 (line 2 is a valid entry).
  EXPECT_FALSE(parseCorpusText(Good + "abc\n", "odd", Error));
  EXPECT_NE(Error.find("odd:3:"), std::string::npos) << Error;

  // A non-hex character.
  Error.clear();
  EXPECT_FALSE(parseCorpusText(Good + "zz\n", "hex", Error));
  EXPECT_NE(Error.find("hex:3:"), std::string::npos) << Error;

  // Valid hex that is not a canonical request.
  Error.clear();
  EXPECT_FALSE(parseCorpusText(Good + "deadbeef\n", "undec", Error));
  EXPECT_NE(Error.find("undec:3:"), std::string::npos) << Error;

  // A valid entry in upper case: not what encodeCorpusText writes.
  std::string Upper = Good;
  for (size_t I = Upper.find('\n'); I != Upper.size(); ++I)
    Upper[I] = static_cast<char>(std::toupper(Upper[I]));
  ASSERT_NE(Upper, Good);
  Error.clear();
  EXPECT_FALSE(parseCorpusText(Upper, "upper", Error));
  EXPECT_NE(Error.find("upper:2:"), std::string::npos) << Error;

  // The good entries do not rescue a malformed load: nothing is returned.
  // (Asserted by the nullopt results above -- all or nothing.)
}

TEST(Corpus, RefusesStructurallyInvalidPrograms) {
  // A canonically-encodable request whose program fails validate() (no
  // terminating exit): the wire codec accepts the bytes, the corpus
  // loader must still refuse the entry.
  VerifyRequest Bad;
  Bad.Prog = bpf::Program(std::vector<bpf::Insn>{bpf::Insn::movImm(bpf::R0, 0)});
  Bad.MemSize = 32;
  ASSERT_TRUE(Bad.Prog.validate().has_value());
  std::string Error;
  EXPECT_FALSE(
      parseCorpusText(encodeCorpusText({Bad}), "invalid", Error));
  EXPECT_NE(Error.find("invalid:2:"), std::string::npos) << Error;
}

TEST(Corpus, LoadFailsCleanlyOnMissingFile) {
  std::string Error;
  EXPECT_FALSE(loadCorpus("/nonexistent/no.corpus", Error));
  EXPECT_FALSE(Error.empty());
}

} // namespace
