//===- tests/RecordTest.cpp - Persisted record readers --------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every persisted record loads under one rule (support/Record.h): a record
/// is accepted only if its format's writer, given the parsed values,
/// reproduces its bytes. The Record.* tests pin the shared token helpers.
/// The RecordBattery.* tests hold each format to the rule with one
/// mutation battery: starting from a small valid record, every single-byte
/// substitution and insertion of a set of bytes chosen to look like
/// spellings a lenient parser takes (digits, hex letters in both cases,
/// "x", signs, ".", "e", "n", space, tab, newline, CR, NUL) at every
/// position, and every single-byte deletion, must either be refused by the
/// format's narrowest reader or be written back byte for byte by the
/// format's writer from what the reader returned.
///
//===----------------------------------------------------------------------===//

#include "service/Corpus.h"
#include "service/VerdictCache.h"
#include "service/WireProtocol.h"
#include "support/Record.h"
#include "support/Table.h"
#include "verify/Campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <stdlib.h>

using namespace tnums;
using namespace tnums::service;

namespace {

std::string makeTempDir(const char *Prefix) {
  std::string Template = testing::TempDir() + Prefix + "XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  const char *Dir = mkdtemp(Buf.data());
  EXPECT_NE(Dir, nullptr);
  return Dir ? std::string(Dir) : std::string();
}

void spew(const std::string &Path, const std::string &Contents) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr) << Path;
  ASSERT_EQ(std::fwrite(Contents.data(), 1, Contents.size(), File),
            Contents.size());
  std::fclose(File);
}

std::string slurp(const std::string &Path) {
  std::optional<std::string> Contents = readWholeFile(Path);
  EXPECT_TRUE(Contents.has_value()) << Path;
  return Contents.value_or("");
}

/// Every single-byte substitution and insertion of the battery bytes at
/// every position of \p Record, and every single-byte deletion.
std::set<std::string> mutantsOf(const std::string &Record) {
  static const std::string Bytes("019afAFx+-.en \t\n\r\0", 19);
  std::set<std::string> Mutants;
  for (size_t At = 0; At <= Record.size(); ++At) {
    for (char Byte : Bytes) {
      std::string Inserted = Record;
      Inserted.insert(At, 1, Byte);
      Mutants.insert(std::move(Inserted));
      if (At == Record.size() || Record[At] == Byte)
        continue;
      std::string Substituted = Record;
      Substituted[At] = Byte;
      Mutants.insert(std::move(Substituted));
    }
    if (At != Record.size())
      Mutants.insert(std::string(Record).erase(At, 1));
  }
  return Mutants;
}

/// \p Text with every byte outside printable ASCII as \xNN.
std::string escaped(const std::string &Text) {
  std::string Out;
  for (unsigned char C : Text)
    Out += C >= 0x20 && C < 0x7f && C != '\\'
               ? std::string(1, static_cast<char>(C))
               : formatString("\\x%02x", C);
  return Out;
}

/// Tallies one battery: how many mutants the reader accepted, and the
/// accepted ones the writer did not reproduce (reported once, with the
/// first example, so a lenient reader does not print thousands of lines).
class Battery {
public:
  explicit Battery(std::string Format) : Format(std::move(Format)) {}
  ~Battery() {
    EXPECT_EQ(Misread, 0u) << Format << ": " << Misread << " of " << Accepted
                           << " accepted mutants are not what the writer "
                              "writes back, e.g. \""
                           << escaped(Example) << "\"";
    EXPECT_GT(Refused, 0u) << Format << ": the battery refused nothing";
  }
  void refused() { ++Refused; }
  /// An accepted mutant \p Mutant, which the writer wrote back as
  /// \p Written.
  void accepted(const std::string &Mutant, const std::string &Written) {
    ++Accepted;
    if (Written == Mutant)
      return;
    if (Misread++ == 0)
      Example = Mutant;
  }

private:
  std::string Format;
  size_t Refused = 0;
  size_t Accepted = 0;
  size_t Misread = 0;
  std::string Example;
};

//===----------------------------------------------------------------------===//
// The shared helpers
//===----------------------------------------------------------------------===//

TEST(Record, ParseNumberTakesTheWholeTokenAndNothingElse) {
  EXPECT_EQ(parseNumber<uint64_t>("0"), 0u);
  EXPECT_EQ(parseNumber<uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parseNumber<uint64_t>("00ff", 16), 0xffu);
  EXPECT_EQ(parseNumber<int64_t>("-7"), -7);
  EXPECT_EQ(parseNumber<double>("0.25"), 0.25);
  for (const char *Bad : {"", "+5", " 5", "5 ", "-5", "0x5", "5x", "\t5",
                          "18446744073709551616"})
    EXPECT_FALSE(parseNumber<uint64_t>(Bad)) << '"' << Bad << '"';
  EXPECT_FALSE(parseNumber<uint64_t>("0x1f", 16));
  EXPECT_FALSE(parseNumber<double>("+1"));
}

TEST(Record, LinesFieldsAndWordsSplitByPosition) {
  std::string_view Text = "a 1\nkey two words\nlast";
  EXPECT_EQ(takeLine(Text), "a 1");
  EXPECT_EQ(takeField(Text), "two words");
  EXPECT_EQ(takeField(Text), "");
  EXPECT_TRUE(Text.empty());
  EXPECT_EQ(takeLine(Text), "");
  EXPECT_EQ(splitWords("a  b"),
            (std::vector<std::string_view>{"a", "", "b"}));
}

TEST(Record, HexCodecIsLowerCaseOnly) {
  const std::string Bytes("\x00\x7f\x80\xff", 4);
  EXPECT_EQ(hexEncode(Bytes), "007f80ff");
  EXPECT_EQ(hexDecode("007f80ff"), Bytes);
  EXPECT_EQ(hexDecode(""), std::string());
  for (const char *Bad : {"0", "007F", "0g", " 00", "+0"})
    EXPECT_FALSE(hexDecode(Bad)) << Bad;
}

//===----------------------------------------------------------------------===//
// One battery per format
//===----------------------------------------------------------------------===//

TEST(RecordBattery, CheckpointManifest) {
  const std::string Dir = makeTempDir("manifest") + "/ckpt";
  std::string Error;
  ASSERT_TRUE(CheckpointStore::open(Dir, 0xab, 1, Error)) << Error;
  const std::string Path = Dir + "/campaign.manifest";
  const std::string Original = slurp(Path);
  Battery Check("checkpoint manifest");
  for (const std::string &Mutant : mutantsOf(Original)) {
    spew(Path, Mutant);
    if (!CheckpointStore::open(Dir, 0xab, 1, Error))
      Check.refused();
    else // The writer writes Original for this fingerprint and count.
      Check.accepted(Mutant, Original);
  }
}

TEST(RecordBattery, CheckpointShardHeader) {
  // The smallest shard file: the header with an empty payload. Bytes past
  // the header are the payload, which the store hands back unread.
  const std::string Dir = makeTempDir("shards") + "/ckpt";
  const std::string WriterDir = makeTempDir("shards") + "/ckpt";
  std::string Error;
  std::optional<CheckpointStore> Store =
      CheckpointStore::open(Dir, 0xab, 1, Error);
  std::optional<CheckpointStore> Writer =
      CheckpointStore::open(WriterDir, 0xab, 1, Error);
  ASSERT_TRUE(Store && Writer) << Error;
  ShardRecord Record;
  Record.CellFingerprint = 0x1;
  ASSERT_TRUE(Store->storeShard(0, Record, Error)) << Error;
  const std::string Path = Dir + "/shard-00000000.ckpt";
  const std::string Original = slurp(Path);
  Battery Check("checkpoint shard header");
  for (const std::string &Mutant : mutantsOf(Original)) {
    spew(Path, Mutant);
    std::optional<ShardRecord> Loaded = Store->loadShard(0, Error);
    if (!Loaded) {
      EXPECT_FALSE(Error.empty());
      Check.refused();
      continue;
    }
    ASSERT_TRUE(Writer->storeShard(0, *Loaded, Error)) << Error;
    Check.accepted(Mutant, slurp(WriterDir + "/shard-00000000.ckpt"));
  }
}

TEST(RecordBattery, PropertyPayloads) {
  // Each property's smallest payload, and one with every optional line.
  std::vector<CampaignCellResult> Shards;
  auto Add = [&](CampaignProperty Property) -> CampaignCellResult & {
    Shards.emplace_back().Cell.Property = Property;
    return Shards.back();
  };
  for (CampaignProperty Property :
       {CampaignProperty::Soundness, CampaignProperty::Optimality,
        CampaignProperty::Monotonicity, CampaignProperty::Precision})
    Add(Property);
  const Tnum P(1, 2), Q(0, 5);
  CampaignCellResult &Soundness = Add(CampaignProperty::Soundness);
  Soundness.Soundness.PairsChecked = 9;
  Soundness.Soundness.Failure = SoundnessCounterexample{P, Q, 3, 4, 12, P};
  Soundness.Seconds = 0.25;
  CampaignCellResult &Optimality = Add(CampaignProperty::Optimality);
  Optimality.Optimality.Failure = OptimalityCounterexample{P, Q, Q, P};
  Optimality.Seconds = 1e-05;
  CampaignCellResult &Monotonicity = Add(CampaignProperty::Monotonicity);
  Monotonicity.Monotonicity.Failure =
      MonotonicityCounterexample{P, Q, P, Q, Q, P};
  CampaignCellResult &Precision = Add(CampaignProperty::Precision);
  Precision.Precision.PairsChecked = 2;
  Precision.Precision.SumGap = 2;
  Precision.Precision.MaxGap = 2;
  Precision.Precision.Buckets[0] = 1;
  Precision.Precision.Buckets[2] = 1;
  Precision.Precision.Worst = PrecisionWitness{P, Q, Q, P, 2};

  for (const CampaignCellResult &Shard : Shards) {
    const std::string Original = encodePropertyShard(Shard);
    SCOPED_TRACE(Original);
    CampaignCellResult Parsed;
    Parsed.Cell = Shard.Cell;
    ASSERT_TRUE(parsePropertyShard(Original, Parsed));
    Battery Check(campaignPropertyName(Shard.Cell.Property));
    for (const std::string &Mutant : mutantsOf(Original)) {
      CampaignCellResult Got;
      Got.Cell = Shard.Cell;
      if (parsePropertyShard(Mutant, Got))
        Check.accepted(Mutant, encodePropertyShard(Got));
      else
        Check.refused();
    }
  }
}

TEST(RecordBattery, VerdictCacheManifest) {
  const std::string Dir = makeTempDir("vmanifest") + "/cache";
  std::string Error;
  ASSERT_TRUE(VerdictCache::open(Dir, 0x1, Error)) << Error;
  const std::string Path = Dir + "/verdicts.manifest";
  const std::string Original = slurp(Path);
  Battery Check("verdict-cache manifest");
  for (const std::string &Mutant : mutantsOf(Original)) {
    spew(Path, Mutant);
    if (!VerdictCache::open(Dir, 0x1, Error))
      Check.refused();
    else
      Check.accepted(Mutant, Original);
  }
}

TEST(RecordBattery, VerdictCacheEntries) {
  // The smallest entry: a one-instruction request and an empty verdict.
  // A mutant is refused as poison, served, or recognized as a verdict of
  // another version; the last two must be what store() writes for the
  // request, the served verdict and that version.
  constexpr uint64_t Fp = 0x1234;
  const std::string Dir = makeTempDir("ventries") + "/cache";
  const std::string WriterDir = makeTempDir("ventries") + "/cache";
  VerifyRequest Request;
  Request.Prog = bpf::Program(std::vector<bpf::Insn>{bpf::Insn::exit()});
  VerifyResult Result;
  Result.Done = true;
  std::string Error;
  std::unique_ptr<VerdictCache> Cache = VerdictCache::open(Dir, Fp, Error);
  ASSERT_TRUE(Cache) << Error;
  ASSERT_TRUE(Cache->store(Request, Result, Error)) << Error;
  const std::string Name =
      formatString("/verdict-%016llx.vkt",
                   static_cast<unsigned long long>(verdictCacheKey(Request)));
  const std::string Original = slurp(Dir + Name);
  Cache = VerdictCache::open(Dir, Fp, Error);
  ASSERT_TRUE(Cache) << Error;

  auto Written = [&](uint64_t VersionFp, const VerifyResult &Verdict) {
    std::unique_ptr<VerdictCache> Writer =
        VerdictCache::open(WriterDir, VersionFp, Error);
    EXPECT_TRUE(Writer && Writer->store(Request, Verdict, Error)) << Error;
    return slurp(WriterDir + Name);
  };
  Battery Check("verdict-cache entry");
  for (const std::string &Mutant : mutantsOf(Original)) {
    spew(Dir + Name, Mutant);
    const VerdictCacheStats Before = Cache->stats();
    std::optional<VerifyResult> Hit = Cache->lookup(Request);
    const VerdictCacheStats After = Cache->stats();
    if (After.PoisonedRejected != Before.PoisonedRejected) {
      Check.refused();
    } else if (Hit) {
      Check.accepted(Mutant, Written(Fp, *Hit));
      Cache = VerdictCache::open(Dir, Fp, Error); // Forget the served copy.
      ASSERT_TRUE(Cache) << Error;
    } else {
      ASSERT_EQ(After.StaleInvalidated, Before.StaleInvalidated + 1)
          << "neither refused, served nor stale: " << escaped(Mutant);
      const size_t At = Mutant.find("\nversionfp ") + 11;
      Check.accepted(Mutant, Written(std::stoull(Mutant.substr(At, 16),
                                                 nullptr, 16),
                                     Result));
    }
  }
}

/// \p Text as encodeCorpusText would write the requests it holds: without
/// the blank and comment lines and the CRs the format tolerates, and with
/// a final newline.
std::string withoutTolerances(std::string_view Text) {
  std::string Out;
  while (!Text.empty()) {
    std::string_view Line = takeLine(Text);
    if (Line.ends_with('\r'))
      Line.remove_suffix(1);
    if (!Line.empty() && Line[0] != '#')
      Out.append(Line).push_back('\n');
  }
  return Out;
}

TEST(RecordBattery, RequestCorpusEntryLines) {
  VerifyRequest Request;
  Request.Prog = bpf::Program(std::vector<bpf::Insn>{bpf::Insn::exit()});
  const std::string Header = "tnums-corpus v1\n";
  const std::string Text = encodeCorpusText({Request});
  const std::string Line = Text.substr(Header.size(), Text.size() -
                                                          Header.size() - 1);
  Battery Check("request corpus entry line");
  std::string Error;
  for (const std::string &Mutant : mutantsOf(Line)) {
    const std::string Corpus = Header + Mutant + "\n";
    if (std::optional<std::vector<VerifyRequest>> Parsed =
            parseCorpusText(Corpus, "battery", Error))
      Check.accepted(withoutTolerances(Corpus), encodeCorpusText(*Parsed));
    else
      Check.refused();
  }
}

TEST(RecordBattery, WitnessCorpus) {
  const std::vector<WitnessPair> Pairs = {
      {BinaryOp::Mul, MulAlgorithm::Our, 2, Tnum(1, 0), Tnum(0, 2), 1}};
  const std::string Original = encodeWitnessCorpus(Pairs);
  std::string Error;
  ASSERT_EQ(parseWitnessCorpus(Original, "battery", Error), Pairs) << Error;
  Battery Check("witness corpus");
  for (const std::string &Mutant : mutantsOf(Original)) {
    if (std::optional<std::vector<WitnessPair>> Parsed =
            parseWitnessCorpus(Mutant, "battery", Error))
      Check.accepted(Mutant, encodeWitnessCorpus(*Parsed));
    else
      Check.refused();
  }
}

} // namespace
