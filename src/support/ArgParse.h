//===- support/ArgParse.h - Tiny bench-driver argv parser -------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small argv cursor shared by the bench drivers, replacing
/// the bounded strtol loops that were copy-pasted into each of them. The
/// pattern every driver follows:
///
/// \code
///   ArgParser Args(Argc, Argv);
///   while (Args.more()) {
///     if (Args.matchUnsigned("--width", 1, 16, Width)) continue;
///     if (Args.matchJobs(Jobs)) continue;
///     if (Args.matchFlag("--csv")) { Csv = true; continue; }
///     Args.reject(); // unknown argument
///   }
///   if (Args.failed()) { print usage; return 1; }
/// \endcode
///
/// match* helpers return true when they consumed the current argument
/// (even if its value failed to parse -- the parser then latches the error
/// so one failed() check at the end covers every diagnostic).
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_SUPPORT_ARGPARSE_H
#define TNUMS_SUPPORT_ARGPARSE_H

#include <cstdint>
#include <optional>

namespace tnums {

/// Parses \p Text as a base-10 integer confined to [\p Min, \p Max];
/// nullopt on any syntax error, stray suffix, "-", or range violation. It
/// reads a command line, so like strtoull it takes leading whitespace, a
/// "+" and leading zeros; stored records are read with support/Record.h.
std::optional<uint64_t> parseBoundedU64(const char *Text, uint64_t Min,
                                        uint64_t Max);

/// Cursor over argv[1..Argc). See the file comment for the usage pattern.
class ArgParser {
public:
  ArgParser(int Argc, char **Argv) : Argc(Argc), Argv(Argv) {}

  /// True while arguments remain and no error has latched.
  bool more() const { return Index < Argc && !Error; }

  /// True once any argument was rejected or failed to parse.
  bool failed() const { return Error; }

  /// Consumes the current argument if it equals \p Name (a bare flag).
  bool matchFlag(const char *Name);

  /// Consumes "\p Name N" (or "\p Name=N") with N in [\p Min, \p Max].
  /// Returns true if \p Name matched; a bad or missing value latches the
  /// error. Out is written only on success.
  bool matchUnsigned(const char *Name, unsigned Min, unsigned Max,
                     unsigned &Out);

  /// 64-bit form of matchUnsigned for large counts (--programs, --pairs).
  bool matchU64(const char *Name, uint64_t Min, uint64_t Max, uint64_t &Out);

  /// Consumes "\p Name TEXT" (or "\p Name=TEXT"); the pointee stays owned
  /// by argv.
  bool matchString(const char *Name, const char *&Out);

  /// The shared "--jobs N" convention of every parallel bench driver:
  /// bounded to [0, 1024], where 0 keeps SweepConfig's meaning of
  /// "hardware concurrency".
  bool matchJobs(unsigned &Jobs) { return matchUnsigned("--jobs", 0, 1024, Jobs); }

  /// Rejects the current argument (unknown option): latches the error.
  void reject() { Error = true; }

private:
  /// Outcome of matching the cursor against a valued option name.
  enum class Match : uint8_t {
    None,  ///< Not this option (includes longer options sharing a prefix).
    Value, ///< Consumed; the value text was produced.
    Error, ///< Consumed, but the value is missing; the error is latched.
  };

  /// Matches "\p Name v" / "\p Name=v" at the cursor, consuming it on
  /// Match::Value/Error and writing the value text to \p Text on
  /// Match::Value.
  Match takeValue(const char *Name, const char *&Text);

  int Argc;
  char **Argv;
  int Index = 1;
  bool Error = false;
};

} // namespace tnums

#endif // TNUMS_SUPPORT_ARGPARSE_H
