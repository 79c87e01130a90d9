//===- support/Record.h - Reading persisted line records --------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the readers of persisted records share: checkpoint manifests and
/// shard headers, campaign shard payloads, verdict-cache files, request
/// corpora and witness corpora. Each loads under one rule: a record is
/// accepted only if its format's writer, given the parsed values,
/// reproduces its bytes. A reader splits the record, parses its tokens
/// with these helpers, makes the checks a round trip cannot make (ranges,
/// the expected key or fingerprint), and compares once. The compare
/// refuses a sign, a space, a "0x", a leading zero, upper-case hex, a
/// short hex word, a duplicate or unknown key, a stray line and trailing
/// bytes, so the helpers may be lenient: no line's key is checked while
/// parsing.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_SUPPORT_RECORD_H
#define TNUMS_SUPPORT_RECORD_H

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tnums {

/// The whole file at \p Path; nullopt when it cannot be opened or read.
std::optional<std::string> readWholeFile(const std::string &Path);

/// Pops the first line off \p Text and returns it without its newline.
std::string_view takeLine(std::string_view &Text);

/// Pops the first line of a "<key> <value>" record off \p Text and returns
/// what follows its first space (empty when it has none).
std::string_view takeField(std::string_view &Text);

/// \p Line split at every space; two spaces in a row give an empty word.
std::vector<std::string_view> splitWords(std::string_view Line);

/// The whole of \p Token as a T: an integer in \p Base, or a decimal
/// floating-point value. std::from_chars takes no space, "+" or "0x", and
/// no "-" for an unsigned T; nullopt on those, an empty token, trailing
/// characters and overflow.
template <typename T>
std::optional<T> parseNumber(std::string_view Token, int Base = 10) {
  if (Token.empty())
    return std::nullopt;
  T Value{};
  const char *End = Token.data() + Token.size();
  std::from_chars_result Got;
  if constexpr (std::is_floating_point_v<T>)
    Got = std::from_chars(Token.data(), End, Value);
  else
    Got = std::from_chars(Token.data(), End, Value, Base);
  if (Got.ec != std::errc() || Got.ptr != End)
    return std::nullopt;
  return Value;
}

/// Pops a "<key> <number>" line off \p Text into \p Out; false when its
/// value is not a number.
template <typename T>
bool takeNumber(std::string_view &Text, T &Out, int Base = 10) {
  std::optional<T> Value = parseNumber<T>(takeField(Text), Base);
  if (Value)
    Out = *Value;
  return Value.has_value();
}

/// \p Bytes as lower-case hex, two digits a byte.
std::string hexEncode(std::string_view Bytes);

/// The bytes \p Hex spells as hexEncode writes them; nullopt on an odd
/// length or any character but 0-9 and a-f.
std::optional<std::string> hexDecode(std::string_view Hex);

} // namespace tnums

#endif // TNUMS_SUPPORT_RECORD_H
