//===- support/Record.cpp - Reading persisted line records ----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "support/Record.h"

#include <cstdio>

using namespace tnums;

std::optional<std::string> tnums::readWholeFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return std::nullopt;
  std::string Text;
  char Buffer[64 * 1024];
  while (size_t Got = std::fread(Buffer, 1, sizeof(Buffer), File))
    Text.append(Buffer, Got);
  const bool Failed = std::ferror(File) != 0;
  std::fclose(File);
  return Failed ? std::nullopt : std::optional<std::string>(std::move(Text));
}

std::string_view tnums::takeLine(std::string_view &Text) {
  const size_t Eol = Text.find('\n');
  std::string_view Line = Text.substr(0, Eol);
  Text.remove_prefix(Eol == std::string_view::npos ? Text.size() : Eol + 1);
  return Line;
}

std::string_view tnums::takeField(std::string_view &Text) {
  std::string_view Line = takeLine(Text);
  const size_t Space = Line.find(' ');
  return Space == std::string_view::npos ? std::string_view()
                                         : Line.substr(Space + 1);
}

std::vector<std::string_view> tnums::splitWords(std::string_view Line) {
  std::vector<std::string_view> Words;
  for (size_t Space; (Space = Line.find(' ')) != std::string_view::npos;) {
    Words.push_back(Line.substr(0, Space));
    Line.remove_prefix(Space + 1);
  }
  Words.push_back(Line);
  return Words;
}

std::string tnums::hexEncode(std::string_view Bytes) {
  static constexpr char Digits[] = "0123456789abcdef";
  std::string Hex;
  Hex.reserve(Bytes.size() * 2);
  for (unsigned char Byte : Bytes) {
    Hex.push_back(Digits[Byte >> 4]);
    Hex.push_back(Digits[Byte & 0xF]);
  }
  return Hex;
}

std::optional<std::string> tnums::hexDecode(std::string_view Hex) {
  if (Hex.size() % 2 != 0 ||
      Hex.find_first_not_of("0123456789abcdef") != std::string_view::npos)
    return std::nullopt;
  std::string Bytes;
  for (size_t I = 0; I != Hex.size(); I += 2)
    Bytes.push_back(
        static_cast<char>(*parseNumber<uint8_t>(Hex.substr(I, 2), 16)));
  return Bytes;
}
