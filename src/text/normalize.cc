#include "text/normalize.h"

#include <cctype>

#include "util/string_util.h"
#include "util/utf8.h"

namespace wikimatch {
namespace text {

char32_t ToLowerChar(char32_t cp) {
  // ASCII.
  if (cp >= U'A' && cp <= U'Z') return cp + 0x20;
  // Latin-1 Supplement uppercase (À..Þ except ×).
  if (cp >= 0x00C0 && cp <= 0x00DE && cp != 0x00D7) return cp + 0x20;
  // Latin Extended-A and Extended Additional: cased pairs alternate
  // even (upper) / odd (lower) throughout the ranges we care about.
  if ((cp >= 0x0100 && cp <= 0x0177) || (cp >= 0x1E00 && cp <= 0x1EFF)) {
    return (cp % 2 == 0) ? cp + 1 : cp;
  }
  // Ÿ and the irregular tail of Extended-A.
  if (cp == 0x0178) return 0x00FF;
  if (cp == 0x0179 || cp == 0x017B || cp == 0x017D) return cp + 1;
  // Vietnamese horn letters in Extended-B: Ơ, Ư.
  if (cp == 0x01A0) return 0x01A1;
  if (cp == 0x01AF) return 0x01B0;
  return cp;
}

namespace {

// Base letter for Latin-1 Supplement lowercase (0x00DF..0x00FF).
char32_t FoldLatin1(char32_t cp) {
  switch (cp) {
    case 0x00E0: case 0x00E1: case 0x00E2: case 0x00E3:
    case 0x00E4: case 0x00E5:
      return U'a';
    case 0x00E6:
      return U'a';  // æ -> a (approximation; not used in Pt/Vn).
    case 0x00E7:
      return U'c';
    case 0x00E8: case 0x00E9: case 0x00EA: case 0x00EB:
      return U'e';
    case 0x00EC: case 0x00ED: case 0x00EE: case 0x00EF:
      return U'i';
    case 0x00F0:
      return U'd';
    case 0x00F1:
      return U'n';
    case 0x00F2: case 0x00F3: case 0x00F4: case 0x00F5: case 0x00F6:
    case 0x00F8:
      return U'o';
    case 0x00F9: case 0x00FA: case 0x00FB: case 0x00FC:
      return U'u';
    case 0x00FD: case 0x00FF:
      return U'y';
    case 0x00DF:
      return U's';  // ß -> s (approximation).
    default:
      return cp;
  }
}

// Base letter for the Vietnamese block (Latin Extended Additional,
// 0x1EA0..0x1EF9, lowercase forms are odd code points).
char32_t FoldVietnamese(char32_t cp) {
  if (cp >= 0x1EA1 && cp <= 0x1EB7) return U'a';
  if (cp >= 0x1EB9 && cp <= 0x1EC7) return U'e';
  if (cp == 0x1EC9 || cp == 0x1ECB) return U'i';
  if (cp >= 0x1ECD && cp <= 0x1EE3) return U'o';
  if (cp >= 0x1EE5 && cp <= 0x1EF1) return U'u';
  if (cp >= 0x1EF3 && cp <= 0x1EF9) return U'y';
  return cp;
}

// Base letter for Latin Extended-A lowercase forms used in Pt/Vn and common
// European names.
char32_t FoldExtendedA(char32_t cp) {
  if (cp == 0x0101 || cp == 0x0103 || cp == 0x0105) return U'a';
  if (cp == 0x0107 || cp == 0x0109 || cp == 0x010B || cp == 0x010D) return U'c';
  if (cp == 0x010F || cp == 0x0111) return U'd';  // includes Vietnamese đ
  if (cp >= 0x0113 && cp <= 0x011B && cp % 2 == 1) return U'e';
  if (cp >= 0x011D && cp <= 0x0123 && cp % 2 == 1) return U'g';
  if (cp == 0x0125 || cp == 0x0127) return U'h';
  if (cp >= 0x0129 && cp <= 0x0131 && cp % 2 == 1) return U'i';
  if (cp == 0x0135) return U'j';
  if (cp == 0x0137) return U'k';
  if (cp >= 0x013A && cp <= 0x0142) return U'l';
  if (cp == 0x0144 || cp == 0x0146 || cp == 0x0148) return U'n';
  if (cp == 0x014D || cp == 0x014F || cp == 0x0151) return U'o';
  if (cp == 0x0155 || cp == 0x0157 || cp == 0x0159) return U'r';
  if (cp == 0x015B || cp == 0x015D || cp == 0x015F || cp == 0x0161) return U's';
  if (cp == 0x0163 || cp == 0x0165 || cp == 0x0167) return U't';
  if (cp >= 0x0169 && cp <= 0x0173 && cp % 2 == 1) return U'u';
  if (cp == 0x0175) return U'w';
  if (cp == 0x0177) return U'y';
  if (cp == 0x017A || cp == 0x017C || cp == 0x017E) return U'z';
  return cp;
}

}  // namespace

char32_t FoldDiacriticsChar(char32_t cp) {
  cp = ToLowerChar(cp);
  if (cp < 0x80) return cp;
  if (cp <= 0x00FF) return FoldLatin1(cp);
  if (cp <= 0x017F) return FoldExtendedA(cp);
  if (cp == 0x01A1) return U'o';  // ơ
  if (cp == 0x01B0) return U'u';  // ư
  if (cp >= 0x1E00 && cp <= 0x1EFF) return FoldVietnamese(cp);
  return cp;
}

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  while (pos < s.size()) {
    char32_t cp = util::DecodeUtf8Char(s, &pos);
    util::AppendUtf8(ToLowerChar(cp), &out);
  }
  return out;
}

std::string FoldDiacritics(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  while (pos < s.size()) {
    char32_t cp = util::DecodeUtf8Char(s, &pos);
    util::AppendUtf8(FoldDiacriticsChar(cp), &out);
  }
  return out;
}

std::string NormalizeAttributeName(std::string_view s) {
  std::string replaced = util::ReplaceAll(s, "_", " ");
  replaced = util::ReplaceAll(replaced, "-", " ");
  return util::CollapseWhitespace(ToLower(replaced));
}

void AppendNormalizedValue(std::string_view s, std::string* out) {
  // One pass of ToLower then CollapseWhitespace. A lowercased code point
  // at or above 0x80 encodes to bytes at or above 0x80, which are never
  // whitespace, so only ASCII code points can be whitespace.
  const size_t start = out->size();
  bool in_space = true;  // Leading whitespace is dropped.
  size_t pos = 0;
  while (pos < s.size()) {
    char32_t cp = static_cast<unsigned char>(s[pos]);
    if (cp < 0x80) {
      ++pos;
    } else {
      cp = util::DecodeUtf8Char(s, &pos);
    }
    cp = ToLowerChar(cp);
    if (cp < 0x80 && std::isspace(static_cast<int>(cp))) {
      in_space = true;
      continue;
    }
    if (in_space && out->size() > start) out->push_back(' ');
    in_space = false;
    util::AppendUtf8(cp, out);
  }
}

std::string NormalizeValue(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendNormalizedValue(s, &out);
  return out;
}

std::string NormalizeTitle(std::string_view s) {
  std::string replaced = util::ReplaceAll(s, "_", " ");
  return util::CollapseWhitespace(ToLower(replaced));
}

}  // namespace text
}  // namespace wikimatch
