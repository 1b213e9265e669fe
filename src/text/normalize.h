// Unicode-aware normalization for attribute names, values, and titles.
//
// Covers the Latin repertoire used by English, Portuguese, and Vietnamese:
// simple case folding for ASCII, Latin-1 Supplement, Latin Extended-A, and
// Latin Extended Additional (the Vietnamese block), plus diacritics folding
// to ASCII base letters. Full Unicode tables are not required for this
// corpus; the mapping here is exact for the languages under study.

#ifndef WIKIMATCH_TEXT_NORMALIZE_H_
#define WIKIMATCH_TEXT_NORMALIZE_H_

#include <string>
#include <string_view>

namespace wikimatch {
namespace text {

/// \brief Lowercases one code point (ASCII + Latin blocks incl. Vietnamese).
char32_t ToLowerChar(char32_t cp);

/// \brief Strips diacritics from one code point, returning the ASCII base
/// letter (e.g. U+00E9 'é' -> 'e', U+1EC5 'ễ' -> 'e'); non-letters and
/// unmapped code points pass through.
char32_t FoldDiacriticsChar(char32_t cp);

/// \brief Lowercases a UTF-8 string.
std::string ToLower(std::string_view s);

/// \brief Lowercases and strips diacritics from a UTF-8 string.
std::string FoldDiacritics(std::string_view s);

/// \brief Canonical attribute-name form: lowercase, underscores/hyphens to
/// spaces, whitespace collapsed, trimmed. Diacritics are preserved (they are
/// meaningful in attribute names like `direção`).
std::string NormalizeAttributeName(std::string_view s);

/// \brief Canonical value form: lowercase, whitespace collapsed, trimmed.
std::string NormalizeValue(std::string_view s);

/// \brief Appends NormalizeValue(s) to `out` without a temporary.
void AppendNormalizedValue(std::string_view s, std::string* out);

/// \brief Canonical article-title form per MediaWiki: first letter
/// capitalized is ignored (we lowercase), underscores become spaces,
/// whitespace collapsed.
std::string NormalizeTitle(std::string_view s);

}  // namespace text
}  // namespace wikimatch

#endif  // WIKIMATCH_TEXT_NORMALIZE_H_
