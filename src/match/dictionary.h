// Automatically-derived translation dictionary (Section 3.2).
//
// For each article A in language L with a cross-language link to article A'
// in L', the dictionary learns title(A) -> title(A'). No external resource
// is used — this is the paper's replacement for bilingual dictionaries and
// machine translation.

#ifndef WIKIMATCH_MATCH_DICTIONARY_H_
#define WIKIMATCH_MATCH_DICTIONARY_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>

#include "wiki/corpus.h"

namespace wikimatch {
namespace match {

/// \brief Title-level translation dictionary built from cross-language links.
class TranslationDictionary {
 public:
  /// (from_lang, to_lang, term) -> translation, sorted by key. Lookups go
  /// through string_view tuples, so none copies its arguments.
  using Entries =
      std::map<std::tuple<std::string, std::string, std::string>, std::string,
               std::less<>>;

  TranslationDictionary() = default;

  /// \brief Scans the corpus and records every (L title -> L' title) pair
  /// implied by a cross-language link, in both directions.
  ///
  /// Call after Corpus::Finalize() so links are symmetrized.
  void Build(const wiki::Corpus& corpus);

  /// \brief Adds one entry (used by tests and by the COMA++ baseline's
  /// synthetic-MT configuration).
  void Add(const std::string& from_lang, const std::string& term,
           const std::string& to_lang, const std::string& translation);

  /// \brief Add for entries that arrive in ascending key order, such as a
  /// decoded EncodeDictionary stream: each insert is then constant time.
  /// Any order gives the same result as Add, only slower.
  void AddInOrder(std::string from_lang, std::string term, std::string to_lang,
                  std::string translation);

  /// \brief Inserts or overwrites one entry (incremental maintenance).
  /// Unlike Add, an existing entry for the key is replaced.
  void Put(const std::string& from_lang, const std::string& term,
           const std::string& to_lang, const std::string& translation);

  /// \brief Removes the entry for the key, if present.
  void Erase(const std::string& from_lang, const std::string& term,
             const std::string& to_lang);

  /// \brief Translation of `term` (normalized title form) from `from_lang`
  /// to `to_lang`, or nullopt when unknown.
  std::optional<std::string> Translate(const std::string& from_lang,
                                       const std::string& term,
                                       const std::string& to_lang) const;

  /// \brief Translates when possible, otherwise returns `term` unchanged —
  /// the construction of the translated value vector v_t_a.
  std::string TranslateOrKeep(const std::string& from_lang,
                              const std::string& term,
                              const std::string& to_lang) const;

  /// \brief Total number of directed entries.
  size_t size() const { return entries_.size(); }

  /// \brief All entries: (from_lang, to_lang, term) -> translation.
  const Entries& entries() const { return entries_; }

 private:
  Entries entries_;
};

}  // namespace match
}  // namespace wikimatch

#endif  // WIKIMATCH_MATCH_DICTIONARY_H_
