#include "match/dictionary.h"

namespace wikimatch {
namespace match {
namespace {

// A (from_lang, to_lang, term) key to search entries_ with, no copies.
using KeyView =
    std::tuple<std::string_view, std::string_view, std::string_view>;

}  // namespace

void TranslationDictionary::Build(const wiki::Corpus& corpus) {
  for (wiki::ArticleId id = 0; id < corpus.size(); ++id) {
    const wiki::Article& a = corpus.Get(id);
    for (const auto& [lang, title] : a.cross_language_links) {
      Add(a.language, a.title, lang, title);
      Add(lang, title, a.language, a.title);
    }
  }
}

void TranslationDictionary::Add(const std::string& from_lang,
                                const std::string& term,
                                const std::string& to_lang,
                                const std::string& translation) {
  const KeyView key(from_lang, to_lang, term);
  auto it = entries_.lower_bound(key);
  if (it != entries_.end() && !(key < it->first)) return;  // first wins
  entries_.emplace_hint(it, std::make_tuple(from_lang, to_lang, term),
                        translation);
}

void TranslationDictionary::AddInOrder(std::string from_lang, std::string term,
                                       std::string to_lang,
                                       std::string translation) {
  // emplace_hint inserts nothing when the key is present: first insert wins.
  entries_.emplace_hint(entries_.end(),
                        std::make_tuple(std::move(from_lang),
                                        std::move(to_lang), std::move(term)),
                        std::move(translation));
}

void TranslationDictionary::Put(const std::string& from_lang,
                                const std::string& term,
                                const std::string& to_lang,
                                const std::string& translation) {
  auto it = entries_.find(KeyView(from_lang, to_lang, term));
  if (it != entries_.end()) {
    it->second = translation;
  } else {
    Add(from_lang, term, to_lang, translation);
  }
}

void TranslationDictionary::Erase(const std::string& from_lang,
                                  const std::string& term,
                                  const std::string& to_lang) {
  auto it = entries_.find(KeyView(from_lang, to_lang, term));
  if (it != entries_.end()) entries_.erase(it);
}

std::optional<std::string> TranslationDictionary::Translate(
    const std::string& from_lang, const std::string& term,
    const std::string& to_lang) const {
  auto it = entries_.find(KeyView(from_lang, to_lang, term));
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string TranslationDictionary::TranslateOrKeep(
    const std::string& from_lang, const std::string& term,
    const std::string& to_lang) const {
  auto t = Translate(from_lang, term, to_lang);
  return t.has_value() ? *t : term;
}

}  // namespace match
}  // namespace wikimatch
