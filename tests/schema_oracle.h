// Reference schema builder for differential tests: BuildTypePairData
// before it memoized translations, term ids and link canonicalization per
// build and counted co-occurrence in a dense matrix. It translates, interns
// and canonicalizes every component and link target at every occurrence,
// looks each attribute's group up twice and counts co-occurrence straight
// into the ordered map; it is kept here only to pin the memoized builder's
// TypePairData, group for group and count for count.

#ifndef WIKIMATCH_TESTS_SCHEMA_ORACLE_H_
#define WIKIMATCH_TESTS_SCHEMA_ORACLE_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "match/dictionary.h"
#include "match/schema_builder.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace schema_oracle {

using match::AttributeGroup;
using match::SchemaBuilderOptions;
using match::TranslationDictionary;
using match::TypePairData;
using match::ValueComponents;

// Canonical id of a link target: articles joined by a cross-language link
// share one id. We canonicalize to the lexicographically-smallest
// (language, title) among the target and its cross-language partners, so
// the canonical form is direction-independent.
inline std::string CanonicalLinkTarget(const wiki::Corpus& corpus,
                                       const std::string& lang,
                                       const std::string& target) {
  wiki::ArticleId id = corpus.FindByTitle(lang, target);
  if (id == wiki::kInvalidArticle) return lang + "\x1f" + target;
  const wiki::Article& article = corpus.Get(id);
  std::string best = article.language + "\x1f" + article.title;
  for (const auto& [other_lang, other_title] : article.cross_language_links) {
    std::string candidate = other_lang + "\x1f" + other_title;
    if (candidate < best) best = candidate;
  }
  return best;
}

inline util::Result<TypePairData> BuildTypePairData(
    const wiki::Corpus& corpus, const TranslationDictionary& dictionary,
    const std::string& lang_a, const std::string& type_a,
    const std::string& lang_b, const std::string& type_b,
    const SchemaBuilderOptions& options = {}) {
  TypePairData data;
  data.lang_a = lang_a;
  data.lang_b = lang_b;
  data.type_a = type_a;
  data.type_b = type_b;

  // Collect the dual pairs: lang_a infoboxes of type_a linked to lang_b
  // infoboxes of type_b.
  std::vector<std::pair<wiki::ArticleId, wiki::ArticleId>> duals;
  for (wiki::ArticleId id : corpus.ArticlesOfType(lang_a, type_a)) {
    wiki::ArticleId other = corpus.CrossLanguageTarget(id, lang_b);
    if (other == wiki::kInvalidArticle) continue;
    const wiki::Article& b = corpus.Get(other);
    if (!b.infobox.has_value() || b.entity_type != type_b) continue;
    duals.emplace_back(id, other);
  }
  if (duals.empty()) {
    return util::Status::NotFound("no dual-language infoboxes for " + lang_a +
                                  ":" + type_a + " / " + lang_b + ":" +
                                  type_b);
  }
  if (options.max_sample_infoboxes > 0 &&
      duals.size() > options.max_sample_infoboxes) {
    duals.resize(options.max_sample_infoboxes);
  }
  data.num_duals = duals.size();

  la::TermDictionary& value_terms = data.value_terms;
  la::TermDictionary link_terms;
  std::map<eval::AttrKey, size_t> group_index;

  auto group_of = [&](const eval::AttrKey& key) -> AttributeGroup& {
    auto it = group_index.find(key);
    if (it == group_index.end()) {
      it = group_index.emplace(key, data.groups.size()).first;
      AttributeGroup g;
      g.key = key;
      data.groups.push_back(std::move(g));
    }
    return data.groups[it->second];
  };

  // Per-infobox attribute sets, kept for mono-language co-occurrence.
  std::vector<std::vector<size_t>> infobox_groups;

  for (uint32_t dual = 0; dual < duals.size(); ++dual) {
    for (int side = 0; side < 2; ++side) {
      wiki::ArticleId id = side == 0 ? duals[dual].first : duals[dual].second;
      const std::string& lang = side == 0 ? lang_a : lang_b;
      const wiki::Article& article = corpus.Get(id);
      const wiki::Infobox& box = article.infobox.value();

      std::set<std::string> seen_attrs;
      std::vector<size_t> present;
      for (const auto& [attr, value] : box.attributes) {
        eval::AttrKey key{lang, attr};
        AttributeGroup& group = group_of(key);
        size_t gi = group_index[key];
        if (seen_attrs.insert(attr).second) {
          group.occurrences += 1.0;
          group.dual_docs.insert(dual);
          present.push_back(gi);
        }
        // Value components, translated into lang_b when on the lang_a side.
        for (std::string component : ValueComponents(value)) {
          if (options.translate_values && lang == lang_a &&
              lang_a != lang_b) {
            component =
                dictionary.TranslateOrKeep(lang_a, component, lang_b);
          }
          group.values.Add(value_terms.GetOrAdd(component), 1.0);
        }
        // Link structure: canonicalized targets.
        for (const auto& link : value.links) {
          std::string canon = CanonicalLinkTarget(corpus, lang, link.target);
          group.links.Add(link_terms.GetOrAdd(canon), 1.0);
        }
      }
      // Mono-language co-occurrence counts.
      std::sort(present.begin(), present.end());
      for (size_t i = 0; i < present.size(); ++i) {
        for (size_t j = i + 1; j < present.size(); ++j) {
          data.co_occur[{present[i], present[j]}] += 1.0;
        }
      }
      infobox_groups.push_back(std::move(present));
    }
  }

  // Drop attributes under the occurrence floor.
  if (options.min_occurrences > 1) {
    std::vector<AttributeGroup> kept;
    std::vector<size_t> remap(data.groups.size(), SIZE_MAX);
    for (size_t i = 0; i < data.groups.size(); ++i) {
      if (data.groups[i].occurrences >=
          static_cast<double>(options.min_occurrences)) {
        remap[i] = kept.size();
        kept.push_back(std::move(data.groups[i]));
      }
    }
    std::map<std::pair<size_t, size_t>, double> new_co;
    for (const auto& [key, count] : data.co_occur) {
      size_t i = remap[key.first];
      size_t j = remap[key.second];
      if (i == SIZE_MAX || j == SIZE_MAX) continue;
      new_co[{std::min(i, j), std::max(i, j)}] = count;
    }
    data.groups = std::move(kept);
    data.co_occur = std::move(new_co);
  }

  // Deterministic group order: lang_a groups first, then lang_b, each by
  // name; remap co-occurrence keys accordingly.
  std::vector<size_t> order(data.groups.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const eval::AttrKey& kx = data.groups[x].key;
    const eval::AttrKey& ky = data.groups[y].key;
    bool ax = kx.language == lang_a;
    bool ay = ky.language == lang_a;
    if (ax != ay) return ax;
    return kx.name < ky.name;
  });
  std::vector<size_t> inverse(order.size());
  for (size_t pos = 0; pos < order.size(); ++pos) inverse[order[pos]] = pos;
  std::vector<AttributeGroup> sorted;
  sorted.reserve(order.size());
  for (size_t pos = 0; pos < order.size(); ++pos) {
    sorted.push_back(std::move(data.groups[order[pos]]));
  }
  data.groups = std::move(sorted);
  std::map<std::pair<size_t, size_t>, double> remapped_co;
  for (const auto& [key, count] : data.co_occur) {
    size_t i = inverse[key.first];
    size_t j = inverse[key.second];
    remapped_co[{std::min(i, j), std::max(i, j)}] = count;
  }
  data.co_occur = std::move(remapped_co);

  return data;
}

}  // namespace schema_oracle
}  // namespace wikimatch

#endif  // WIKIMATCH_TESTS_SCHEMA_ORACLE_H_
