#include "match/schema_builder.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "text/normalize.h"
#include "text/tokenizer.h"

namespace wikimatch {
namespace match {

size_t TypePairData::GroupIndex(const eval::AttrKey& key) const {
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].key == key) return i;
  }
  return SIZE_MAX;
}

eval::AttrFrequencies TypePairData::Frequencies() const {
  eval::AttrFrequencies freq;
  for (const auto& g : groups) freq[g.key] = g.occurrences;
  return freq;
}

std::vector<std::string> ValueComponents(const wiki::AttributeValue& value) {
  std::vector<std::string> out;
  for (const auto& token : text::Tokenize(value.text)) out.push_back(token);
  for (const auto& link : value.links) {
    std::string anchor = text::NormalizeValue(link.anchor);
    if (!anchor.empty()) out.push_back(anchor);
  }
  return out;
}

namespace {

// Canonical id of a link target: articles joined by a cross-language link
// share one id. We canonicalize to the lexicographically-smallest
// (language, title) among the target and its cross-language partners, so
// the canonical form is direction-independent.
std::string CanonicalLinkTarget(const wiki::Corpus& corpus,
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

}  // namespace

util::Result<TypePairData> BuildTypePairData(
    const wiki::Corpus& corpus, const TranslationDictionary& dictionary,
    const std::string& lang_a, const std::string& type_a,
    const std::string& lang_b, const std::string& type_b,
    const SchemaBuilderOptions& options) {
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
  // Per-side memos of this build: a value component or link target seen
  // before on the same side reuses the term id of its first occurrence.
  // Only first occurrences translate, canonicalize and intern, and they
  // reach the term dictionaries in traversal order, so every id is the one
  // a per-occurrence build assigns.
  std::unordered_map<std::string, uint32_t> value_ids[2];
  std::unordered_map<std::string, uint32_t> link_ids[2];
  // Attribute name -> group index per language; sides that share a
  // language share their groups.
  std::unordered_map<std::string, size_t> group_index[2];
  // Per group: 1 + the ordinal of the last infobox that counted it, and
  // the value and link term id of every occurrence (the group's vectors
  // are filled from them once, at the end).
  struct GroupHits {
    size_t last_counted = 0;
    std::vector<uint32_t> values;
    std::vector<uint32_t> links;
  };
  std::vector<GroupHits> hits;
  // Groups of each infobox, back to back, for co-occurrence below.
  std::vector<size_t> present;
  std::vector<size_t> present_end;

  for (uint32_t dual = 0; dual < duals.size(); ++dual) {
    for (int side = 0; side < 2; ++side) {
      wiki::ArticleId id = side == 0 ? duals[dual].first : duals[dual].second;
      const std::string& lang = side == 0 ? lang_a : lang_b;
      const wiki::Infobox& box = corpus.Get(id).infobox.value();
      const bool translate =
          side == 0 && options.translate_values && lang_a != lang_b;
      auto& groups_of_lang = group_index[lang_a == lang_b ? 0 : side];
      const size_t stamp = 2 * size_t{dual} + side + 1;

      for (const auto& [attr, value] : box.attributes) {
        auto [slot, fresh] = groups_of_lang.try_emplace(attr, 0);
        if (fresh) {
          slot->second = data.groups.size();
          AttributeGroup g;
          g.key = eval::AttrKey{lang, attr};
          data.groups.push_back(std::move(g));
          hits.emplace_back();
        }
        const size_t gi = slot->second;
        AttributeGroup& group = data.groups[gi];
        GroupHits& group_hits = hits[gi];
        if (group_hits.last_counted != stamp) {
          group_hits.last_counted = stamp;
          group.occurrences += 1.0;
          group.dual_docs.insert(group.dual_docs.end(), dual);
          present.push_back(gi);
        }
        // Value components, translated into lang_b when on the lang_a side.
        for (std::string& component : ValueComponents(value)) {
          auto [term, first] = value_ids[side].try_emplace(
              std::move(component), 0);
          if (first) {
            term->second = value_terms.GetOrAdd(
                translate
                    ? dictionary.TranslateOrKeep(lang_a, term->first, lang_b)
                    : term->first);
          }
          group_hits.values.push_back(term->second);
        }
        // Link structure: canonicalized targets.
        for (const auto& link : value.links) {
          auto [term, first] = link_ids[side].try_emplace(link.target, 0);
          if (first) {
            term->second = link_terms.GetOrAdd(
                CanonicalLinkTarget(corpus, lang, link.target));
          }
          group_hits.links.push_back(term->second);
        }
      }
      present_end.push_back(present.size());
    }
  }

  // Mono-language co-occurrence: infoboxes containing both groups, counted
  // in a dense upper-triangular matrix over this build's groups.
  const size_t num_groups = data.groups.size();
  std::vector<uint32_t> co_counts(num_groups * num_groups, 0);
  for (size_t box = 0, begin = 0; box < present_end.size(); ++box) {
    const size_t end = present_end[box];
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = i + 1; j < end; ++j) {
        size_t lo = std::min(present[i], present[j]);
        size_t hi = std::max(present[i], present[j]);
        ++co_counts[lo * num_groups + hi];
      }
    }
    begin = end;
  }

  // Groups at or above the occurrence floor, in the deterministic output
  // order: lang_a groups first, then lang_b, each by name.
  std::vector<size_t> order;
  for (size_t i = 0; i < num_groups; ++i) {
    if (data.groups[i].occurrences >=
        static_cast<double>(options.min_occurrences)) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const eval::AttrKey& kx = data.groups[x].key;
    const eval::AttrKey& ky = data.groups[y].key;
    bool ax = kx.language == lang_a;
    bool ay = ky.language == lang_a;
    if (ax != ay) return ax;
    return kx.name < ky.name;
  });
  // Output positions ascend in both loops, so the map fills in key order.
  for (size_t p = 0; p < order.size(); ++p) {
    for (size_t q = p + 1; q < order.size(); ++q) {
      size_t lo = std::min(order[p], order[q]);
      size_t hi = std::max(order[p], order[q]);
      uint32_t count = co_counts[lo * num_groups + hi];
      if (count == 0) continue;
      data.co_occur.emplace_hint(data.co_occur.end(), std::make_pair(p, q),
                                 static_cast<double>(count));
    }
  }
  // Term frequencies: each distinct id once, in ascending order.
  auto fill = [](std::vector<uint32_t>* ids, la::SparseVector* out) {
    std::sort(ids->begin(), ids->end());
    for (size_t i = 0; i < ids->size();) {
      size_t j = i + 1;
      while (j < ids->size() && (*ids)[j] == (*ids)[i]) ++j;
      out->Set((*ids)[i], static_cast<double>(j - i));
      i = j;
    }
  };
  std::vector<AttributeGroup> sorted;
  sorted.reserve(order.size());
  for (size_t i : order) {
    fill(&hits[i].values, &data.groups[i].values);
    fill(&hits[i].links, &data.groups[i].links);
    sorted.push_back(std::move(data.groups[i]));
  }
  data.groups = std::move(sorted);

  return data;
}

}  // namespace match
}  // namespace wikimatch
