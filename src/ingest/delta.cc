#include "ingest/delta.h"

#include <map>

#include "util/logging.h"

namespace wikimatch {
namespace ingest {
namespace {

using Key = std::pair<std::string, std::string>;

Key KeyOf(const wiki::Article& article) {
  return {article.language, article.title};
}

std::string Describe(const Key& key) { return key.first + ":" + key.second; }

}  // namespace

bool ArticlesEqual(const wiki::Article& a, const wiki::Article& b) {
  if (a.title != b.title || a.language != b.language ||
      a.entity_type != b.entity_type || a.redirect_to != b.redirect_to ||
      a.infobox.has_value() != b.infobox.has_value() ||
      a.categories != b.categories ||
      a.cross_language_links != b.cross_language_links) {
    return false;
  }
  if (!a.infobox.has_value()) return true;
  const wiki::Infobox& ia = *a.infobox;
  const wiki::Infobox& ib = *b.infobox;
  if (ia.template_type != ib.template_type ||
      ia.template_name != ib.template_name ||
      ia.attributes.size() != ib.attributes.size()) {
    return false;
  }
  for (size_t i = 0; i < ia.attributes.size(); ++i) {
    const auto& [name_a, value_a] = ia.attributes[i];
    const auto& [name_b, value_b] = ib.attributes[i];
    if (name_a != name_b || value_a.raw != value_b.raw ||
        value_a.text != value_b.text || value_a.links != value_b.links) {
      return false;
    }
  }
  return true;
}

util::Status ValidateDeltaBatch(const wiki::Corpus& base,
                                const DeltaBatch& batch) {
  std::map<Key, const char*> seen;
  auto claim = [&](const Key& key, const char* list) -> util::Status {
    auto [it, inserted] = seen.emplace(key, list);
    if (!inserted) {
      return util::Status::InvalidArgument(
          "delta batch mentions " + Describe(key) + " twice (" + it->second +
          " and " + list + ")");
    }
    return util::Status::OK();
  };
  for (const auto& article : batch.added) {
    if (article.language.empty() || article.title.empty()) {
      return util::Status::InvalidArgument(
          "added article with empty language or title");
    }
    WIKIMATCH_RETURN_NOT_OK(claim(KeyOf(article), "added"));
    if (base.FindExactTitle(article.language, article.title) !=
        wiki::kInvalidArticle) {
      return util::Status::InvalidArgument(
          "added article " + Describe(KeyOf(article)) +
          " already exists in the base corpus");
    }
  }
  for (const auto& article : batch.updated) {
    WIKIMATCH_RETURN_NOT_OK(claim(KeyOf(article), "updated"));
    if (base.FindExactTitle(article.language, article.title) ==
        wiki::kInvalidArticle) {
      return util::Status::InvalidArgument(
          "updated article " + Describe(KeyOf(article)) +
          " does not exist in the base corpus");
    }
  }
  for (const auto& key : batch.removed) {
    WIKIMATCH_RETURN_NOT_OK(claim(key, "removed"));
    if (base.FindExactTitle(key.first, key.second) == wiki::kInvalidArticle) {
      return util::Status::InvalidArgument(
          "removed article " + Describe(key) +
          " does not exist in the base corpus");
    }
  }
  return util::Status::OK();
}

util::Status ApplyDeltaInPlace(wiki::Corpus* corpus, const DeltaBatch& batch,
                               DeltaChanges* changes) {
  WIKIMATCH_RETURN_NOT_OK(ValidateDeltaBatch(*corpus, batch));
  // Validation guarantees the keys below: updated and removed ones exist,
  // added ones do not, and none repeats. Updates first: keys are untouched
  // by updates, so ids are stable here.
  changes->replaced.reserve(batch.updated.size());
  for (const auto& article : batch.updated) {
    wiki::ArticleId id =
        corpus->FindExactTitle(article.language, article.title);
    changes->replaced.push_back(corpus->Get(id));
    util::Status replaced = corpus->ReplaceArticle(id, article);
    WIKIMATCH_CHECK(replaced.ok(), replaced.ToString());
  }
  std::vector<wiki::ArticleId> removed_ids;
  removed_ids.reserve(batch.removed.size());
  changes->removed.reserve(batch.removed.size());
  for (const auto& [language, title] : batch.removed) {
    wiki::ArticleId id = corpus->FindExactTitle(language, title);
    removed_ids.push_back(id);
    changes->removed.push_back(corpus->Get(id));
  }
  corpus->EraseArticles(std::move(removed_ids));
  for (const auto& article : batch.added) {
    auto added = corpus->AddArticle(article);
    WIKIMATCH_CHECK(added.ok(), added.status().ToString());
  }
  changes->added_count = batch.added.size();
  corpus->Finalize(&changes->finalize);
  return util::Status::OK();
}

}  // namespace ingest
}  // namespace wikimatch
