#include "wiki/corpus.h"

#include <algorithm>

#include "util/logging.h"

namespace wikimatch {
namespace wiki {

const std::vector<ArticleId> Corpus::kEmpty;

util::Result<ArticleId> Corpus::AddArticle(Article article) {
  const ArticleId id = static_cast<ArticleId>(articles_.size());
  if (!title_index_[article.language].try_emplace(article.title, id).second) {
    return util::Status::AlreadyExists(article.language + ":" + article.title);
  }
  language_index_[article.language].push_back(id);
  articles_.push_back(std::move(article));
  finalized_ = false;
  return id;
}

util::Status Corpus::ReplaceArticle(ArticleId id, Article article) {
  if (id >= articles_.size()) {
    return util::Status::InvalidArgument("ReplaceArticle: id out of range");
  }
  if (articles_[id].language != article.language ||
      articles_[id].title != article.title) {
    return util::Status::InvalidArgument(
        "ReplaceArticle: replacement for " + articles_[id].language + ":" +
        articles_[id].title + " carries key " + article.language + ":" +
        article.title);
  }
  articles_[id] = std::move(article);
  finalized_ = false;
  return util::Status::OK();
}

void Corpus::EraseArticles(std::vector<ArticleId> ids) {
  if (ids.empty()) return;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (ArticleId id : ids) {
    const Article& a = articles_[id];
    title_index_.at(a.language).erase(a.title);
  }
  // Compact the article vector, preserving relative order.
  size_t write = 0;
  size_t next_removed = 0;
  for (size_t read = 0; read < articles_.size(); ++read) {
    if (next_removed < ids.size() && ids[next_removed] == read) {
      ++next_removed;
      continue;
    }
    if (write != read) articles_[write] = std::move(articles_[read]);
    ++write;
  }
  articles_.resize(write);
  // Every surviving id shifts down by the number of removed ids below it.
  auto shifted = [&](ArticleId id) {
    return id - static_cast<ArticleId>(
                    std::upper_bound(ids.begin(), ids.end(), id) -
                    ids.begin());
  };
  // Re-point the titles of the articles that moved, in id order.
  for (size_t i = ids.front(); i < articles_.size(); ++i) {
    const Article& a = articles_[i];
    title_index_.at(a.language).at(a.title) = static_cast<ArticleId>(i);
  }
  for (auto& [language, list] : language_index_) {
    size_t w = 0;
    for (ArticleId id : list) {
      if (std::binary_search(ids.begin(), ids.end(), id)) continue;
      list[w++] = shifted(id);
    }
    list.resize(w);
  }
  // Stale ids must not be served while un-finalized; Finalize rebuilds.
  type_index_.clear();
  finalized_ = false;
}

util::Result<size_t> Corpus::IngestDump(const std::vector<DumpPage>& pages,
                                        const std::string& language,
                                        const WikitextParser& parser) {
  size_t added = 0;
  for (const auto& page : pages) {
    if (page.ns != 0) continue;  // Redirects are kept: links resolve
                                 // through them.
    auto parsed = parser.ParseArticle(page.title, language, page.text);
    if (!parsed.ok()) {
      WIKIMATCH_LOG(Warning) << "skipping page '" << page.title
                             << "': " << parsed.status().ToString();
      continue;
    }
    auto id = AddArticle(std::move(parsed).ValueOrDie());
    if (!id.ok()) {
      WIKIMATCH_LOG(Warning) << "skipping duplicate page '" << page.title
                             << "'";
      continue;
    }
    ++added;
  }
  return added;
}

void Corpus::Finalize(FinalizeReport* report) {
  if (finalized_) return;

  // 1. Entity types from infobox template types.
  for (Article& article : articles_) {
    if (article.entity_type.empty() && article.infobox.has_value()) {
      article.entity_type = article.infobox->template_type;
    }
  }

  // 2. Symmetrize cross-language links. A redirect page's links are not
  // symmetrized (MediaWiki ignores them too): a backlink names its source's
  // title, which for a redirect resolves to another article, and that new
  // link would need a pass of its own. Skipping them makes one pass a
  // fixpoint, so a decoded corpus re-finalizes to the bytes it was
  // encoded from.
  for (size_t i = 0; i < articles_.size(); ++i) {
    const Article& a = articles_[i];
    if (a.IsRedirect()) continue;
    for (const auto& [lang, title] : a.cross_language_links) {
      ArticleId other = FindByTitle(lang, title);
      if (other == kInvalidArticle) continue;
      Article& b = articles_[other];
      auto it = b.cross_language_links.find(a.language);
      if (it == b.cross_language_links.end()) {
        b.cross_language_links[a.language] = a.title;
        if (report != nullptr) {
          report->backlinks_added.push_back({other, a.language, a.title});
        }
      }
    }
  }

  // 3. Type index (articles with infoboxes only — the matching unit).
  type_index_.clear();
  for (size_t i = 0; i < articles_.size(); ++i) {
    const Article& a = articles_[i];
    if (!a.infobox.has_value() || a.entity_type.empty()) continue;
    type_index_[{a.language, a.entity_type}].push_back(
        static_cast<ArticleId>(i));
  }

  finalized_ = true;
}

ArticleId Corpus::FindExactTitle(const std::string& language,
                                 const std::string& title) const {
  auto titles = title_index_.find(language);
  if (titles == title_index_.end()) return kInvalidArticle;
  auto it = titles->second.find(title);
  return it == titles->second.end() ? kInvalidArticle : it->second;
}

ArticleId Corpus::FindByTitle(const std::string& language,
                              const std::string& title) const {
  ArticleId id = FindExactTitle(language, title);
  // Follow redirect chains (bounded; real wikis forbid double redirects,
  // we tolerate a short chain and bail on cycles).
  for (int depth = 0; depth < 4 && id != kInvalidArticle; ++depth) {
    const Article& article = articles_[id];
    if (!article.IsRedirect()) return id;
    id = FindExactTitle(language, article.redirect_to);
  }
  return id != kInvalidArticle && !articles_[id].IsRedirect()
             ? id
             : kInvalidArticle;
}

const std::vector<ArticleId>& Corpus::ArticlesInLanguage(
    const std::string& language) const {
  auto it = language_index_.find(language);
  return it == language_index_.end() ? kEmpty : it->second;
}

const std::vector<ArticleId>& Corpus::ArticlesOfType(
    const std::string& language, const std::string& type) const {
  auto it = type_index_.find({language, type});
  return it == type_index_.end() ? kEmpty : it->second;
}

std::vector<std::string> Corpus::Languages() const {
  std::vector<std::string> out;
  out.reserve(language_index_.size());
  for (const auto& [lang, ids] : language_index_) out.push_back(lang);
  return out;
}

std::vector<std::string> Corpus::TypesIn(const std::string& language) const {
  std::vector<std::string> out;
  for (const auto& [key, ids] : type_index_) {
    if (key.first == language) out.push_back(key.second);
  }
  return out;
}

ArticleId Corpus::CrossLanguageTarget(ArticleId id,
                                      const std::string& language) const {
  const Article& a = articles_[id];
  auto it = a.cross_language_links.find(language);
  if (it == a.cross_language_links.end()) return kInvalidArticle;
  return FindByTitle(language, it->second);
}

bool Corpus::SameEntity(ArticleId a, ArticleId b) const {
  if (a == b) return true;
  const Article& aa = articles_[a];
  const Article& ab = articles_[b];
  if (aa.language == ab.language) return false;
  auto it = aa.cross_language_links.find(ab.language);
  return it != aa.cross_language_links.end() && it->second == ab.title;
}

size_t Corpus::InfoboxCount(const std::string& language) const {
  size_t n = 0;
  for (ArticleId id : ArticlesInLanguage(language)) {
    if (articles_[id].infobox.has_value()) ++n;
  }
  return n;
}

}  // namespace wiki
}  // namespace wikimatch
