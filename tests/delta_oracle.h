// Reference post-delta corpus for differential tests: the copy-and-patch
// builder incremental ingest used before it patched the corpus in place.
// Surviving articles keep their relative order (updates replace in place),
// removed articles are dropped, added articles append in batch order, and
// Finalize() re-runs. It is kept only to check ApplyDeltaInPlace and the
// full rebuilds incremental results are compared against.

#ifndef WIKIMATCH_TESTS_DELTA_ORACLE_H_
#define WIKIMATCH_TESTS_DELTA_ORACLE_H_

#include <utility>
#include <vector>

#include "ingest/delta.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace delta_oracle {

/// \brief Builds the finalized post-delta corpus (see file comment).
inline util::Result<wiki::Corpus> ApplyDeltaToCorpus(
    const wiki::Corpus& base, const ingest::DeltaBatch& batch) {
  WIKIMATCH_RETURN_NOT_OK(ingest::ValidateDeltaBatch(base, batch));
  // Copy-and-patch: far cheaper than re-adding every article, because the
  // title and language indexes are copied structurally instead of being
  // rebuilt entry by entry. Updated records replace in place (validation
  // guarantees the key exists and is unchanged), removals compact the id
  // space, additions append, and Finalize() re-derives everything derived
  // (entity types for the patched records, induced symmetric links, type
  // indexes) — the exact corpus a from-scratch rebuild would consume.
  wiki::Corpus out = base;
  for (const auto& article : batch.updated) {
    wiki::ArticleId id = out.FindExactTitle(article.language, article.title);
    WIKIMATCH_RETURN_NOT_OK(out.ReplaceArticle(id, article));
  }
  std::vector<wiki::ArticleId> removed_ids;
  removed_ids.reserve(batch.removed.size());
  for (const auto& [language, title] : batch.removed) {
    removed_ids.push_back(out.FindExactTitle(language, title));
  }
  out.EraseArticles(std::move(removed_ids));
  for (const auto& article : batch.added) {
    auto added = out.AddArticle(article);
    if (!added.ok()) return added.status();
  }
  out.Finalize();
  return out;
}

}  // namespace delta_oracle
}  // namespace wikimatch

#endif  // WIKIMATCH_TESTS_DELTA_ORACLE_H_
