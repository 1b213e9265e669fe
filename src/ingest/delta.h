// Delta batches: the unit of incremental ingest. A DeltaBatch is a set of
// added, updated, and removed articles relative to an existing finalized
// corpus — the shape of a Wikipedia edit stream between two dump dates.
// ApplyDeltaInPlace patches the corpus deterministically: surviving
// articles keep their relative order (updates replace in place), removed
// articles are dropped, added articles append in batch order, and
// Finalize() re-runs. That is exactly the corpus a from-scratch rebuild
// of the post-delta edition consumes, which is what makes bit-identical
// equivalence between the incremental matcher and a rebuild a meaningful
// invariant. The change record it fills is what incremental change
// tracking reads.

#ifndef WIKIMATCH_INGEST_DELTA_H_
#define WIKIMATCH_INGEST_DELTA_H_

#include <string>
#include <utility>
#include <vector>

#include "util/result.h"
#include "wiki/article.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace ingest {

/// \brief A set of article-level changes against a base corpus.
///
/// Keys are (language, normalized title). Validation is strict: added
/// articles must not exist in the base, updated and removed articles must,
/// and no key may appear twice across the three lists — a malformed feed
/// fails loudly instead of silently diverging from a rebuild.
struct DeltaBatch {
  std::vector<wiki::Article> added;
  std::vector<wiki::Article> updated;
  /// (language, normalized title) of articles to drop.
  std::vector<std::pair<std::string, std::string>> removed;

  size_t size() const { return added.size() + updated.size() + removed.size(); }
  bool empty() const { return size() == 0; }
};

/// \brief Checks the batch against `base` (see DeltaBatch). Returns
/// InvalidArgument describing the first violation.
util::Status ValidateDeltaBatch(const wiki::Corpus& base,
                                const DeltaBatch& batch);

/// \brief What ApplyDeltaInPlace changed: the raw material incremental
/// change tracking reads (which records the batch really touched, and how
/// Finalize rippled beyond them).
struct DeltaChanges {
  /// Pre-images of updated articles.
  std::vector<wiki::Article> replaced;
  /// Pre-images of removed articles.
  std::vector<wiki::Article> removed;
  /// Number of articles appended at the tail.
  size_t added_count = 0;
  /// Backlinks Finalize induced (post-batch id space).
  wiki::FinalizeReport finalize;
};

/// \brief Applies `batch` to `corpus` in place: validate, replace updated
/// records, erase removed ones (compacting ids), append added ones, and
/// re-Finalize (see file comment), for a batch-sized cost plus one
/// Finalize pass instead of a full copy. Validation is the only failure
/// point and runs before any mutation, so on error the corpus is
/// untouched. Past it the patch cannot fail: a broken invariant aborts
/// rather than leave the corpus half-patched. On success `changes`
/// describes the patch.
util::Status ApplyDeltaInPlace(wiki::Corpus* corpus, const DeltaBatch& batch,
                               DeltaChanges* changes);

/// \brief True iff two articles carry identical field values — equivalent
/// to comparing their serialized records, but allocation-free. Compares
/// every Article member, a superset of the fields the snapshot encoding
/// writes, so it can never report "equal" for records a rebuild would see
/// as different. This is the change test incremental ingest uses.
bool ArticlesEqual(const wiki::Article& a, const wiki::Article& b);

}  // namespace ingest
}  // namespace wikimatch

#endif  // WIKIMATCH_INGEST_DELTA_H_
