// IncrementalMatcher: applies a DeltaBatch to an already-matched corpus and
// re-runs the expensive alignment stage (schema build + LSI + similarity
// join + match integration) only for the (language-pair, type-pair) units
// the delta can actually influence, reusing every other unit's result
// verbatim. The output is bit-identical to running MatchPipeline from
// scratch on the post-delta corpus — a property the test suite asserts on
// serialized bytes — because dirtiness is a sound over-approximation of
// each unit's true dependency footprint:
//
//   * membership: a unit reads the infoboxes of its member articles, found
//     through ArticlesOfType on both sides plus the lang_a members'
//     cross-language links (including redirect hops). Any changed article
//     whose pre- or post-delta record carries a typed infobox dirties every
//     unit touching that (language, type).
//   * titles: value links are canonicalized through FindByTitle (redirect
//     chains) and the landing article's cross-language links; the lang_a
//     members' cross-links resolve through redirects too. Each unit records
//     every (language, title) those resolutions visit — including dangling
//     targets, so an article later created at that title dirties the unit.
//   * translations: lang_a-side value components pass through
//     TranslationDictionary::TranslateOrKeep. Each unit records its
//     pre-translation components; the dictionary is patched in place at the
//     keys the changed records contribute (recomputing each key's
//     lowest-article-id winner, Build's first-insertion-wins order), and
//     the actually-retranslated terms dirty the units that use them.
//
// The changed-article set itself comes from ApplyDeltaInPlace's change
// record: a field-level comparison of each batch-named article's pre-image
// against its finalized post record, plus the FinalizeReport — and since
// Finalize() is the only source of mutations beyond the batch and reports
// the only kind that reaches records the batch did not name (induced
// symmetric links), indirect ripple is caught no matter how the delta
// caused it.
//
// Apply fails only in validation, before anything is mutated. Everything
// after it — the in-place patches, type matching, schema building and
// alignment — cannot fail, so there is nothing to roll back.
//
// Type matching (cross-language link voting) is cheap and corpus-global,
// so it always re-runs in full; per-type-pair SimilarityJoinIndexes are
// rebuilt inside AttributeAligner::Align for dirty units only, which is
// the per-type-pair index invalidation this subsystem provides.

#ifndef WIKIMATCH_INGEST_INCREMENTAL_MATCHER_H_
#define WIKIMATCH_INGEST_INCREMENTAL_MATCHER_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ingest/delta.h"
#include "match/dictionary.h"
#include "match/pipeline.h"
#include "store/snapshot.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace ingest {

/// \brief What one Apply() did, for logging, bench, and the snapshot
/// delta manifest.
struct ApplyStats {
  uint64_t generation = 0;  ///< generation the batch produced
  size_t articles_added = 0;
  size_t articles_updated = 0;
  size_t articles_removed = 0;
  size_t articles_changed = 0;  ///< finalized records that differ pre/post
  size_t units_total = 0;       ///< type matches across all language pairs
  size_t units_reused = 0;
  size_t units_recomputed = 0;
  double corpus_ms = 0.0;      ///< in-place corpus patch + change tracking
  double dictionary_ms = 0.0;  ///< affected-key dictionary patch
  /// Type matching plus dirty-unit realignment; each realigned unit's
  /// footprint is computed inside its realign task.
  double align_ms = 0.0;
  double total_ms = 0.0;

  /// \brief One-line key=value rendering (CLI stderr).
  std::string ToString() const;
};

/// \brief Holds a matched corpus and applies delta batches to it.
class IncrementalMatcher {
 public:
  using LanguagePair = store::LanguagePair;

  /// \brief Wraps an existing run. `results` must come from MatchPipeline
  /// runs over `corpus` with these `options` — the reuse guarantee is
  /// relative to what a rebuild with the same options would produce. The
  /// translation dictionary is built from `corpus`.
  IncrementalMatcher(wiki::Corpus corpus,
                     std::map<LanguagePair, match::PipelineResult> results,
                     match::PipelineOptions options = {});

  /// \brief Wraps a loaded snapshot. The caller supplies the options the
  /// snapshot was built with (the defaults for snapshots from
  /// `wikimatch build-snapshot`); when the snapshot's meta section carries
  /// an options fingerprint (every snapshot written since fingerprints
  /// were added), a mismatch against the supplied options fails with
  /// InvalidArgument naming both sides — the unit-reuse guarantee is only
  /// relative to matching options, so a silent mismatch would corrupt
  /// results. Fingerprint-less (older) snapshots are trusted as before.
  ///
  /// Preconditions, trusted and not re-checked: `snapshot.pipelines` come
  /// from MatchPipeline runs over `snapshot.corpus` (as for the
  /// constructor above), and `snapshot.dictionary` equals
  /// TranslationDictionary::Build(snapshot.corpus). Every snapshot this
  /// code writes meets both, so the decoded dictionary is adopted instead
  /// of rebuilt. A file that breaks them yields wrong translations, never
  /// a crash: Put, Erase and Translate are safe on any dictionary.
  static util::Result<IncrementalMatcher> FromSnapshot(
      store::Snapshot snapshot, match::PipelineOptions options = {});

  /// \brief Applies one batch: patches the corpus and dictionary in place,
  /// marks dirty units, realigns only those, and advances the generation.
  /// InvalidArgument on a malformed batch, found by validation before any
  /// mutation, so the matcher keeps serving its previous generation; a
  /// batch that validates always applies.
  ///
  /// Two phases. The first patches, type-matches, marks and realigns the
  /// dirty units into locals, reading the current results and footprints
  /// only. The second moves each reused unit and footprint into new
  /// containers beside the realigned ones and swaps them in. The displaced
  /// containers and the batch's change record are freed on the calling
  /// thread before Apply returns.
  util::Result<ApplyStats> Apply(const DeltaBatch& batch);

  const wiki::Corpus& corpus() const { return corpus_; }
  const match::TranslationDictionary& dictionary() const {
    return dictionary_;
  }
  const std::map<LanguagePair, match::PipelineResult>& results() const {
    return results_;
  }
  uint64_t generation() const { return meta_.generation; }
  const std::vector<store::DeltaRecord>& history() const {
    return meta_.history;
  }

  /// \brief Snapshot of the current state (corpus, dictionary, results,
  /// generation meta), ready for WriteSnapshotFile. The const& form copies
  /// every part; the && form moves them out and leaves the matcher fit
  /// only for destruction.
  store::Snapshot ToSnapshot() const&;
  store::Snapshot ToSnapshot() &&;

 private:
  /// Takes every part as given; the public constructor builds
  /// `dictionary` first, FromSnapshot adopts the decoded one.
  IncrementalMatcher(wiki::Corpus corpus,
                     match::TranslationDictionary dictionary,
                     std::map<LanguagePair, match::PipelineResult> results,
                     match::PipelineOptions options);

  using TitleKey = std::pair<std::string, std::string>;  // (language, title)
  using UnitKey = std::pair<std::string, std::string>;   // (type_a, type_b)

  /// Everything outside a unit's own member infoboxes that its alignment
  /// reads (see file comment).
  struct UnitFootprint {
    std::set<TitleKey> titles;
    std::set<std::string> terms;  // lang_a components, pre-translation
  };

  static UnitFootprint ComputeFootprint(const wiki::Corpus& corpus,
                                        const std::string& lang_a,
                                        const std::string& type_a,
                                        const std::string& lang_b,
                                        const std::string& type_b);

  /// Recomputes every unit's footprint on the shared pool (up to
  /// options_.num_threads participants), one task per unit.
  void RebuildFootprints();

  wiki::Corpus corpus_;
  match::TranslationDictionary dictionary_;
  std::map<LanguagePair, match::PipelineResult> results_;
  std::map<LanguagePair, std::map<UnitKey, UnitFootprint>> footprints_;
  match::PipelineOptions options_;
  store::SnapshotMeta meta_;
};

}  // namespace ingest
}  // namespace wikimatch

#endif  // WIKIMATCH_INGEST_INCREMENTAL_MATCHER_H_
