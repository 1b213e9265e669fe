// Cross-language value synchronization engine (docs/SYNC.md).
//
// The match pipeline says *which* attributes correspond across editions
// ("starring ~ elenco original"); the SyncEngine uses that alignment to say
// which attribute *values* agree. It walks every dual article pair of every
// aligned type, classifies each aligned cell pair (in-sync / stale /
// missing / conflicting / unverifiable) from evidence signatures
// (sync/evidence.h), and emits an ordered, deterministic SyncReport plus
// the PropagationUpdates that would repair the stale and missing cells.
//
// Determinism: groups (article pairs) are enumerated in scope order then
// corpus index order, classified into pre-sized per-group slots (optionally
// on the shared thread pool), and concatenated — the report is
// byte-identical at any thread count. Resync() recomputes only groups whose
// own articles are dirty and copies the rest from the previous report,
// byte-identical to a full Run() under the incremental contract documented
// in docs/SYNC.md.

#ifndef WIKIMATCH_SYNC_SYNC_ENGINE_H_
#define WIKIMATCH_SYNC_SYNC_ENGINE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/match_set.h"
#include "match/dictionary.h"
#include "match/pipeline.h"
#include "sync/evidence.h"
#include "util/binary_io.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace sync {

/// \brief Classification of one aligned cell pair of one article pair.
struct CellVerdict {
  std::string pair_lang;   ///< non-hub edition of the pair
  std::string type_b;      ///< hub-side localized type ("film")
  std::string pair_title;  ///< article title in pair_lang
  std::string hub_title;   ///< article title in the hub language
  /// Normalized attribute names on each side. Exactly one is empty for
  /// kMissing verdicts — the edition lacking the attribute.
  std::string pair_attr;
  std::string hub_attr;
  CellClass cls = CellClass::kUnverifiable;
  /// Evidence agreement in [0, 1] (AgreementScore); 0 for kMissing.
  double score = 0.0;

  bool operator==(const CellVerdict&) const = default;
};

/// \brief A proposed cross-edition repair for a stale or missing cell.
struct PropagationUpdate {
  std::string source_lang;
  std::string target_lang;
  std::string source_title;
  std::string target_title;
  std::string source_attr;  ///< normalized attribute holding the evidence
  std::string target_attr;  ///< normalized attribute to create/overwrite
  std::string proposed_value;  ///< raw wikitext of the source cell
  /// Agreement of the pair that triggered the update (0 for missing).
  double evidence_score = 0.0;

  bool operator==(const PropagationUpdate&) const = default;
};

/// \brief Per-(pair language, type) classification counts.
struct SyncCounts {
  uint64_t in_sync = 0;
  uint64_t stale = 0;
  uint64_t missing = 0;
  uint64_t conflict = 0;
  uint64_t unverifiable = 0;

  uint64_t total() const {
    return in_sync + stale + missing + conflict + unverifiable;
  }
  void Add(CellClass c);
  bool operator==(const SyncCounts&) const = default;
};

/// \brief Deterministic output of one synchronization run.
struct SyncReport {
  /// Every verdict, grouped by article pair in enumeration order.
  std::vector<CellVerdict> cells;
  /// Proposed repairs for the stale and missing cells, in cell order.
  std::vector<PropagationUpdate> updates;
  /// Snapshot generation the report was computed against (serve uses this
  /// to pin sync answers to a generation, like every other verb).
  uint64_t generation = 0;

  bool empty() const {
    return cells.empty() && updates.empty() && generation == 0;
  }
  /// \brief Aggregated counts keyed by (pair_lang, type_b), sorted.
  std::map<std::pair<std::string, std::string>, SyncCounts> Summaries() const;

  bool operator==(const SyncReport&) const = default;
};

/// \brief Binary serialization (snapshot section kind 5, BENCH byte
/// equivalence checks). Encode/Decode round-trip exactly.
void EncodeSyncReport(const SyncReport& report, util::BinaryWriter* writer);
util::Result<SyncReport> DecodeSyncReport(std::string_view payload);

/// \brief One aligned type pair to synchronize.
struct SyncScope {
  std::string pair_lang;  ///< non-hub language ("pt")
  std::string hub_lang;   ///< hub language ("en")
  std::string type_a;     ///< localized type in pair_lang ("filme")
  std::string type_b;     ///< localized type in hub_lang ("film")
  /// Attribute alignment spanning both languages; borrowed, must outlive
  /// the engine calls using this scope.
  const eval::MatchSet* alignment = nullptr;
};

/// \brief Walks aligned article pairs and classifies their cells.
class SyncEngine {
 public:
  /// Pointers are borrowed; the corpus must be finalized.
  SyncEngine(const wiki::Corpus* corpus,
             const match::TranslationDictionary* dictionary,
             std::string hub_lang);

  /// \brief Full synchronization pass over `scopes`, classifying groups on
  /// up to `num_threads` pool workers. Byte-identical at any thread count.
  SyncReport Run(const std::vector<SyncScope>& scopes,
                 size_t num_threads = 1) const;

  /// \brief Incremental re-sync: groups whose pair- or hub-side article key
  /// (language, title) is in `dirty` — or which `previous` has no rows
  /// for — are reclassified; all other groups are copied from `previous`.
  /// Byte-identical to Run() on the same corpus when every changed article
  /// is in `dirty` (see docs/SYNC.md for the exact contract).
  SyncReport Resync(
      const std::vector<SyncScope>& scopes, const SyncReport& previous,
      const std::set<std::pair<std::string, std::string>>& dirty,
      size_t num_threads = 1) const;

  /// \brief Scopes for every aligned type of every pipeline result, in
  /// (language pair, per-type) order. Alignment pointers borrow from
  /// `pipelines`, which must outlive the returned scopes.
  static std::vector<SyncScope> ScopesFromPipelines(
      const std::map<std::pair<std::string, std::string>,
                     match::PipelineResult>& pipelines);

  const EvidenceExtractor& extractor() const { return extractor_; }

 private:
  /// One article pair to classify.
  struct Group {
    const SyncScope* scope = nullptr;
    wiki::ArticleId pair_id = wiki::kInvalidArticle;
    wiki::ArticleId hub_id = wiki::kInvalidArticle;
  };
  /// Verdicts and updates of one group, concatenated in group order.
  struct GroupResult {
    std::vector<CellVerdict> cells;
    std::vector<PropagationUpdate> updates;
  };

  std::vector<Group> EnumerateGroups(
      const std::vector<SyncScope>& scopes) const;
  GroupResult ClassifyGroup(const Group& group) const;
  static SyncReport Assemble(std::vector<GroupResult> results);

  const wiki::Corpus* corpus_;
  std::string hub_;
  EvidenceExtractor extractor_;
};

}  // namespace sync
}  // namespace wikimatch

#endif  // WIKIMATCH_SYNC_SYNC_ENGINE_H_
