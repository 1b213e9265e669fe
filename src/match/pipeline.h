// End-to-end WikiMatch pipeline: type matching -> schema building ->
// attribute alignment, for every type shared by a language pair. The unit
// of work is one type pair (AlignTypePair); units spread over the shared
// thread pool, and each unit runs sequentially.

#ifndef WIKIMATCH_MATCH_PIPELINE_H_
#define WIKIMATCH_MATCH_PIPELINE_H_

#include <optional>
#include <string>
#include <vector>

#include "match/aligner.h"
#include "match/dictionary.h"
#include "match/schema_builder.h"
#include "match/type_matcher.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace match {

/// \brief The pipeline's default matcher config: identical to the paper
/// defaults except that the full O(n²) scored-pair list is not retained
/// (MatcherConfig::keep_all_pairs) — evaluation drivers that need it for
/// MAP/threshold studies call AttributeAligner directly.
inline MatcherConfig DefaultPipelineMatcherConfig() {
  MatcherConfig config;
  config.keep_all_pairs = false;
  return config;
}

/// \brief Pipeline configuration.
struct PipelineOptions {
  MatcherConfig matcher = DefaultPipelineMatcherConfig();
  SchemaBuilderOptions schema;
  /// Type-matching thresholds (Section 3.1).
  size_t type_min_votes = 2;
  double type_min_confidence = 0.5;
  /// Participants in the shared pool's loop over type pairs (type pairs
  /// are independent); 1 = sequential. Results are deterministic
  /// regardless of this value. Alignment inside one type pair is always
  /// sequential.
  size_t num_threads = 1;
};

/// \brief Per-phase wall times and work counters of one pipeline run.
/// Alignment counters are exact sums over type pairs; the per-phase times
/// are summed across (possibly concurrent) workers, so with num_threads >
/// 1 they measure aggregate work, not elapsed wall clock — total_ms is the
/// run's true elapsed time.
struct PipelineStats {
  double type_match_ms = 0.0;  ///< cross-language entity-type matching
  double schema_ms = 0.0;      ///< BuildTypePairData across type pairs
  double total_ms = 0.0;       ///< whole Run() wall clock
  size_t type_pairs = 0;       ///< aligned type pairs
  AlignStats align;            ///< aggregated AttributeAligner stats

  /// \brief One-line key=value rendering (CLI stderr, serve stats verb).
  std::string ToString() const;
};

/// \brief Alignment output for one matched type pair.
struct TypePairResult {
  std::string type_a;  ///< localized type in lang_a
  std::string type_b;  ///< localized type in lang_b
  size_t num_duals = 0;
  AlignmentResult alignment;
  eval::AttrFrequencies frequencies;
};

/// \brief Output of a full pipeline run over one language pair.
struct PipelineResult {
  std::vector<TypeMatch> type_matches;
  std::vector<TypePairResult> per_type;
  /// Execution stats of the run that produced this result (persisted in
  /// snapshots so the serve `stats` verb can report build-time figures).
  PipelineStats stats;

  /// \brief The result for localized type `type_b` (hub side), or nullptr.
  const TypePairResult* FindByTypeB(const std::string& type_b) const;
};

/// \brief One unit of alignment work: builds the schema of type pair `tm`
/// (BuildTypePairData) and aligns it into `*slot`. It cannot fail: a pair
/// without a schema (NotFound, the only error BuildTypePairData returns)
/// leaves `*slot` empty after a warning, and alignment always succeeds.
/// `*schema_ms` receives the schema build's wall time. MatchPipeline::Run
/// and IncrementalMatcher::Apply both spread these units over the pool.
void AlignTypePair(const wiki::Corpus& corpus,
                   const TranslationDictionary& dictionary,
                   const std::string& lang_a, const std::string& lang_b,
                   const TypeMatch& tm, const PipelineOptions& options,
                   std::optional<TypePairResult>* slot, double* schema_ms);

/// \brief Runs WikiMatch over a finalized corpus.
class MatchPipeline {
 public:
  /// Builds the translation dictionary from the corpus once; reusable
  /// across Run() calls with different configs (threshold sweeps).
  explicit MatchPipeline(const wiki::Corpus* corpus);

  /// \brief Aligns every type shared by (lang_a, lang_b). Every unit
  /// succeeds (AlignTypePair), so the result is always OK.
  util::Result<PipelineResult> Run(const std::string& lang_a,
                                   const std::string& lang_b,
                                   const PipelineOptions& options = {}) const;

  /// \brief Builds the TypePairData for one type pair (for callers that
  /// sweep matcher configs without rebuilding schemas).
  util::Result<TypePairData> BuildPair(const std::string& lang_a,
                                       const std::string& type_a,
                                       const std::string& lang_b,
                                       const std::string& type_b,
                                       const SchemaBuilderOptions& options
                                       = {}) const;

  const TranslationDictionary& dictionary() const { return dictionary_; }
  const wiki::Corpus& corpus() const { return *corpus_; }

 private:
  const wiki::Corpus* corpus_;
  TranslationDictionary dictionary_;
};

}  // namespace match
}  // namespace wikimatch

#endif  // WIKIMATCH_MATCH_PIPELINE_H_
