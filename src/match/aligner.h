// AttributeAlignment (Algorithm 1), IntegrateMatches (Algorithm 2), and
// ReviseUncertain (Section 3.4) — the WikiMatch core.
//
// Candidate pairs are ordered by LSI correlation; a pair whose value or
// link similarity clears Tsim is a *certain* candidate and is integrated
// under pairwise-correlation constraints; the rest are buffered as
// uncertain and revisited with the inductive grouping score once the
// certain matches are known. MatcherConfig exposes every ablation switch
// the paper evaluates (Table 3 / Figure 3).

#ifndef WIKIMATCH_MATCH_ALIGNER_H_
#define WIKIMATCH_MATCH_ALIGNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eval/match_set.h"
#include "match/lsi.h"
#include "match/schema_builder.h"

namespace wikimatch {
namespace match {

/// \brief Full matcher configuration, thresholds plus ablation switches.
struct MatcherConfig {
  /// Certain-candidate threshold on max(vsim, lsim) (paper default 0.6).
  double t_sim = 0.6;
  /// Candidate-admission and integration-constraint threshold on LSI
  /// correlation (paper default 0.1).
  double t_lsi = 0.1;
  /// Admission threshold on the inductive grouping score for revising
  /// uncertain matches.
  double t_inductive = 0.20;
  /// Uncertain pairs must still show a trace of value or link agreement to
  /// be revised — the step targets pairs whose similarity is *lower than
  /// Tsim*, not pairs with no evidence at all.
  double t_revise_min_sim = 0.05;
  /// Link-structure support floor: an attribute whose values carry fewer
  /// links than this fraction of its occurrences contributes lsim = 0.
  /// Guards against sparse, accidentally-placed links (a handful of stray
  /// wikilinks under a numeric attribute would otherwise produce a high
  /// cosine against link-rich attributes with small target domains).
  double min_link_support = 0.05;
  LsiOptions lsi;

  // --- Ablation switches (Section 4.2) --------------------------------------
  /// WikiMatch-vsim: ignore value similarity.
  bool use_vsim = true;
  /// WikiMatch-lsim: ignore link-structure similarity.
  bool use_lsim = true;
  /// WikiMatch-LSI: order candidates by max(vsim, lsim) instead of LSI and
  /// drop the correlation constraints.
  bool use_lsi = true;
  /// WikiMatch-IntegrateMatches: skip the pairwise-correlation constraint
  /// when absorbing an attribute into an existing match.
  bool use_integrate_constraint = true;
  /// WikiMatch-ReviseUncertain: skip the uncertain-revision step.
  bool use_revise_uncertain = true;
  /// WikiMatch - inductive grouping: revise every uncertain pair instead of
  /// only the inductively-supported subset.
  bool use_inductive_grouping = true;
  /// WikiMatch random: process candidates in random order.
  bool random_order = false;
  /// WikiMatch single step: accept every pair with positive vsim or lsim
  /// directly (no queue, no constraints, no revision).
  bool single_step = false;
  /// Seed for random_order.
  uint64_t random_seed = 0x5EED;

  // --- Execution switches (docs/PERFORMANCE.md) -----------------------------
  /// Retain AlignmentResult::all_pairs (the full O(n²) scored list needed
  /// by MAP and threshold studies). The pipeline turns this off by default:
  /// large schemas otherwise balloon memory and snapshot size, and the
  /// similarity join can then skip materializing zero-similarity pairs whose
  /// LSI correlation is below t_lsi.
  bool keep_all_pairs = true;
};

/// \brief Counters and per-phase wall times of one Align() call.
struct AlignStats {
  size_t groups = 0;           ///< attribute groups (both languages)
  size_t pairs_total = 0;      ///< n·(n−1)/2 candidate universe
  size_t pairs_generated = 0;  ///< pairs actually materialized
  size_t pairs_pruned = 0;     ///< pairs_total − pairs_generated
  size_t postings_visited = 0; ///< posting-list entries touched by the join
  double lsi_ms = 0.0;         ///< truncated SVD + correlation cache
  double feature_ms = 0.0;     ///< similarity join + candidate assembly
  double order_ms = 0.0;       ///< candidate ordering sort
  double match_ms = 0.0;       ///< queue, IntegrateMatches, ReviseUncertain
  double total_ms = 0.0;

  /// \brief Accumulates another run's counters and times into this one.
  void Merge(const AlignStats& other);
};

/// \brief One scored candidate pair.
struct CandidatePair {
  size_t i = 0;  ///< group indexes into TypePairData::groups
  size_t j = 0;
  double vsim = 0.0;
  double lsim = 0.0;
  double lsi = 0.0;
};

/// \brief Output of the aligner.
struct AlignmentResult {
  /// The derived matches M (clusters spanning both languages).
  eval::MatchSet matches;
  /// Every scored pair (for MAP and threshold studies), in the order the
  /// algorithm processed them.
  std::vector<CandidatePair> processed_order;
  /// All pairs with their scores regardless of admission, sorted by the
  /// ordering criterion (LSI by default). Empty unless
  /// MatcherConfig::keep_all_pairs is set.
  std::vector<CandidatePair> all_pairs;
  /// Execution counters and timings (not part of the algorithm's output;
  /// never serialized per alignment — the pipeline aggregates them).
  AlignStats stats;
};

/// \brief The WikiMatch attribute aligner.
class AttributeAligner {
 public:
  explicit AttributeAligner(MatcherConfig config = {});

  /// \brief Runs AttributeAlignment over one type pair.
  AlignmentResult Align(const TypePairData& data) const;

  /// \brief Similarity features for one pair of groups: cosine of value
  /// vectors (vsim) and of link-structure vectors (lsim).
  static double ValueSimilarity(const AttributeGroup& a,
                                const AttributeGroup& b);
  static double LinkSimilarity(const AttributeGroup& a,
                               const AttributeGroup& b);

  /// \brief Mono-language grouping score g(ap, aq) = Opq / min(Op, Oq).
  static double GroupingScore(const TypePairData& data, size_t i, size_t j);

  /// \brief Inductive grouping score eg(a, a') of an uncertain pair given
  /// the current matches (Section 3.4).
  static double InductiveGroupingScore(const TypePairData& data,
                                       const eval::MatchSet& matches,
                                       size_t i, size_t j);

 private:
  /// Inverted-index feature pass; fills join counters into `stats`.
  std::vector<CandidatePair> IndexedCandidates(
      const TypePairData& data, const LsiCorrelation& lsi_scores,
      AlignStats* stats) const;

  MatcherConfig config_;
};

}  // namespace match
}  // namespace wikimatch

#endif  // WIKIMATCH_MATCH_ALIGNER_H_
