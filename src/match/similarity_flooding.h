// Similarity flooding (Melnik, Garcia-Molina, Rahm — ICDE 2002), the
// fixed-point matching strategy the paper names as future work
// (Section 7). Adapted to flat infobox schemas: the propagation graph is
// induced by mono-language co-occurrence instead of schema structure.
//
// Nodes of the pairwise connectivity graph are cross-language attribute
// pairs (a, b). Two nodes (a, b) and (a', b') are neighbors when a
// co-occurs with a' in lang_a infoboxes AND b co-occurs with b' in lang_b
// infoboxes; the edge weight is the product of the grouping scores
// g(a, a') * g(b, b'), out-normalized. Each iteration floods similarity:
//
//   sigma_{i+1}(n) = sigma_0(n) + sum_{m in N(n)} w(m, n) * sigma_i(m)
//
// followed by normalization to [0, 1]; iteration stops when the vector
// moves less than `tolerance` or after `max_iterations`. Initial
// similarities sigma_0 come from the same features WikiMatch uses
// (max(vsim, lsim), optionally blended with LSI).

#ifndef WIKIMATCH_MATCH_SIMILARITY_FLOODING_H_
#define WIKIMATCH_MATCH_SIMILARITY_FLOODING_H_

#include <vector>

#include "eval/match_set.h"
#include "match/lsi.h"
#include "match/schema_builder.h"

namespace wikimatch {
namespace match {

/// \brief Flooding parameters.
struct FloodingConfig {
  /// Weight of the flooded mass relative to the initial similarity
  /// (the "basic" fixpoint formula keeps sigma_0 at weight 1).
  double propagation_weight = 1.0;
  int max_iterations = 64;
  double tolerance = 1e-4;
  /// Blend LSI correlation into the initial similarity:
  /// sigma_0 = (1 - lsi_blend) * max(vsim, lsim) + lsi_blend * LSI.
  double lsi_blend = 0.3;
  /// Selection threshold on the converged, normalized similarity.
  double select_threshold = 0.55;
  /// Keep only pairs that are mutual best candidates (stable-marriage-like
  /// filtering, as in the original paper's selection step).
  bool reciprocal = true;
  LsiOptions lsi;
};

/// \brief Flooding output.
struct FloodingResult {
  /// Selected correspondences (pairwise — flooding does not build synonym
  /// components).
  eval::MatchSet matches{/*transitive=*/false};
  /// Converged similarity for every cross-language pair, aligned with
  /// `pairs`.
  std::vector<std::pair<eval::AttrKey, eval::AttrKey>> pairs;
  std::vector<double> similarity;
  int iterations = 0;
};

/// \brief Runs similarity flooding over one type pair.
FloodingResult RunSimilarityFlooding(const TypePairData& data,
                                     const FloodingConfig& config = {});

}  // namespace match
}  // namespace wikimatch

#endif  // WIKIMATCH_MATCH_SIMILARITY_FLOODING_H_
