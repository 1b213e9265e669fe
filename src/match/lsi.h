// LSI attribute correlation (Section 3.2).
//
// Rows of the occurrence matrix are attribute groups, columns are
// dual-language infoboxes; M(i,j) = 1 when attribute i appears in dual
// infobox j. A rank-f truncated SVD maps each attribute to a
// language-independent concept vector (row of U_f scaled by the singular
// values). The paper's three-case score:
//
//   cross-language pair:             cosine(v_i, v_j)
//   same-language, co-occurring:     0        (unlikely synonyms)
//   same-language, non-co-occurring: 1 - cosine(v_i, v_j)

#ifndef WIKIMATCH_MATCH_LSI_H_
#define WIKIMATCH_MATCH_LSI_H_

#include <vector>

#include "match/schema_builder.h"

namespace wikimatch {
namespace match {

/// \brief Options for the LSI correlation.
struct LsiOptions {
  /// Truncation rank f; 0 chooses clamp(num_groups / 3, 4, 64).
  size_t rank = 0;
  /// Same-language pairs are declared non-synonyms (score 0) when their
  /// co-occurrence count exceeds this fraction of the rarer attribute's
  /// occurrences. The paper's rule is "co-occur => 0"; the tolerance
  /// absorbs noise (misplaced values) in large corpora.
  double co_occur_tolerance = 0.02;
};

/// \brief Precomputed LSI correlation scores for one TypePairData.
class LsiCorrelation {
 public:
  /// Constructs an empty correlation (every score 0); use Compute().
  LsiCorrelation() = default;

  /// \brief Runs the truncated SVD and caches attribute vectors.
  static LsiCorrelation Compute(const TypePairData& data,
                                const LsiOptions& options = {});

  /// \brief The paper's LSI score for groups i and j (indexes into
  /// data.groups). Symmetric; clamped to [0, 1].
  double Score(size_t i, size_t j) const;

  /// \brief Raw cosine of the reduced attribute vectors (pre-rule).
  double RawCosine(size_t i, size_t j) const;

  /// \brief Effective truncation rank used.
  size_t rank() const { return rank_; }

 private:

  std::vector<std::vector<double>> reduced_;  // per-group scaled vector
  std::vector<bool> is_lang_a_;
  std::vector<std::vector<bool>> co_occurs_;  // same-language zero rule
  size_t rank_ = 0;
};

}  // namespace match
}  // namespace wikimatch

#endif  // WIKIMATCH_MATCH_LSI_H_
