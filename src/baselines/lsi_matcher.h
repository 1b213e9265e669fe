// LSI-only baseline (Section 4.1 / Figure 6): align each lang_a attribute
// with its top-k LSI-scoring lang_b attributes, no other evidence.

#ifndef WIKIMATCH_BASELINES_LSI_MATCHER_H_
#define WIKIMATCH_BASELINES_LSI_MATCHER_H_

#include "eval/match_set.h"
#include "match/lsi.h"
#include "match/schema_builder.h"

namespace wikimatch {
namespace baselines {

/// \brief Configuration for the LSI-only matcher.
struct LsiMatcherConfig {
  /// Keep the top-k scoring lang_b candidates per lang_a attribute.
  size_t top_k = 1;
  match::LsiOptions lsi;
};

/// \brief Output: matches plus the full ranking (for MAP studies).
struct LsiMatcherResult {
  eval::MatchSet matches{/*transitive=*/false};
  /// Cross-language pairs ranked by LSI score, best first.
  std::vector<std::pair<eval::AttrKey, eval::AttrKey>> ranking;
};

/// \brief Runs the LSI baseline over one type pair.
LsiMatcherResult RunLsiMatcher(const match::TypePairData& data,
                               const LsiMatcherConfig& config = {});

}  // namespace baselines
}  // namespace wikimatch

#endif  // WIKIMATCH_BASELINES_LSI_MATCHER_H_
