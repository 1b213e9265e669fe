// Reference feature pass for differential tests: the all-pairs loop the
// aligner ran before the similarity join. It scores every pair (i, j),
// i < j, by re-walking both groups' sparse vectors through the public
// cosine helpers; it is kept here only to pin the join's vsim, lsim and
// lsi bit for bit.

#ifndef WIKIMATCH_TESTS_ALIGN_ORACLE_H_
#define WIKIMATCH_TESTS_ALIGN_ORACLE_H_

#include <vector>

#include "match/aligner.h"
#include "match/lsi.h"
#include "match/schema_builder.h"

namespace wikimatch {
namespace align_oracle {

/// \brief Every candidate pair of `data` under `config`, in ascending
/// (i, j) order — what Align() scores, before it orders or prunes them.
inline std::vector<match::CandidatePair> AllPairs(
    const match::TypePairData& data, const match::MatcherConfig& config) {
  match::LsiCorrelation lsi_scores;
  if (config.use_lsi) {
    lsi_scores = match::LsiCorrelation::Compute(data, config.lsi);
  }
  auto link_supported = [&](const match::AttributeGroup& g) {
    return g.links.Sum() >= config.min_link_support * g.occurrences;
  };
  const size_t n = data.groups.size();
  std::vector<match::CandidatePair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const match::AttributeGroup& a = data.groups[i];
      const match::AttributeGroup& b = data.groups[j];
      match::CandidatePair p;
      p.i = i;
      p.j = j;
      if (config.use_vsim) {
        p.vsim = match::AttributeAligner::ValueSimilarity(a, b);
      }
      if (config.use_lsim && link_supported(a) && link_supported(b)) {
        p.lsim = match::AttributeAligner::LinkSimilarity(a, b);
      }
      if (config.use_lsi) p.lsi = lsi_scores.Score(i, j);
      pairs.push_back(p);
    }
  }
  return pairs;
}

}  // namespace align_oracle
}  // namespace wikimatch

#endif  // WIKIMATCH_TESTS_ALIGN_ORACLE_H_
