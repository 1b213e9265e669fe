#include "baselines/lsi_matcher.h"

#include <algorithm>

namespace wikimatch {
namespace baselines {

LsiMatcherResult RunLsiMatcher(const match::TypePairData& data,
                               const LsiMatcherConfig& config) {
  LsiMatcherResult out;
  const match::LsiCorrelation lsi =
      match::LsiCorrelation::Compute(data, config.lsi);

  // Global ranking of cross-language pairs, best first.
  struct Scored {
    size_t i;
    size_t j;
    double score;
  };
  std::vector<Scored> scored;
  for (size_t i = 0; i < data.groups.size(); ++i) {
    if (data.groups[i].key.language != data.lang_a) continue;
    for (size_t j = 0; j < data.groups.size(); ++j) {
      if (data.groups[j].key.language != data.lang_b) continue;
      scored.push_back({i, j, lsi.Score(i, j)});
    }
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& x, const Scored& y) {
                     return x.score > y.score;
                   });
  for (const auto& s : scored) {
    out.ranking.emplace_back(data.groups[s.i].key, data.groups[s.j].key);
  }

  // Top-k per lang_a attribute.
  std::map<size_t, size_t> taken;
  for (const auto& s : scored) {
    if (s.score <= 0.0) continue;
    if (taken[s.i] >= config.top_k) continue;
    taken[s.i]++;
    out.matches.AddPair(data.groups[s.i].key, data.groups[s.j].key);
  }
  return out;
}

}  // namespace baselines
}  // namespace wikimatch
