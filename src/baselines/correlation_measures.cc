#include "baselines/correlation_measures.h"

#include <algorithm>

#include "match/lsi.h"
#include "util/rng.h"

namespace wikimatch {
namespace baselines {

const char* CorrelationMeasureName(CorrelationMeasure measure) {
  switch (measure) {
    case CorrelationMeasure::kLsi:
      return "LSI";
    case CorrelationMeasure::kX1:
      return "X1";
    case CorrelationMeasure::kX2:
      return "X2";
    case CorrelationMeasure::kX3:
      return "X3";
    case CorrelationMeasure::kRandom:
      return "Random";
  }
  return "?";
}

std::vector<std::pair<eval::AttrKey, eval::AttrKey>> RankCandidates(
    const match::TypePairData& data, CorrelationMeasure measure,
    uint64_t seed) {
  std::vector<size_t> side_a;
  std::vector<size_t> side_b;
  for (size_t i = 0; i < data.groups.size(); ++i) {
    (data.groups[i].key.language == data.lang_a ? side_a : side_b)
        .push_back(i);
  }

  match::LsiCorrelation lsi;
  if (measure == CorrelationMeasure::kLsi) {
    lsi = match::LsiCorrelation::Compute(data);
  }

  struct Scored {
    size_t i;
    size_t j;
    double score;
  };
  std::vector<Scored> scored;
  util::Rng rng(seed);
  for (size_t ia : side_a) {
    const auto& ga = data.groups[ia];
    for (size_t ib : side_b) {
      const auto& gb = data.groups[ib];
      // Dual-infobox co-occurrence: attribute p on one side, q on the other.
      double opq = 0.0;
      for (uint32_t doc : ga.dual_docs) {
        if (gb.dual_docs.count(doc) > 0) opq += 1.0;
      }
      double op = ga.occurrences;
      double oq = gb.occurrences;
      double score = 0.0;
      switch (measure) {
        case CorrelationMeasure::kLsi:
          score = lsi.Score(ia, ib);
          break;
        case CorrelationMeasure::kX1:
          score = opq;
          break;
        case CorrelationMeasure::kX2:
          score = (op > 0.0 && oq > 0.0)
                      ? (1.0 + opq / op) * (1.0 + opq / oq)
                      : 0.0;
          break;
        case CorrelationMeasure::kX3:
          score = (op + oq) > 0.0 ? opq * opq / (op + oq) : 0.0;
          break;
        case CorrelationMeasure::kRandom:
          score = rng.NextDouble();
          break;
      }
      scored.push_back({ia, ib, score});
    }
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& x, const Scored& y) {
                     return x.score > y.score;
                   });
  std::vector<std::pair<eval::AttrKey, eval::AttrKey>> out;
  out.reserve(scored.size());
  for (const auto& s : scored) {
    out.emplace_back(data.groups[s.i].key, data.groups[s.j].key);
  }
  return out;
}

}  // namespace baselines
}  // namespace wikimatch
