#include "match/lsi.h"

#include <algorithm>
#include <cmath>

#include "la/matrix.h"
#include "la/svd.h"

namespace wikimatch {
namespace match {

LsiCorrelation LsiCorrelation::Compute(const TypePairData& data,
                                       const LsiOptions& options) {
  const size_t n = data.groups.size();
  LsiCorrelation out;
  out.is_lang_a_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.is_lang_a_[i] = data.groups[i].key.language == data.lang_a;
  }

  // Same-language co-occurrence flags (the zero rule).
  out.co_occurs_.assign(n, std::vector<bool>(n, false));
  for (const auto& [key, count] : data.co_occur) {
    size_t i = key.first;
    size_t j = key.second;
    double floor = options.co_occur_tolerance *
                   std::min(data.groups[i].occurrences,
                            data.groups[j].occurrences);
    if (count > std::max(floor, 0.0)) {
      out.co_occurs_[i][j] = true;
      out.co_occurs_[j][i] = true;
    }
  }

  if (n == 0 || data.num_duals == 0) {
    out.rank_ = 0;
    return out;
  }

  // Binary occurrence matrix: attributes x dual infoboxes.
  la::Matrix m(n, data.num_duals);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t doc : data.groups[i].dual_docs) m(i, doc) = 1.0;
  }

  size_t rank = options.rank;
  if (rank == 0) rank = std::clamp<size_t>(n / 3, 4, 64);
  la::SvdResult svd = la::ComputeTruncatedSvd(m, rank);
  out.rank_ = svd.singular_values.size();

  out.reduced_.resize(n);
  for (size_t i = 0; i < n; ++i) out.reduced_[i] = svd.ScaledRowVector(i);
  return out;
}

double LsiCorrelation::RawCosine(size_t i, size_t j) const {
  if (i >= reduced_.size() || j >= reduced_.size()) return 0.0;
  if (reduced_[i].empty() || reduced_[j].empty()) return 0.0;
  return la::CosineSimilarity(reduced_[i], reduced_[j]);
}

double LsiCorrelation::Score(size_t i, size_t j) const {
  if (i == j) return 1.0;
  bool same_language = is_lang_a_[i] == is_lang_a_[j];
  if (!same_language) {
    return std::clamp(RawCosine(i, j), 0.0, 1.0);
  }
  if (co_occurs_[i][j]) return 0.0;
  return std::clamp(1.0 - RawCosine(i, j), 0.0, 1.0);
}

}  // namespace match
}  // namespace wikimatch
