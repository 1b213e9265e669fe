// Alternative attribute-correlation measures (paper Appendix B, Table 7):
// candidate-pair orderings by X1, X2, X3 co-occurrence statistics, by LSI,
// and by a random baseline, evaluated with MAP.
//
//   X1 = Opq
//   X2 = (1 + Opq/Op)(1 + Opq/Oq)
//   X3 = Opq * Opq / (Op + Oq)
//
// where Op, Oq are attribute occurrence counts and Opq the co-occurrence
// count in the dual-language infoboxes of the type.

#ifndef WIKIMATCH_BASELINES_CORRELATION_MEASURES_H_
#define WIKIMATCH_BASELINES_CORRELATION_MEASURES_H_

#include <string>
#include <vector>

#include "eval/match_set.h"
#include "match/schema_builder.h"

namespace wikimatch {
namespace baselines {

/// \brief Which correlation measure orders the candidates.
enum class CorrelationMeasure { kLsi, kX1, kX2, kX3, kRandom };

/// \brief Human-readable name ("LSI", "X1", ...).
const char* CorrelationMeasureName(CorrelationMeasure measure);

/// \brief Ranks all cross-language candidate pairs of `data` by `measure`,
/// best first. The random baseline is deterministic in `seed`.
///
/// Co-occurrence for X1..X3 is counted over dual-language infoboxes: Opq is
/// the number of dual infoboxes containing attribute p on its side and q on
/// the other side.
std::vector<std::pair<eval::AttrKey, eval::AttrKey>> RankCandidates(
    const match::TypePairData& data, CorrelationMeasure measure,
    uint64_t seed = 0xC0FFEE);

}  // namespace baselines
}  // namespace wikimatch

#endif  // WIKIMATCH_BASELINES_CORRELATION_MEASURES_H_
