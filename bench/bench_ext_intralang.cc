// Extension experiment: intra-language synonym discovery. The paper's
// algorithm "finds, in a single step, inter- and intra-language
// correspondences" (Section 3); its evaluation only scores the
// cross-language ones. This bench scores the same-language pairs inside
// the derived match components against the concept ground truth.

#include <cstdio>

#include "bench_common.h"
#include "eval/table.h"
#include "match/aligner.h"

using namespace wikimatch;
using benchharness::BenchContext;
using benchharness::F2;

namespace {

// Distinct unordered same-language pairs of a match set.
std::set<std::pair<eval::AttrKey, eval::AttrKey>> IntraPairs(
    const eval::MatchSet& matches, const std::string& lang) {
  std::set<std::pair<eval::AttrKey, eval::AttrKey>> out;
  for (const auto& cluster : matches.Clusters()) {
    for (const auto& a : cluster) {
      if (a.language != lang) continue;
      for (const auto& b : cluster) {
        if (b.language != lang || !(a < b)) continue;
        out.emplace(a, b);
      }
    }
  }
  return out;
}

void RunPair(BenchContext* ctx, const std::string& pair_lang) {
  match::AttributeAligner aligner{match::MatcherConfig{}};
  eval::Table table({"language", "derived", "truth", "correct", "P", "R",
                     "F"});
  for (const std::string& side : {pair_lang, std::string("en")}) {
    size_t derived_total = 0;
    size_t truth_total = 0;
    size_t correct_total = 0;
    for (const auto& type : ctx->Pair(pair_lang).types) {
      const match::AlignmentResult result = aligner.Align(type.translated);
      const eval::MatchSet& truth = ctx->Truth(type.hub_type);
      auto derived = IntraPairs(result.matches, side);
      // Ground-truth intra pairs restricted to attributes that actually
      // occur in this type pair's schemas.
      std::set<std::pair<eval::AttrKey, eval::AttrKey>> truth_pairs;
      for (const auto& cluster : truth.Clusters()) {
        for (const auto& a : cluster) {
          if (a.language != side ||
              type.translated.GroupIndex(a) == SIZE_MAX) {
            continue;
          }
          for (const auto& b : cluster) {
            if (b.language != side || !(a < b) ||
                type.translated.GroupIndex(b) == SIZE_MAX) {
              continue;
            }
            truth_pairs.emplace(a, b);
          }
        }
      }
      derived_total += derived.size();
      truth_total += truth_pairs.size();
      for (const auto& pair : derived) {
        if (truth.AreMatched(pair.first, pair.second)) ++correct_total;
      }
    }
    double p = derived_total
                   ? static_cast<double>(correct_total) / derived_total
                   : 0.0;
    double r = truth_total
                   ? static_cast<double>(correct_total) / truth_total
                   : 0.0;
    eval::Prf prf = eval::Prf::Of(p, r);
    table.AddRow({side, std::to_string(derived_total),
                  std::to_string(truth_total),
                  std::to_string(correct_total), F2(prf.precision),
                  F2(prf.recall), F2(prf.f1)});
  }
  std::printf("\nExtension — intra-language synonyms discovered while "
              "aligning the %s-En pair\n%s\n",
              pair_lang.c_str(), table.ToString().c_str());
}

}  // namespace

int main() {
  BenchContext ctx(benchharness::ScaleFromEnv());
  RunPair(&ctx, "pt");
  RunPair(&ctx, "vi");
  return 0;
}
