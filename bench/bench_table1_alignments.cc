// Reproduces Table 1: example alignments identified by WikiMatch for the
// Actor (Pt-En) and Movie (Vn-En) types, including one-to-many matches.

#include <cstdio>

#include "bench_common.h"
#include "match/aligner.h"

using namespace wikimatch;
using benchharness::BenchContext;

namespace {

void ShowAlignments(BenchContext* ctx, const std::string& lang,
                    const std::string& hub_type, size_t max_rows) {
  const auto& pair = ctx->Pair(lang);
  for (const auto& type : pair.types) {
    if (type.hub_type != hub_type) continue;
    match::AttributeAligner aligner{match::MatcherConfig{}};
    const match::AlignmentResult result = aligner.Align(type.translated);
    std::printf("\nType %s (%s-En), %zu dual infoboxes:\n", hub_type.c_str(),
                lang.c_str(), type.num_duals);
    const auto& truth = ctx->Truth(hub_type);
    size_t shown = 0;
    for (const auto& cluster : result.matches.Clusters()) {
      if (shown >= max_rows) break;
      // Render the cluster, marking whether it is fully correct.
      bool all_correct = true;
      std::string line;
      for (const auto& attr : cluster) {
        if (!line.empty()) line += " ~ ";
        line += attr.language + ":" + attr.name;
        for (const auto& other : cluster) {
          if (!(attr == other) && !truth.AreMatched(attr, other)) {
            all_correct = false;
          }
        }
      }
      std::printf("  [%s] %s\n", all_correct ? "ok" : "??", line.c_str());
      ++shown;
    }
    return;
  }
  std::printf("  (type %s not found for %s)\n", hub_type.c_str(),
              lang.c_str());
}

}  // namespace

int main() {
  BenchContext ctx(benchharness::ScaleFromEnv());
  std::printf("\nTable 1 — example alignments found by WikiMatch\n");
  ShowAlignments(&ctx, "pt", "actor", 12);
  ShowAlignments(&ctx, "pt", "film", 12);
  ShowAlignments(&ctx, "vi", "film", 12);
  ShowAlignments(&ctx, "vi", "actor", 12);
  return 0;
}
