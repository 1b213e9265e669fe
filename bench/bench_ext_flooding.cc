// Extension experiment (not in the paper — its Section 7 names similarity
// flooding as future work): WikiMatch vs. a similarity-flooding matcher
// seeded with the same features, per type and averaged, on both pairs.

#include <cstdio>

#include "bench_common.h"
#include "eval/table.h"
#include "match/aligner.h"
#include "match/similarity_flooding.h"

using namespace wikimatch;
using benchharness::BenchContext;
using benchharness::F2;

namespace {

void RunPair(BenchContext* ctx, const std::string& lang) {
  const auto& pair = ctx->Pair(lang);
  match::AttributeAligner wikimatch{match::MatcherConfig{}};

  eval::Table table({"type", "WM:P", "WM:R", "WM:F", "Flood:P", "Flood:R",
                     "Flood:F", "iters"});
  std::vector<eval::Prf> wm_rows;
  std::vector<eval::Prf> flood_rows;
  for (const auto& type : pair.types) {
    const match::AlignmentResult wm = wikimatch.Align(type.translated);
    auto flood = match::RunSimilarityFlooding(type.translated);
    if (!flood.ok()) continue;
    eval::Prf wm_prf = ctx->Eval(type, wm.matches, lang);
    eval::Prf flood_prf = ctx->Eval(type, flood->matches, lang);
    wm_rows.push_back(wm_prf);
    flood_rows.push_back(flood_prf);
    table.AddRow({type.hub_type, F2(wm_prf.precision), F2(wm_prf.recall),
                  F2(wm_prf.f1), F2(flood_prf.precision),
                  F2(flood_prf.recall), F2(flood_prf.f1),
                  std::to_string(flood->iterations)});
  }
  eval::Prf wm_avg = eval::AveragePrf(wm_rows);
  eval::Prf flood_avg = eval::AveragePrf(flood_rows);
  table.AddRow({"Avg", F2(wm_avg.precision), F2(wm_avg.recall),
                F2(wm_avg.f1), F2(flood_avg.precision),
                F2(flood_avg.recall), F2(flood_avg.f1), ""});
  std::printf("\nExtension — WikiMatch vs similarity flooding, %s-En\n%s\n",
              lang == "pt" ? "Portuguese" : "Vietnamese",
              table.ToString().c_str());
}

}  // namespace

int main() {
  BenchContext ctx(benchharness::ScaleFromEnv());
  RunPair(&ctx, "pt");
  RunPair(&ctx, "vi");
  return 0;
}
