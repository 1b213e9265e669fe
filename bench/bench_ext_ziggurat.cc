// Extension experiment: the Ziggurat-style self-supervised classifier
// (Adar et al. 2009) that the paper could not obtain for comparison
// (Section 6), trained on heuristic labels from the corpus itself.
//
// Expected (from the paper's qualitative argument): competitive on
// Portuguese-English, where half its features — name string similarities —
// carry signal, and clearly weaker on Vietnamese-English, where they
// don't. WikiMatch should beat it on both.

#include <cstdio>

#include "baselines/ziggurat.h"
#include "bench_common.h"
#include "eval/table.h"
#include "match/aligner.h"

using namespace wikimatch;
using benchharness::BenchContext;
using benchharness::F2;

namespace {

void RunPair(BenchContext* ctx, const std::string& lang) {
  const auto& pair = ctx->Pair(lang);

  // Ziggurat sees raw (untranslated) values — it has no dictionary.
  std::vector<const match::TypePairData*> training;
  for (const auto& type : pair.types) training.push_back(&type.raw);
  baselines::ZigguratMatcher ziggurat;
  auto trained = ziggurat.Train(training);
  if (!trained.ok()) {
    std::printf("ziggurat training failed for %s: %s\n", lang.c_str(),
                trained.ToString().c_str());
    return;
  }

  match::AttributeAligner wikimatch{match::MatcherConfig{}};
  eval::Table table({"type", "WM:P", "WM:R", "WM:F", "Zig:P", "Zig:R",
                     "Zig:F"});
  std::vector<eval::Prf> wm_rows;
  std::vector<eval::Prf> zig_rows;
  for (const auto& type : pair.types) {
    const match::AlignmentResult wm = wikimatch.Align(type.translated);
    auto zig = ziggurat.Match(type.raw);
    if (!zig.ok()) continue;
    eval::Prf wm_prf = ctx->Eval(type, wm.matches, lang);
    eval::Prf zig_prf = ctx->Eval(type, *zig, lang);
    wm_rows.push_back(wm_prf);
    zig_rows.push_back(zig_prf);
    table.AddRow({type.hub_type, F2(wm_prf.precision), F2(wm_prf.recall),
                  F2(wm_prf.f1), F2(zig_prf.precision), F2(zig_prf.recall),
                  F2(zig_prf.f1)});
  }
  eval::Prf wm_avg = eval::AveragePrf(wm_rows);
  eval::Prf zig_avg = eval::AveragePrf(zig_rows);
  table.AddRow({"Avg", F2(wm_avg.precision), F2(wm_avg.recall),
                F2(wm_avg.f1), F2(zig_avg.precision), F2(zig_avg.recall),
                F2(zig_avg.f1)});
  std::printf("\nExtension — WikiMatch vs Ziggurat-style classifier, "
              "%s-En (%zu positives / %zu negatives harvested)\n%s\n",
              lang == "pt" ? "Portuguese" : "Vietnamese",
              ziggurat.num_positives(), ziggurat.num_negatives(),
              table.ToString().c_str());
}

}  // namespace

int main() {
  BenchContext ctx(benchharness::ScaleFromEnv());
  RunPair(&ctx, "pt");
  RunPair(&ctx, "vi");
  return 0;
}
