// Reproduces Table 2: weighted Precision / Recall / F-measure per entity
// type for WikiMatch, Bouma, COMA++ (best configuration per pair), and LSI
// (top-1), on Portuguese-English and Vietnamese-English.
//
// Expected shape (paper): WikiMatch has the best F on nearly every type and
// the best average on both pairs, driven by recall; Bouma and COMA++ can
// win precision on individual types; LSI alone is the weakest.

#include <cstdio>

#include "baselines/bouma_matcher.h"
#include "baselines/coma_matcher.h"
#include "baselines/lsi_matcher.h"
#include "bench_common.h"
#include "eval/table.h"
#include "match/aligner.h"
#include "synth/mt_oracle.h"

using namespace wikimatch;
using benchharness::BenchContext;
using benchharness::F2;

namespace {

void RunPair(BenchContext* ctx, const std::string& lang) {
  const auto& pair = ctx->Pair(lang);
  const auto& gc = ctx->gc();

  baselines::NameTranslations mt = synth::MakeMtOracle(gc);

  eval::Table table({"type", "WM:P", "WM:R", "WM:F", "Bouma:P", "Bouma:R",
                     "Bouma:F", "COMA:P", "COMA:R", "COMA:F", "LSI:P",
                     "LSI:R", "LSI:F"});
  std::vector<eval::Prf> wm_rows, bouma_rows, coma_rows, lsi_rows;

  match::AttributeAligner wikimatch{match::MatcherConfig{}};
  for (const auto& type : pair.types) {
    // --- WikiMatch ---
    eval::Prf wm_prf =
        ctx->Eval(type, wikimatch.Align(type.translated).matches, lang);

    // --- Bouma ---
    eval::Prf bouma_prf;
    auto bouma = baselines::RunBoumaMatcher(gc.corpus, lang, type.type_a,
                                            gc.hub, type.type_b);
    if (bouma.ok()) bouma_prf = ctx->Eval(type, bouma->matches, lang);

    // --- COMA++ best configuration per pair (paper Appendix C):
    // Pt-En: NG+ID (names via MT, instances via dictionary);
    // Vn-En: ID (instances via dictionary only).
    baselines::ComaConfig coma_config;
    coma_config.use_instance = true;
    coma_config.threshold = 0.01;
    if (lang == "pt") {
      coma_config.use_name = true;
      coma_config.translate_names = true;
    } else {
      coma_config.use_name = false;
    }
    eval::Prf coma_prf;
    auto coma =
        baselines::RunComaMatcher(type.sampled_translated, coma_config, mt);
    if (coma.ok()) coma_prf = ctx->Eval(type, coma->matches, lang);

    // --- LSI top-1 ---
    eval::Prf lsi_prf;
    auto lsi = baselines::RunLsiMatcher(type.translated);
    if (lsi.ok()) lsi_prf = ctx->Eval(type, lsi->matches, lang);

    wm_rows.push_back(wm_prf);
    bouma_rows.push_back(bouma_prf);
    coma_rows.push_back(coma_prf);
    lsi_rows.push_back(lsi_prf);
    table.AddRow({type.hub_type, F2(wm_prf.precision), F2(wm_prf.recall),
                  F2(wm_prf.f1), F2(bouma_prf.precision), F2(bouma_prf.recall),
                  F2(bouma_prf.f1), F2(coma_prf.precision),
                  F2(coma_prf.recall), F2(coma_prf.f1), F2(lsi_prf.precision),
                  F2(lsi_prf.recall), F2(lsi_prf.f1)});
  }
  eval::Prf wm_avg = eval::AveragePrf(wm_rows);
  eval::Prf bouma_avg = eval::AveragePrf(bouma_rows);
  eval::Prf coma_avg = eval::AveragePrf(coma_rows);
  eval::Prf lsi_avg = eval::AveragePrf(lsi_rows);
  table.AddRow({"Avg", F2(wm_avg.precision), F2(wm_avg.recall), F2(wm_avg.f1),
                F2(bouma_avg.precision), F2(bouma_avg.recall),
                F2(bouma_avg.f1), F2(coma_avg.precision), F2(coma_avg.recall),
                F2(coma_avg.f1), F2(lsi_avg.precision), F2(lsi_avg.recall),
                F2(lsi_avg.f1)});

  std::printf("\nTable 2 — %s-English (paper Avg for reference: Pt-En WM "
              "0.93/0.75/0.82, Vn-En WM 1.00/0.75/0.84)\n%s\n",
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
