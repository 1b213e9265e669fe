// Reproduces Table 6 (Appendix B): macro-averaged precision/recall/F —
// counting distinct attribute-name pairs instead of frequency weighting —
// for WikiMatch, Bouma, COMA++, and LSI. WikiMatch should stay on top.

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

// Aggregates distinct-pair counts across all types of a pair, then derives
// macro P/R.
struct PairCounts {
  size_t derived = 0;
  size_t truth = 0;
  size_t correct = 0;

  void Add(const eval::MatchSet& matches, const eval::MatchSet& truth_set,
           const std::string& lang_a, const std::string& lang_b) {
    auto derived_pairs = matches.CrossLanguagePairs(lang_a, lang_b);
    auto truth_pairs = truth_set.CrossLanguagePairs(lang_a, lang_b);
    derived += derived_pairs.size();
    truth += truth_pairs.size();
    for (const auto& pair : derived_pairs) {
      if (truth_set.AreMatched(pair.first, pair.second)) ++correct;
    }
  }

  eval::Prf Prf() const {
    double p = derived > 0 ? static_cast<double>(correct) / derived : 0.0;
    double r = truth > 0 ? static_cast<double>(correct) / truth : 0.0;
    return eval::Prf::Of(p, r);
  }
};

void RunPair(BenchContext* ctx, const std::string& lang, eval::Table* table) {
  const auto& pair = ctx->Pair(lang);
  const auto& gc = ctx->gc();
  baselines::NameTranslations mt = synth::MakeMtOracle(gc);
  match::AttributeAligner wikimatch{match::MatcherConfig{}};

  PairCounts wm, bouma, coma, lsi;
  for (const auto& type : pair.types) {
    const auto& truth = ctx->Truth(type.hub_type);
    wm.Add(wikimatch.Align(type.translated).matches, truth, lang, gc.hub);

    auto bouma_result = baselines::RunBoumaMatcher(gc.corpus, lang,
                                                   type.type_a, gc.hub,
                                                   type.type_b);
    if (bouma_result.ok()) {
      bouma.Add(bouma_result->matches, truth, lang, gc.hub);
    }

    baselines::ComaConfig coma_config;
    coma_config.use_instance = true;
    coma_config.threshold = 0.01;
    coma_config.use_name = lang == "pt";
    coma_config.translate_names = lang == "pt";
    auto coma_result =
        baselines::RunComaMatcher(type.sampled_translated, coma_config, mt);
    if (coma_result.ok()) coma.Add(coma_result->matches, truth, lang, gc.hub);

    auto lsi_result = baselines::RunLsiMatcher(type.translated);
    if (lsi_result.ok()) lsi.Add(lsi_result->matches, truth, lang, gc.hub);
  }

  auto add = [&](const char* name, const PairCounts& counts) {
    eval::Prf prf = counts.Prf();
    table->AddRow({(lang == "pt" ? "Pt-En " : "Vn-En ") + std::string(name),
                   F2(prf.precision), F2(prf.recall), F2(prf.f1)});
  };
  add("WikiMatch", wm);
  add("Bouma", bouma);
  add("COMA++", coma);
  add("LSI", lsi);
}

}  // namespace

int main() {
  BenchContext ctx(benchharness::ScaleFromEnv());
  eval::Table table({"pair / approach", "P", "R", "F"});
  RunPair(&ctx, "pt", &table);
  RunPair(&ctx, "vi", &table);
  std::printf("\nTable 6 — macro-averaged results (paper: Pt-En WM "
              "0.88/0.60/0.71, Bouma 0.93/0.36/0.52, COMA 0.79/0.47/0.59, "
              "LSI 0.27/0.28/0.27; Vn-En WM 1.00/0.58/0.73)\n%s\n",
              table.ToString().c_str());
  return 0;
}
