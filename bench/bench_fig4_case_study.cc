// Reproduces Figure 4 (Section 5): cumulative gain of the top-k answers
// for the case-study workload run natively (Pt, Vn) and translated into
// English via WikiMatch's correspondences (Pt->En, Vn->En).
//
// Expected shape: the translated-to-English curves dominate their native
// counterparts (the English corpus covers more entities), and the Vn->En
// gain is smaller than Pt->En (dangling Vietnamese types/attributes force
// more query relaxation).

#include <cstdio>
#include <map>

#include "bench_common.h"
#include "eval/table.h"
#include "match/aligner.h"
#include "query/case_study.h"
#include "query/translator.h"

using namespace wikimatch;
using benchharness::BenchContext;
using benchharness::F2;

namespace {

std::vector<query::CaseStudyCurve> RunLang(BenchContext* ctx,
                                           const std::string& lang) {
  const auto& pair = ctx->Pair(lang);
  const auto& gc = ctx->gc();

  // Derive correspondences with WikiMatch and wire up the translator.
  match::AttributeAligner aligner{match::MatcherConfig{}};
  std::map<std::string, eval::MatchSet> per_type_matches;
  for (const auto& type : pair.types) {
    per_type_matches.emplace(type.type_b,
                             aligner.Align(type.translated).matches);
  }
  std::map<std::string, const eval::MatchSet*> match_ptrs;
  for (const auto& [type_b, matches] : per_type_matches) {
    match_ptrs.emplace(type_b, &matches);
  }
  query::QueryTranslator translator(lang, gc.hub, pair.type_matches,
                                    match_ptrs,
                                    &ctx->pipeline().dictionary());

  auto queries = query::BuildCaseQueries(gc);
  auto curves = query::RunCaseStudy(gc, queries, lang, translator);
  if (!curves.ok()) {
    std::fprintf(stderr, "case study failed for %s: %s\n", lang.c_str(),
                 curves.status().ToString().c_str());
    return {};
  }
  return std::move(curves).ValueOrDie();
}

}  // namespace

int main() {
  BenchContext ctx(benchharness::ScaleFromEnv());

  auto pt_curves = RunLang(&ctx, "pt");
  auto vn_curves = RunLang(&ctx, "vi");

  eval::Table table({"k", "Pt", "Pt->En", "Vn", "Vn->En"});
  size_t top_k = 20;
  for (size_t k = 0; k < top_k; ++k) {
    auto cell = [&](const std::vector<query::CaseStudyCurve>& curves,
                    size_t idx) {
      if (idx >= curves.size() || k >= curves[idx].cg.size()) {
        return std::string("-");
      }
      return F2(curves[idx].cg[k]);
    };
    table.AddRow({std::to_string(k + 1), cell(pt_curves, 0),
                  cell(pt_curves, 1), cell(vn_curves, 0),
                  cell(vn_curves, 1)});
  }
  std::printf("\nFigure 4 — cumulative gain of top-k answers (paper: "
              "translated-to-English curves dominate; Vn->En gain smaller "
              "than Pt->En)\n%s\n",
              table.ToString().c_str());
  return 0;
}
