// Extension experiment: sensitivity of WikiMatch to this implementation's
// own design choices (the knobs DESIGN.md calls out that the paper leaves
// unspecified):
//
//   * LSI truncation rank f            (the paper never states f)
//   * same-language co-occurrence tolerance (paper: "co-occur => 0")
//   * link-structure support floor     (our guard against stray links)
//   * ReviseUncertain minimum-similarity floor and inductive threshold
//
// Each sweep varies one knob with everything else at defaults, reporting
// the averaged weighted P/R/F for both pairs.

#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "eval/table.h"
#include "match/aligner.h"

using namespace wikimatch;
using benchharness::BenchContext;
using benchharness::F2;

namespace {

eval::Prf RunConfig(BenchContext* ctx, const std::string& lang,
                    const match::MatcherConfig& config) {
  match::AttributeAligner aligner(config);
  std::vector<eval::Prf> rows;
  for (const auto& type : ctx->Pair(lang).types) {
    rows.push_back(
        ctx->Eval(type, aligner.Align(type.translated).matches, lang));
  }
  return eval::AveragePrf(rows);
}

void Sweep(BenchContext* ctx, const char* title,
           const std::vector<double>& values,
           const std::function<void(match::MatcherConfig*, double)>& apply) {
  eval::Table table({"value", "Pt:P", "Pt:R", "Pt:F", "Vn:P", "Vn:R",
                     "Vn:F"});
  for (double v : values) {
    match::MatcherConfig config;
    apply(&config, v);
    eval::Prf pt = RunConfig(ctx, "pt", config);
    eval::Prf vn = RunConfig(ctx, "vi", config);
    table.AddRow({eval::Table::Num(v, 3), F2(pt.precision), F2(pt.recall),
                  F2(pt.f1), F2(vn.precision), F2(vn.recall), F2(vn.f1)});
  }
  std::printf("\n%s\n%s\n", title, table.ToString().c_str());
}

}  // namespace

int main() {
  BenchContext ctx(benchharness::ScaleFromEnv());

  Sweep(&ctx, "LSI truncation rank f (0 = auto)",
        {0, 2, 4, 8, 16, 32, 64},
        [](match::MatcherConfig* c, double v) {
          c->lsi.rank = static_cast<size_t>(v);
        });

  Sweep(&ctx, "Same-language co-occurrence tolerance",
        {0.0, 0.01, 0.02, 0.05, 0.10, 0.25},
        [](match::MatcherConfig* c, double v) {
          c->lsi.co_occur_tolerance = v;
        });

  Sweep(&ctx, "Link-structure support floor (min links per occurrence)",
        {0.0, 0.02, 0.05, 0.10, 0.25, 0.5},
        [](match::MatcherConfig* c, double v) { c->min_link_support = v; });

  Sweep(&ctx, "ReviseUncertain minimum-similarity floor",
        {0.0, 0.02, 0.05, 0.10, 0.20, 0.40},
        [](match::MatcherConfig* c, double v) { c->t_revise_min_sim = v; });

  Sweep(&ctx, "Inductive grouping threshold",
        {0.0, 0.1, 0.2, 0.3, 0.5, 0.7},
        [](match::MatcherConfig* c, double v) { c->t_inductive = v; });

  return 0;
}
