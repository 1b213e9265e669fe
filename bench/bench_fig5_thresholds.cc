// Reproduces Figure 5 (Appendix B): weighted F-measure as Tsim and TLSI
// vary from 0 to 0.9, for both language pairs. Expected shape: broad
// stability; F peaks around Tsim = 0.6; TLSI flat for 0..0.6 and recall
// (hence F) decays for high TLSI.

#include <cstdio>

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

}  // namespace

int main() {
  BenchContext ctx(benchharness::ScaleFromEnv());

  eval::Table table({"threshold", "Tsim Pt-En F", "Tsim Vn-En F",
                     "TLSI Pt-En F", "TLSI Vn-En F"});
  for (int step = 0; step <= 9; ++step) {
    double t = 0.1 * step;
    match::MatcherConfig sim_config;
    sim_config.t_sim = t;
    match::MatcherConfig lsi_config;
    lsi_config.t_lsi = t;
    table.AddRow({F2(t), F2(RunConfig(&ctx, "pt", sim_config).f1),
                  F2(RunConfig(&ctx, "vi", sim_config).f1),
                  F2(RunConfig(&ctx, "pt", lsi_config).f1),
                  F2(RunConfig(&ctx, "vi", lsi_config).f1)});
  }
  std::printf("\nFigure 5 — F-measure vs thresholds (paper: stable for a "
              "broad range; best around Tsim=0.6; high TLSI hurts recall)\n"
              "%s\n",
              table.ToString().c_str());
  return 0;
}
