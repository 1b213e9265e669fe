// Reproduces Figure 6 (Appendix C): precision and recall of the LSI-only
// baseline for top-k configurations k in {1, 3, 5, 10}. Expected shape:
// recall rises with k while precision falls; top-1 has the best F.

#include <cstdio>

#include "baselines/lsi_matcher.h"
#include "bench_common.h"
#include "eval/table.h"

using namespace wikimatch;
using benchharness::BenchContext;
using benchharness::F2;

namespace {

eval::Prf RunTopK(BenchContext* ctx, const std::string& lang, size_t k) {
  std::vector<eval::Prf> rows;
  for (const auto& type : ctx->Pair(lang).types) {
    baselines::LsiMatcherConfig config;
    config.top_k = k;
    rows.push_back(ctx->Eval(
        type, baselines::RunLsiMatcher(type.translated, config).matches,
        lang));
  }
  return eval::AveragePrf(rows);
}

}  // namespace

int main() {
  BenchContext ctx(benchharness::ScaleFromEnv());
  eval::Table table({"k", "Pt-En P", "Pt-En R", "Pt-En F", "Vn-En P",
                     "Vn-En R", "Vn-En F"});
  for (size_t k : {1u, 3u, 5u, 10u}) {
    eval::Prf pt = RunTopK(&ctx, "pt", k);
    eval::Prf vn = RunTopK(&ctx, "vi", k);
    table.AddRow({std::to_string(k), F2(pt.precision), F2(pt.recall),
                  F2(pt.f1), F2(vn.precision), F2(vn.recall), F2(vn.f1)});
  }
  std::printf("\nFigure 6 — LSI top-k (paper: recall increases with k, "
              "precision decreases; top-1 gives the best F)\n%s\n",
              table.ToString().c_str());
  return 0;
}
