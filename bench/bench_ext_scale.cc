// Extension experiment: quality vs corpus size. The paper's motivation is
// under-represented languages — WikiMatch needs no training data, so it
// should hold up as the corpus shrinks toward Vietnamese-sized samples.
// This sweep measures weighted P/R/F for both pairs across corpus scales.

#include <cstdio>

#include "bench_common.h"
#include "eval/table.h"
#include "match/aligner.h"

using namespace wikimatch;
using benchharness::F2;

namespace {

eval::Prf RunPair(benchharness::BenchContext* ctx, const std::string& lang) {
  match::AttributeAligner aligner{match::MatcherConfig{}};
  std::vector<eval::Prf> rows;
  for (const auto& type : ctx->Pair(lang).types) {
    rows.push_back(
        ctx->Eval(type, aligner.Align(type.translated).matches, lang));
  }
  return eval::AveragePrf(rows);
}

}  // namespace

int main() {
  eval::Table table({"scale", "pt duals", "vi duals", "Pt:P", "Pt:R", "Pt:F",
                     "Vn:P", "Vn:R", "Vn:F"});
  for (double scale : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    benchharness::BenchContext ctx(scale);
    size_t pt_duals = 0;
    size_t vi_duals = 0;
    for (const auto& type : ctx.Pair("pt").types) pt_duals += type.num_duals;
    for (const auto& type : ctx.Pair("vi").types) vi_duals += type.num_duals;
    eval::Prf pt = RunPair(&ctx, "pt");
    eval::Prf vn = RunPair(&ctx, "vi");
    table.AddRow({F2(scale), std::to_string(pt_duals),
                  std::to_string(vi_duals), F2(pt.precision), F2(pt.recall),
                  F2(pt.f1), F2(vn.precision), F2(vn.recall), F2(vn.f1)});
  }
  std::printf("\nExtension — WikiMatch quality vs corpus scale (the paper's "
              "under-represented-language claim: quality degrades gracefully "
              "as the corpus shrinks)\n%s\n",
              table.ToString().c_str());
  return 0;
}
