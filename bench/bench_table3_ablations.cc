// Reproduces Table 3 and Figure 3: contribution of WikiMatch's components.
//
// Configurations (paper Section 4.2):
//   WikiMatch                 — the full system
//   -ReviseUncertain (WM*)    — recall should drop sharply, precision hold
//   -IntegrateMatches         — precision drops (unchecked absorptions)
//   random                    — LSI-ordering replaced by random order:
//                               both precision and recall collapse
//   single step               — accept all positive-similarity pairs:
//                               recall spikes, precision collapses
//   -vsim / -lsim / -LSI      — feature removals; vsim matters most, lsim
//                               matters more for Vn-En than Pt-En
//   -inductive grouping       — revise every uncertain pair
//   WM* variants of the feature removals (Figure 3): WM recall > WM*.

#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "eval/table.h"
#include "match/aligner.h"

using namespace wikimatch;
using benchharness::BenchContext;
using benchharness::F2;

namespace {

struct Config {
  const char* name;
  std::function<void(match::MatcherConfig*)> apply;
};

eval::Prf RunConfig(BenchContext* ctx, const std::string& lang,
                    const match::MatcherConfig& config) {
  const auto& pair = ctx->Pair(lang);
  match::AttributeAligner aligner(config);
  std::vector<eval::Prf> rows;
  for (const auto& type : pair.types) {
    rows.push_back(
        ctx->Eval(type, aligner.Align(type.translated).matches, lang));
  }
  return eval::AveragePrf(rows);
}

}  // namespace

int main() {
  BenchContext ctx(benchharness::ScaleFromEnv());

  const std::vector<Config> configs = {
      {"WikiMatch", [](match::MatcherConfig*) {}},
      {"WikiMatch-ReviseUncertain",
       [](match::MatcherConfig* c) { c->use_revise_uncertain = false; }},
      {"WikiMatch-IntegrateMatches",
       [](match::MatcherConfig* c) { c->use_integrate_constraint = false; }},
      {"WikiMatch random",
       [](match::MatcherConfig* c) { c->random_order = true; }},
      {"WikiMatch single step",
       [](match::MatcherConfig* c) { c->single_step = true; }},
      {"WikiMatch-vsim",
       [](match::MatcherConfig* c) { c->use_vsim = false; }},
      {"WikiMatch-lsim",
       [](match::MatcherConfig* c) { c->use_lsim = false; }},
      {"WikiMatch-LSI", [](match::MatcherConfig* c) { c->use_lsi = false; }},
      {"WikiMatch-inductive grouping",
       [](match::MatcherConfig* c) { c->use_inductive_grouping = false; }},
      {"WikiMatch*-vsim",
       [](match::MatcherConfig* c) {
         c->use_revise_uncertain = false;
         c->use_vsim = false;
       }},
      {"WikiMatch*-lsim",
       [](match::MatcherConfig* c) {
         c->use_revise_uncertain = false;
         c->use_lsim = false;
       }},
      {"WikiMatch*-LSI",
       [](match::MatcherConfig* c) {
         c->use_revise_uncertain = false;
         c->use_lsi = false;
       }},
      {"WikiMatch* random",
       [](match::MatcherConfig* c) {
         c->use_revise_uncertain = false;
         c->random_order = true;
       }},
  };

  std::map<std::string, std::map<std::string, eval::Prf>> results;
  eval::Table table({"configuration", "Pt:P", "Pt:R", "Pt:F", "Vn:P", "Vn:R",
                     "Vn:F"});
  for (const auto& config : configs) {
    match::MatcherConfig mc;
    config.apply(&mc);
    eval::Prf pt = RunConfig(&ctx, "pt", mc);
    eval::Prf vn = RunConfig(&ctx, "vi", mc);
    results[config.name] = {{"pt", pt}, {"vi", vn}};
    table.AddRow({config.name, F2(pt.precision), F2(pt.recall), F2(pt.f1),
                  F2(vn.precision), F2(vn.recall), F2(vn.f1)});
  }
  std::printf("\nTable 3 — contribution of different components\n%s\n",
              table.ToString().c_str());

  // Percentage change vs. the full system.
  const auto& base = results["WikiMatch"];
  eval::Table pct({"configuration", "Pt:dP%", "Pt:dR%", "Pt:dF%", "Vn:dP%",
                   "Vn:dR%", "Vn:dF%"});
  auto delta = [](double v, double b) {
    return b > 0.0 ? 100.0 * (v - b) / b : 0.0;
  };
  for (const auto& config : configs) {
    if (std::string(config.name) == "WikiMatch") continue;
    const auto& r = results[config.name];
    pct.AddRow({config.name,
                F2(delta(r.at("pt").precision, base.at("pt").precision)),
                F2(delta(r.at("pt").recall, base.at("pt").recall)),
                F2(delta(r.at("pt").f1, base.at("pt").f1)),
                F2(delta(r.at("vi").precision, base.at("vi").precision)),
                F2(delta(r.at("vi").recall, base.at("vi").recall)),
                F2(delta(r.at("vi").f1, base.at("vi").f1))});
  }
  std::printf("%% change vs WikiMatch (paper: -ReviseUncertain cost ~-28%% "
              "Pt recall; random ~-47%%; single step +19%% recall, -58%% "
              "precision; vsim the most important feature)\n%s\n",
              pct.ToString().c_str());

  // Figure 3 — impact of ReviseUncertain under feature removal.
  eval::Table fig3({"variant", "WM*:P", "WM*:R", "WM:P", "WM:R"});
  for (const std::string lang : {"pt", "vi"}) {
    for (const std::string feature : {"vsim", "lsim", "LSI"}) {
      const auto& with = results["WikiMatch-" + feature].at(lang);
      const auto& without = results["WikiMatch*-" + feature].at(lang);
      fig3.AddRow({(lang == "pt" ? "Pt-En no " : "Vn-En no ") + feature,
                   F2(without.precision), F2(without.recall),
                   F2(with.precision), F2(with.recall)});
    }
  }
  std::printf("Figure 3 — WM vs WM* (no ReviseUncertain) under feature "
              "removal; WM recall should exceed WM* everywhere\n%s\n",
              fig3.ToString().c_str());
  return 0;
}
