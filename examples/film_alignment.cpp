// Domain-specific example: align the "film" infobox schema between
// Portuguese and English, showing the evidence behind each decision —
// value similarity, link-structure similarity, LSI correlation — and which
// matches came from the certain pass vs. the uncertain-revision pass.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "eval/table.h"
#include "match/aligner.h"
#include "match/pipeline.h"
#include "synth/generator.h"

using namespace wikimatch;

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.2;
  std::printf("Generating corpus (scale %.2f)...\n", scale);
  synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(scale));
  auto generated = generator.Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }
  const synth::GeneratedCorpus& gc = generated.ValueOrDie();

  // Build the schema data for the film type pair directly.
  match::MatchPipeline pipeline(&gc.corpus);
  auto data = pipeline.BuildPair("pt", "filme", "en", "film");
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  std::printf("film pair: %zu dual infoboxes, %zu attribute groups\n\n",
              data->num_duals, data->groups.size());

  // Align and show the top candidate pairs with their evidence.
  match::AttributeAligner aligner{match::MatcherConfig{}};
  const match::AlignmentResult result = aligner.Align(*data);

  eval::Table evidence(
      {"rank", "pair", "LSI", "vsim", "lsim", "matched?"});
  size_t shown = 0;
  for (const auto& p : result.all_pairs) {
    const auto& ka = data->groups[p.i].key;
    const auto& kb = data->groups[p.j].key;
    if (ka.language == kb.language) continue;  // Show cross-language only.
    if (shown >= 15) break;
    evidence.AddRow({std::to_string(shown + 1),
                     ka.language + ":" + ka.name + " / " + kb.language +
                         ":" + kb.name,
                     eval::Table::Num(p.lsi, 3), eval::Table::Num(p.vsim, 3),
                     eval::Table::Num(p.lsim, 3),
                     result.matches.AreMatched(ka, kb) ? "yes" : "no"});
    ++shown;
  }
  std::printf("Top cross-language candidates by LSI correlation:\n%s\n",
              evidence.ToString().c_str());

  // Which matches needed the ReviseUncertain pass?
  match::MatcherConfig no_revise;
  no_revise.use_revise_uncertain = false;
  match::AttributeAligner strict(no_revise);
  const match::AlignmentResult strict_result = strict.Align(*data);
  std::printf("Matches recovered only by ReviseUncertain:\n");
  for (const auto& [a, b] : result.matches.CrossLanguagePairs("pt", "en")) {
    if (!strict_result.matches.AreMatched(a, b)) {
      std::printf("  %s ~ %s\n", (a.language + ":" + a.name).c_str(),
                  (b.language + ":" + b.name).c_str());
    }
  }

  // Final clusters.
  std::printf("\nDerived film matches (clusters):\n");
  for (const auto& cluster : result.matches.Clusters()) {
    std::string line;
    for (const auto& attr : cluster) {
      if (!line.empty()) line += " ~ ";
      line += attr.language + ":" + attr.name;
    }
    std::printf("  %s\n", line.c_str());
  }
  return 0;
}
