// Tests for the similarity-flooding extension (the paper's named future
// work): fixpoint behavior on hand-built graphs and end-to-end quality on
// a generated corpus.

#include <gtest/gtest.h>

#include "match/pipeline.h"
#include "match/similarity_flooding.h"
#include "synth/generator.h"

namespace wikimatch {
namespace match {
namespace {

// Hand data: two pt attributes and two en attributes. The pair (a0, b0)
// has strong initial similarity; (a1, b1) has none of its own but
// co-occurs with the strong pair on both sides — flooding must lift it.
TypePairData HandData() {
  TypePairData data;
  data.lang_a = "pt";
  data.lang_b = "en";
  data.num_duals = 6;
  auto add = [&](const std::string& lang, const std::string& name,
                 std::initializer_list<uint32_t> docs) {
    AttributeGroup g;
    g.key = {lang, name};
    g.occurrences = static_cast<double>(docs.size());
    g.dual_docs.insert(docs.begin(), docs.end());
    data.groups.push_back(std::move(g));
  };
  add("pt", "a0", {0, 1, 2, 3});  // 0
  add("pt", "a1", {0, 1, 2, 3});  // 1
  add("en", "b0", {0, 1, 2, 3});  // 2
  add("en", "b1", {0, 1, 2, 3});  // 3
  // Strong value agreement only for (a0, b0): give them one shared term.
  uint32_t term = 1;
  data.groups[0].values.Add(term, 10.0);
  data.groups[2].values.Add(term, 10.0);
  // Distinct junk terms for a1/b1 so their direct similarity is 0.
  data.groups[1].values.Add(50, 5.0);
  data.groups[3].values.Add(60, 5.0);
  // Mono-language co-occurrence: a0~a1 and b0~b1.
  data.co_occur[{0, 1}] = 4.0;
  data.co_occur[{2, 3}] = 4.0;
  return data;
}

TEST(FloodingTest, PropagatesThroughCoOccurrence) {
  FloodingConfig config;
  config.lsi_blend = 0.0;  // isolate the propagation effect
  config.select_threshold = 0.3;
  auto result = RunSimilarityFlooding(HandData(), config);
  EXPECT_GT(result.iterations, 0);
  // The strong pair is selected...
  EXPECT_TRUE(result.matches.AreMatched({"pt", "a0"}, {"en", "b0"}));
  // ...and the structurally supported pair was lifted above pairs with no
  // support: find sigma of (a1, b1) vs (a1, b0).
  double s_good = -1.0;
  double s_cross = -1.0;
  for (size_t n = 0; n < result.pairs.size(); ++n) {
    const auto& [a, b] = result.pairs[n];
    if (a.name == "a1" && b.name == "b1") s_good = result.similarity[n];
    if (a.name == "a1" && b.name == "b0") s_cross = result.similarity[n];
  }
  ASSERT_GE(s_good, 0.0);
  EXPECT_GT(s_good, 0.1);       // Received flooded mass.
  EXPECT_GE(s_good, s_cross);   // More than the structurally wrong pair.
}

TEST(FloodingTest, NoEdgesMeansInitialSimilaritiesDecide) {
  TypePairData data = HandData();
  data.co_occur.clear();
  FloodingConfig config;
  config.lsi_blend = 0.0;
  config.select_threshold = 0.5;
  auto result = RunSimilarityFlooding(data, config);
  EXPECT_TRUE(result.matches.AreMatched({"pt", "a0"}, {"en", "b0"}));
  EXPECT_FALSE(result.matches.AreMatched({"pt", "a1"}, {"en", "b1"}));
}

TEST(FloodingTest, EmptySidesAreSafe) {
  TypePairData data;
  data.lang_a = "pt";
  data.lang_b = "en";
  auto result = RunSimilarityFlooding(data);
  EXPECT_TRUE(result.matches.empty());
  EXPECT_TRUE(result.pairs.empty());
}

TEST(FloodingTest, ConvergesWithinBudget) {
  FloodingConfig config;
  config.max_iterations = 200;
  auto result = RunSimilarityFlooding(HandData(), config);
  EXPECT_LT(result.iterations, 200);
}

TEST(FloodingTest, SimilaritiesNormalized) {
  auto result = RunSimilarityFlooding(HandData());
  for (double s : result.similarity) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-12);
  }
}

TEST(FloodingTest, ReciprocalSelectionIsStricter) {
  FloodingConfig strict;
  strict.select_threshold = 0.05;
  FloodingConfig loose = strict;
  loose.reciprocal = false;
  auto strict_result = RunSimilarityFlooding(HandData(), strict);
  auto loose_result = RunSimilarityFlooding(HandData(), loose);
  EXPECT_LE(strict_result.matches.CrossLanguagePairs("pt", "en").size(),
            loose_result.matches.CrossLanguagePairs("pt", "en").size());
}

TEST(FloodingTest, EndToEndQualityOnTinyCorpus) {
  synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(77));
  auto gc = generator.Generate();
  ASSERT_TRUE(gc.ok());
  MatchPipeline pipeline(&gc->corpus);
  auto data = pipeline.BuildPair("pt", "filme", "en", "film");
  ASSERT_TRUE(data.ok());
  auto result = RunSimilarityFlooding(*data);
  const eval::MatchSet& truth = gc->ground_truth.at("film");
  size_t correct = 0;
  size_t total = 0;
  for (const auto& [a, b] :
       result.matches.CrossLanguagePairs("pt", "en")) {
    ++total;
    if (truth.AreMatched(a, b)) ++correct;
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.6);
}

}  // namespace
}  // namespace match
}  // namespace wikimatch
