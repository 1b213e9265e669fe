// Equivalence tests for the inverted-index similarity join: the aligner's
// scored pairs must be bit-identical to the all-pairs oracle
// (align_oracle.h) for every ablation configuration, and its matches and
// processed order must not move with the pipeline's thread count or with
// zero-pair pruning.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "align_oracle.h"
#include "match/aligner.h"
#include "match/pipeline.h"
#include "match/similarity_join.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace wikimatch {
namespace {

void ExpectSamePairs(const std::vector<match::CandidatePair>& a,
                     const std::vector<match::CandidatePair>& b,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].i, b[k].i) << what << " entry " << k;
    EXPECT_EQ(a[k].j, b[k].j) << what << " entry " << k;
    // Bit-identical, not approximately equal: the join accumulates each
    // dot product in the same order SparseVector::Dot does.
    EXPECT_EQ(a[k].vsim, b[k].vsim) << what << " entry " << k;
    EXPECT_EQ(a[k].lsim, b[k].lsim) << what << " entry " << k;
    EXPECT_EQ(a[k].lsi, b[k].lsi) << what << " entry " << k;
  }
}

// Aligns `data` with all pairs retained and checks them, keyed by (i, j),
// against the oracle's all-pairs cosines.
void ExpectAllPairsMatchOracle(const match::TypePairData& data,
                               match::MatcherConfig config) {
  config.keep_all_pairs = true;
  auto result = match::AttributeAligner(config).Align(data);
  const std::vector<match::CandidatePair> oracle =
      align_oracle::AllPairs(data, config);
  std::vector<match::CandidatePair> got = result.all_pairs;
  std::sort(got.begin(), got.end(),
            [](const match::CandidatePair& x, const match::CandidatePair& y) {
              return x.i != y.i ? x.i < y.i : x.j < y.j;
            });
  ExpectSamePairs(got, oracle, "all_pairs by (i, j)");
}

// A schema built directly instead of generated. Generated corpora carry
// whole-number weights, so their dot products come out exact in any
// addition order; fractional weights here make a reordered accumulation
// change bits. Link counts fall on both sides of the min_link_support
// floor, and each language ends with orphan groups (private vocabulary,
// no links, no dual documents) whose cross-language pairs carry no
// evidence, so the pruned configuration has pairs to drop.
match::TypePairData SyntheticSchema() {
  constexpr size_t kGroupsPerLang = 24;
  constexpr size_t kOrphansPerLang = 3;
  constexpr size_t kTermsPerGroup = 24;
  constexpr size_t kDuals = 24;
  util::Rng rng(0xA11C4);
  match::TypePairData data;
  data.lang_a = "pt";
  data.lang_b = "en";
  data.type_a = "localidade";
  data.type_b = "settlement";
  data.num_duals = kDuals;
  const size_t vocab = kGroupsPerLang * 12;
  for (size_t t = 0; t < vocab; ++t) {
    data.value_terms.GetOrAdd("term_" + std::to_string(t));
  }
  const size_t link_space = kGroupsPerLang * 4;
  for (const std::string language : {"pt", "en"}) {
    for (size_t g = 0; g < kGroupsPerLang; ++g) {
      match::AttributeGroup group;
      group.key = {language, "attr_" + std::to_string(g)};
      group.occurrences = 20.0 + static_cast<double>(rng.NextBounded(200));
      for (size_t t = 0; t < kTermsPerGroup; ++t) {
        group.values.Add(static_cast<uint32_t>(rng.NextZipf(vocab, 1.1)),
                         0.25 + 4.0 * rng.NextDouble());
      }
      if (rng.NextBool(0.6)) {
        const size_t links = 1 + rng.NextBounded(14);
        for (size_t l = 0; l < links; ++l) {
          group.links.Add(static_cast<uint32_t>(rng.NextZipf(link_space, 1.05)),
                          0.5 + 2.0 * rng.NextDouble());
        }
      }
      const size_t docs = 3 + rng.NextBounded(kDuals / 2 + 1);
      for (size_t d = 0; d < docs; ++d) {
        group.dual_docs.insert(static_cast<uint32_t>(rng.NextBounded(kDuals)));
      }
      data.groups.push_back(std::move(group));
    }
    for (size_t g = 0; g < kOrphansPerLang; ++g) {
      match::AttributeGroup group;
      group.key = {language, "orphan_" + std::to_string(g)};
      group.occurrences = 2.0 + static_cast<double>(rng.NextBounded(6));
      for (size_t t = 0; t < 8; ++t) {
        group.values.Add(
            data.value_terms.GetOrAdd("orphan_" + language + "_" +
                                      std::to_string(g) + "_" +
                                      std::to_string(t)),
            1.0);
      }
      data.groups.push_back(std::move(group));
    }
  }
  // Sparse mono-language co-occurrence counts for the grouping scores.
  const size_t n = data.groups.size();
  for (size_t e = 0; e < n * 4; ++e) {
    const size_t i = rng.NextBounded(n);
    const size_t j = rng.NextBounded(n);
    if (i == j || data.groups[i].key.language != data.groups[j].key.language) {
      continue;
    }
    data.co_occur[{std::min(i, j), std::max(i, j)}] +=
        1.0 + static_cast<double>(rng.NextBounded(8));
  }
  return data;
}

class AlignJoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(1234));
    auto g = generator.Generate();
    ASSERT_TRUE(g.ok());
    gc_ = new synth::GeneratedCorpus(std::move(g).ValueOrDie());
    pipeline_ = new match::MatchPipeline(&gc_->corpus);
    auto data = pipeline_->BuildPair("pt", "filme", "en", "film");
    ASSERT_TRUE(data.ok());
    data_ = new match::TypePairData(std::move(data).ValueOrDie());
    synthetic_ = new match::TypePairData(SyntheticSchema());
  }
  static void TearDownTestSuite() {
    delete synthetic_;
    delete data_;
    delete pipeline_;
    delete gc_;
    synthetic_ = nullptr;
    data_ = nullptr;
    pipeline_ = nullptr;
    gc_ = nullptr;
  }

  static match::AlignmentResult Run(const match::TypePairData& data,
                                    const match::MatcherConfig& config) {
    match::AttributeAligner aligner(config);
    return aligner.Align(data);
  }

  static synth::GeneratedCorpus* gc_;
  static match::MatchPipeline* pipeline_;
  static match::TypePairData* data_;
  static match::TypePairData* synthetic_;
};

synth::GeneratedCorpus* AlignJoinTest::gc_ = nullptr;
match::MatchPipeline* AlignJoinTest::pipeline_ = nullptr;
match::TypePairData* AlignJoinTest::data_ = nullptr;
match::TypePairData* AlignJoinTest::synthetic_ = nullptr;

// Each check runs on the generated filme/film pair and on the synthetic
// schema.
TEST_F(AlignJoinTest, IndexedMatchesNaiveBitIdentical) {
  for (const match::TypePairData* data : {data_, synthetic_}) {
    SCOPED_TRACE(data->type_a);
    ExpectAllPairsMatchOracle(*data, match::MatcherConfig{});
  }
}

TEST_F(AlignJoinTest, EquivalentUnderEveryAblation) {
  std::vector<match::MatcherConfig> configs;
  {
    match::MatcherConfig c;
    c.use_vsim = false;
    configs.push_back(c);
  }
  {
    match::MatcherConfig c;
    c.use_lsim = false;
    configs.push_back(c);
  }
  {
    match::MatcherConfig c;
    c.use_lsi = false;
    configs.push_back(c);
  }
  {
    match::MatcherConfig c;
    c.single_step = true;
    configs.push_back(c);
  }
  {
    match::MatcherConfig c;
    c.random_order = true;
    configs.push_back(c);
  }
  {
    match::MatcherConfig c;
    c.use_revise_uncertain = false;
    configs.push_back(c);
  }
  {
    match::MatcherConfig c;
    c.min_link_support = 0.0;
    c.t_revise_min_sim = 0.0;
    configs.push_back(c);
  }
  for (const match::TypePairData* data : {data_, synthetic_}) {
    for (size_t k = 0; k < configs.size(); ++k) {
      SCOPED_TRACE(data->type_a + " config " + std::to_string(k));
      ExpectAllPairsMatchOracle(*data, configs[k]);
    }
  }
}

TEST_F(AlignJoinTest, PruningPreservesMatchesAndProcessedOrder) {
  for (const match::TypePairData* data : {data_, synthetic_}) {
    SCOPED_TRACE(data->type_a);
    match::MatcherConfig full_config;
    full_config.keep_all_pairs = true;
    match::AlignmentResult full = Run(*data, full_config);

    match::MatcherConfig pruned_config;
    pruned_config.keep_all_pairs = false;
    match::AlignmentResult pruned = Run(*data, pruned_config);

    EXPECT_EQ(full.matches.Clusters(), pruned.matches.Clusters());
    ExpectSamePairs(full.processed_order, pruned.processed_order,
                    "processed_order");
    EXPECT_TRUE(pruned.all_pairs.empty());
    EXPECT_GT(pruned.stats.pairs_pruned, 0u);
    EXPECT_EQ(pruned.stats.pairs_generated + pruned.stats.pairs_pruned,
              pruned.stats.pairs_total);
  }
}

TEST_F(AlignJoinTest, StatsAreCoherent) {
  match::MatcherConfig config;
  config.keep_all_pairs = true;
  match::AlignmentResult result = Run(*data_, config);
  const size_t n = data_->groups.size();
  EXPECT_EQ(result.stats.groups, n);
  EXPECT_EQ(result.stats.pairs_total, n * (n - 1) / 2);
  // keep_all_pairs forces full materialization.
  EXPECT_EQ(result.stats.pairs_generated, result.stats.pairs_total);
  EXPECT_EQ(result.stats.pairs_pruned, 0u);
  EXPECT_GT(result.stats.postings_visited, 0u);
}

TEST_F(AlignJoinTest, JoinEmitsAscendingPartnersPastTheRow) {
  match::SimilarityJoinOptions options;
  match::SimilarityJoinIndex index(*data_, options);
  match::SimilarityJoinIndex::Scratch scratch;
  for (size_t i = 0; i < data_->groups.size(); ++i) {
    uint32_t last = 0;
    bool first = true;
    index.ForEachNonZero(i, &scratch, [&](const match::SimilarityEntry& e) {
      EXPECT_GT(e.j, i);
      if (!first) {
        EXPECT_GT(e.j, last);
      }
      last = e.j;
      first = false;
      EXPECT_TRUE(e.vsim != 0.0 || e.lsim != 0.0);
    });
  }
  EXPECT_GT(scratch.postings_visited(), 0u);
}

TEST(AlignJoinPipelineTest, RunIsInvariantAcrossThreads) {
  synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(77));
  auto gc = generator.Generate();
  ASSERT_TRUE(gc.ok());
  match::MatchPipeline pipeline(&gc->corpus);

  match::PipelineOptions sequential;
  sequential.num_threads = 1;
  match::PipelineOptions threaded;
  threaded.num_threads = 8;

  auto a = pipeline.Run("pt", "en", sequential);
  auto b = pipeline.Run("pt", "en", threaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->per_type.size(), b->per_type.size());
  for (size_t i = 0; i < a->per_type.size(); ++i) {
    EXPECT_EQ(a->per_type[i].type_a, b->per_type[i].type_a);
    EXPECT_EQ(a->per_type[i].alignment.matches.Clusters(),
              b->per_type[i].alignment.matches.Clusters());
    ExpectSamePairs(a->per_type[i].alignment.processed_order,
                    b->per_type[i].alignment.processed_order,
                    "processed_order");
  }
}

}  // namespace
}  // namespace wikimatch
