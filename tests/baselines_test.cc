// Unit tests for the baseline matchers: LSI top-k, Bouma, COMA++-style, and
// the alternative correlation measures of Appendix B.

#include <gtest/gtest.h>

#include "baselines/bouma_matcher.h"
#include "baselines/coma_matcher.h"
#include "baselines/correlation_measures.h"
#include "baselines/lsi_matcher.h"
#include "match/dictionary.h"
#include "match/schema_builder.h"
#include "wiki/corpus.h"
#include "wiki/wikitext_parser.h"

namespace wikimatch {
namespace baselines {
namespace {

// Hand corpus shared by Bouma / schema-based tests: three dual film pairs
// with one attribute matching by identical value, one by cross-language
// link, and one with divergent values.
class BaselineCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wiki::WikitextParser parser;
    auto add = [&](const std::string& title, const std::string& lang,
                   const std::string& text) {
      auto article = parser.ParseArticle(title, lang, text);
      ASSERT_TRUE(article.ok());
      ASSERT_TRUE(corpus_.AddArticle(std::move(article).ValueOrDie()).ok());
    };
    add("Dir X", "en", "'''Dir X'''\n[[pt:Dir Xpt]]\n");
    add("Dir Xpt", "pt", "'''Dir Xpt'''\n[[en:Dir X]]\n");
    add("Dir Y", "en", "'''Dir Y'''\n[[pt:Dir Ypt]]\n");
    add("Dir Ypt", "pt", "'''Dir Ypt'''\n[[en:Dir Y]]\n");
    for (int i = 0; i < 3; ++i) {
      std::string n = std::to_string(i);
      std::string dir = i == 0 ? "Dir X" : "Dir Y";
      std::string dir_pt = i == 0 ? "Dir Xpt" : "Dir Ypt";
      add("Film " + n, "en",
          "{{Infobox film\n| directed by = [[" + dir +
              "]]\n| language = english\n| notes = note" + n +
              "\n}}\n[[pt:Filme " + n + "]]\n");
      add("Filme " + n, "pt",
          "{{Info filme\n| direção = [[" + dir_pt +
              "]]\n| idioma = english\n| notas = nota" + n + "\n}}\n"
              "[[en:Film " + n + "]]\n");
    }
    corpus_.Finalize();
    dictionary_.Build(corpus_);
  }

  match::TypePairData Data(bool translate = true,
                           size_t sample = 0) {
    match::SchemaBuilderOptions opts;
    opts.translate_values = translate;
    opts.max_sample_infoboxes = sample;
    auto data = match::BuildTypePairData(corpus_, dictionary_, "pt", "filme",
                                         "en", "film", opts);
    EXPECT_TRUE(data.ok());
    return std::move(data).ValueOrDie();
  }

  wiki::Corpus corpus_;
  match::TranslationDictionary dictionary_;
};

// ------------------------------------------------------------------- Bouma

TEST_F(BaselineCorpusTest, BoumaMatchesIdenticalValues) {
  BoumaMatcherConfig config;
  config.min_votes = 2;
  config.min_agreement = 0.5;
  auto result = RunBoumaMatcher(corpus_, "pt", "filme", "en", "film", config);
  ASSERT_TRUE(result.ok());
  // idioma = "english" in both languages: identical value text.
  EXPECT_TRUE(result->matches.AreMatched({"pt", "idioma"},
                                         {"en", "language"}));
}

TEST_F(BaselineCorpusTest, BoumaMatchesThroughCrossLanguageLinks) {
  auto result = RunBoumaMatcher(corpus_, "pt", "filme", "en", "film");
  ASSERT_TRUE(result.ok());
  // [[dir xpt]] / [[dir x]] land on cross-language-linked articles.
  EXPECT_TRUE(result->matches.AreMatched({"pt", "direção"},
                                         {"en", "directed by"}));
}

TEST_F(BaselineCorpusTest, BoumaMissesDivergentValues) {
  auto result = RunBoumaMatcher(corpus_, "pt", "filme", "en", "film");
  ASSERT_TRUE(result.ok());
  // notas/notes: "nota0" vs "note0" never match exactly — the paper's
  // recall ceiling.
  EXPECT_FALSE(result->matches.AreMatched({"pt", "notas"}, {"en", "notes"}));
}

TEST_F(BaselineCorpusTest, BoumaMinVotesFiltersRarePairs) {
  BoumaMatcherConfig strict;
  strict.min_votes = 99;
  auto result = RunBoumaMatcher(corpus_, "pt", "filme", "en", "film", strict);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->matches.empty());
}

TEST_F(BaselineCorpusTest, BoumaErrorsWithoutDuals) {
  EXPECT_FALSE(RunBoumaMatcher(corpus_, "pt", "nada", "en", "film").ok());
}

// -------------------------------------------------------------------- COMA

TEST(ComaNameSimilarityTest, DiacriticsFoldedComparison) {
  // Cognates score high after diacritics folding...
  EXPECT_GT(ComaNameSimilarity("direção", "direction"), 0.6);
  // ...and so do false cognates — the failure mode the paper documents.
  EXPECT_GT(ComaNameSimilarity("editora", "editor"), 0.8);
  // Morphologically distinct names score low.
  EXPECT_LT(ComaNameSimilarity("diễn viên", "starring"), 0.35);
}

TEST_F(BaselineCorpusTest, ComaNameOnlyMatchesCognates) {
  ComaConfig config;
  config.use_name = true;
  config.use_instance = false;
  config.threshold = 0.5;
  auto result = RunComaMatcher(Data(), config);
  ASSERT_TRUE(result.ok());
  // "idioma" vs "language": low string similarity -> no match at 0.5.
  EXPECT_FALSE(result->matches.AreMatched({"pt", "idioma"},
                                          {"en", "language"}));
  // "notas" vs "notes" are string-similar.
  EXPECT_TRUE(result->matches.AreMatched({"pt", "notas"}, {"en", "notes"}));
}

TEST_F(BaselineCorpusTest, ComaInstanceMatcherUsesValues) {
  ComaConfig config;
  config.use_name = false;
  config.use_instance = true;
  config.threshold = 0.3;
  auto result = RunComaMatcher(Data(), config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->matches.AreMatched({"pt", "idioma"},
                                         {"en", "language"}));
}

TEST_F(BaselineCorpusTest, ComaNameTranslationApplies) {
  ComaConfig config;
  config.use_name = true;
  config.use_instance = false;
  config.translate_names = true;
  config.threshold = 0.9;
  NameTranslations mt = {{{"pt", "idioma"}, "language"}};
  auto result = RunComaMatcher(Data(), config, mt);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->matches.AreMatched({"pt", "idioma"},
                                         {"en", "language"}));
}

TEST_F(BaselineCorpusTest, ComaReciprocalSelectionPrunes) {
  ComaConfig reciprocal;
  reciprocal.use_instance = true;
  reciprocal.use_name = false;
  reciprocal.threshold = 0.01;
  auto strict = RunComaMatcher(Data(), reciprocal);
  reciprocal.require_reciprocal = false;
  auto loose = RunComaMatcher(Data(), reciprocal);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_LE(strict->matches.CrossLanguagePairs("pt", "en").size(),
            loose->matches.CrossLanguagePairs("pt", "en").size());
}

TEST_F(BaselineCorpusTest, ComaRequiresAMatcher) {
  ComaConfig config;
  config.use_name = false;
  config.use_instance = false;
  EXPECT_FALSE(RunComaMatcher(Data(), config).ok());
}

TEST_F(BaselineCorpusTest, ComaInstanceSimilaritySymmetricBounded) {
  auto data = Data();
  for (size_t i = 0; i < data.groups.size(); ++i) {
    for (size_t j = 0; j < data.groups.size(); ++j) {
      double ij = ComaInstanceSimilarity(data, data.groups[i],
                                         data.groups[j]);
      double ji = ComaInstanceSimilarity(data, data.groups[j],
                                         data.groups[i]);
      EXPECT_NEAR(ij, ji, 1e-12);
      EXPECT_GE(ij, 0.0);
      EXPECT_LE(ij, 1.0);
    }
  }
}

// ------------------------------------------------------------- LSI matcher

TEST_F(BaselineCorpusTest, LsiTopKGrowsWithK) {
  auto data = Data();
  LsiMatcherConfig top1;
  top1.top_k = 1;
  LsiMatcherConfig top3;
  top3.top_k = 3;
  auto r1 = RunLsiMatcher(data, top1);
  auto r3 = RunLsiMatcher(data, top3);
  EXPECT_LE(r1.matches.CrossLanguagePairs("pt", "en").size(),
            r3.matches.CrossLanguagePairs("pt", "en").size());
  // The ranking covers every cross-language pair.
  EXPECT_EQ(r1.ranking.size(), 9u);  // 3 pt x 3 en attributes.
}

TEST_F(BaselineCorpusTest, LsiMatcherPairsAreCrossLanguage) {
  auto result = RunLsiMatcher(Data());
  for (const auto& [a, b] : result.matches.CrossLanguagePairs("pt", "en")) {
    EXPECT_EQ(a.language, "pt");
    EXPECT_EQ(b.language, "en");
  }
}

// ------------------------------------------------------ Correlation ranks

TEST_F(BaselineCorpusTest, RankCandidatesCoversAllMeasures) {
  auto data = Data();
  for (auto measure :
       {CorrelationMeasure::kLsi, CorrelationMeasure::kX1,
        CorrelationMeasure::kX2, CorrelationMeasure::kX3,
        CorrelationMeasure::kRandom}) {
    auto ranking = RankCandidates(data, measure);
    EXPECT_EQ(ranking.size(), 9u) << CorrelationMeasureName(measure);
    for (const auto& [a, b] : ranking) {
      EXPECT_EQ(a.language, "pt");
      EXPECT_EQ(b.language, "en");
    }
  }
}

TEST_F(BaselineCorpusTest, RandomRankingDeterministicPerSeed) {
  auto data = Data();
  auto r1 = RankCandidates(data, CorrelationMeasure::kRandom, 99);
  auto r2 = RankCandidates(data, CorrelationMeasure::kRandom, 99);
  auto r3 = RankCandidates(data, CorrelationMeasure::kRandom, 100);
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1, r3);
}

TEST(CorrelationMeasureNameTest, AllNamed) {
  EXPECT_STREQ(CorrelationMeasureName(CorrelationMeasure::kLsi), "LSI");
  EXPECT_STREQ(CorrelationMeasureName(CorrelationMeasure::kX2), "X2");
  EXPECT_STREQ(CorrelationMeasureName(CorrelationMeasure::kRandom),
               "Random");
}

TEST(CorrelationFormulaTest, X2FavorsCoOccurrence) {
  // Hand data: attribute pair with full co-occurrence vs none.
  match::TypePairData data;
  data.lang_a = "pt";
  data.lang_b = "en";
  data.num_duals = 4;
  auto add = [&](const std::string& lang, const std::string& name,
                 std::initializer_list<uint32_t> docs) {
    match::AttributeGroup g;
    g.key = {lang, name};
    g.occurrences = static_cast<double>(docs.size());
    g.dual_docs.insert(docs.begin(), docs.end());
    data.groups.push_back(std::move(g));
  };
  add("pt", "a", {0, 1});
  add("en", "together", {0, 1});
  add("en", "apart", {2, 3});
  for (auto measure : {CorrelationMeasure::kX1, CorrelationMeasure::kX2,
                       CorrelationMeasure::kX3}) {
    auto ranking = RankCandidates(data, measure);
    EXPECT_EQ(ranking[0].second.name, "together")
        << CorrelationMeasureName(measure);
  }
}

}  // namespace
}  // namespace baselines
}  // namespace wikimatch
