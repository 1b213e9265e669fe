// Unit tests for the WikiMatch core: translation dictionary, type matcher,
// schema builder, LSI correlation, grouping scores, and the alignment
// algorithms (Algorithms 1 and 2 plus ReviseUncertain) on hand-built data.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "match/aligner.h"
#include "match/dictionary.h"
#include "match/lsi.h"
#include "match/pipeline.h"
#include "match/schema_builder.h"
#include "match/serialize.h"
#include "match/type_matcher.h"
#include "schema_oracle.h"
#include "synth/generator.h"
#include "util/binary_io.h"
#include "wiki/wikitext_parser.h"

namespace wikimatch {
namespace match {
namespace {

// Builds a small bilingual corpus by hand: two "film" dual pairs plus
// support articles, exercising links, anchors, and synonyms.
class HandCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wiki::WikitextParser parser;
    auto add = [&](const std::string& title, const std::string& lang,
                   const std::string& text) {
      auto article = parser.ParseArticle(title, lang, text);
      ASSERT_TRUE(article.ok()) << article.status().ToString();
      ASSERT_TRUE(corpus_.AddArticle(std::move(article).ValueOrDie()).ok());
    };

    add("Director One", "en", "'''Director One'''\n[[pt:Diretor Um]]\n");
    add("Diretor Um", "pt", "'''Diretor Um'''\n[[en:Director One]]\n");
    add("Director Two", "en", "'''Director Two'''\n[[pt:Diretor Dois]]\n");
    add("Diretor Dois", "pt", "'''Diretor Dois'''\n[[en:Director Two]]\n");

    add("Film A", "en",
        "{{Infobox film\n| directed by = [[Director One]]\n"
        "| running time = 100 minutes\n| other names = Alpha Omega\n}}\n"
        "[[pt:Filme A]]\n");
    add("Filme A", "pt",
        "{{Info filme\n| direção = [[Diretor Um]]\n"
        "| duração = 100 minutos\n| outros nomes = Gama Delta\n}}\n"
        "[[en:Film A]]\n");
    add("Film B", "en",
        "{{Infobox film\n| directed by = [[Director Two]]\n"
        "| running time = 90 minutes\n}}\n[[pt:Filme B]]\n");
    add("Filme B", "pt",
        "{{Info filme\n| direção = [[Diretor Dois]]\n"
        "| duração = 90 minutos\n}}\n[[en:Film B]]\n");
    corpus_.Finalize();
    dictionary_.Build(corpus_);
  }

  wiki::Corpus corpus_;
  TranslationDictionary dictionary_;
};

// -------------------------------------------------------------- Dictionary

TEST_F(HandCorpusTest, DictionaryFromCrossLanguageLinks) {
  auto t = dictionary_.Translate("pt", "diretor um", "en");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, "director one");
  // Both directions.
  EXPECT_EQ(dictionary_.TranslateOrKeep("en", "film b", "pt"), "filme b");
  // Unknown terms pass through.
  EXPECT_EQ(dictionary_.TranslateOrKeep("pt", "unknown term", "en"),
            "unknown term");
  EXPECT_FALSE(dictionary_.Translate("pt", "unknown term", "en").has_value());
}

TEST(DictionaryTest, ManualEntries) {
  TranslationDictionary dict;
  dict.Add("vi", "diễn viên", "en", "starring");
  EXPECT_EQ(dict.TranslateOrKeep("vi", "diễn viên", "en"), "starring");
  EXPECT_EQ(dict.size(), 1u);
}

// An encoded dictionary stream: (from_lang, to_lang, term, translation)
// entries in the given order, in EncodeDictionary's format.
using DictEntry =
    std::tuple<std::string, std::string, std::string, std::string>;

std::string DictionaryStream(const std::vector<DictEntry>& entries) {
  util::BinaryWriter w;
  w.PutU64(entries.size());
  for (const auto& [from_lang, to_lang, term, translation] : entries) {
    w.PutString(from_lang);
    w.PutString(to_lang);
    w.PutString(term);
    w.PutString(translation);
  }
  return w.TakeBuffer();
}

std::string EncodedDictionary(const TranslationDictionary& dict) {
  util::BinaryWriter w;
  EncodeDictionary(dict, &w);
  return w.TakeBuffer();
}

TEST(DictionaryTest, DecodeEqualsSequentialAddOnAnyStreamOrder) {
  const std::vector<std::string> langs = {"en", "pt", "pt-br", "vi"};
  const std::vector<std::string> terms = {
      "", "a", "ab", "b", "são paulo", "hà nội", "東京",
      std::string("a\0b", 3)};
  std::mt19937 rng(7);
  std::vector<DictEntry> entries;
  for (int i = 0; i < 300; ++i) {
    entries.emplace_back(langs[rng() % langs.size()],
                         langs[rng() % langs.size()],
                         terms[rng() % terms.size()],
                         std::to_string(i));
  }
  // First-insert-wins reference, and its entries in key order.
  TranslationDictionary reference;
  for (const auto& [from_lang, to_lang, term, translation] : entries) {
    reference.Add(from_lang, term, to_lang, translation);
  }
  ASSERT_LT(reference.size(), entries.size());  // the stream has duplicates
  std::vector<DictEntry> sorted;
  for (const auto& [key, translation] : reference.entries()) {
    const auto& [from_lang, to_lang, term] = key;
    sorted.emplace_back(from_lang, to_lang, term, translation);
  }
  ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  const std::string sorted_bytes = DictionaryStream(sorted);
  EXPECT_EQ(EncodedDictionary(reference), sorted_bytes);

  std::vector<DictEntry> shuffled = sorted;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  struct Case {
    const char* name;
    const std::vector<DictEntry>* stream;
  };
  for (const Case& c : {Case{"sorted", &sorted}, Case{"shuffled", &shuffled},
                        Case{"duplicates", &entries}}) {
    TranslationDictionary sequential;
    for (const auto& [from_lang, to_lang, term, translation] : *c.stream) {
      sequential.Add(from_lang, term, to_lang, translation);
    }
    const std::string bytes = DictionaryStream(*c.stream);
    util::BinaryReader r(bytes);
    auto decoded = DecodeDictionary(&r);
    ASSERT_TRUE(decoded.ok()) << c.name << decoded.status().ToString();
    EXPECT_EQ(decoded->entries(), sequential.entries()) << c.name;
    EXPECT_EQ(decoded->entries(), reference.entries()) << c.name;
    EXPECT_EQ(EncodedDictionary(*decoded), sorted_bytes) << c.name;
  }
}

TEST(DictionaryTest, LookupsOnMissingLanguagesEmptyAndNonAsciiTerms) {
  const std::string nul_term("a\0b", 3);
  const std::string a_nul("a\0", 2);
  TranslationDictionary dict;
  dict.Add("pt", "", "en", "empty");
  dict.Add("pt", "são paulo", "en", "sao paulo");
  dict.Add("vi", "hà nội", "en", "hanoi");
  dict.Add("pt", nul_term, "en", "nul");
  dict.Add("pt", "a", "en", "prefix");
  EXPECT_EQ(dict.Translate("pt", "", "en"), "empty");
  EXPECT_EQ(dict.Translate("pt", "são paulo", "en"), "sao paulo");
  EXPECT_EQ(dict.Translate("vi", "hà nội", "en"), "hanoi");
  EXPECT_EQ(dict.Translate("pt", nul_term, "en"), "nul");
  EXPECT_EQ(dict.Translate("pt", "a", "en"), "prefix");
  EXPECT_FALSE(dict.Translate("vi", "", "en").has_value());
  EXPECT_FALSE(dict.Translate("pt", "são paulo", "vi").has_value());
  EXPECT_FALSE(dict.Translate("xx", "são paulo", "en").has_value());
  EXPECT_FALSE(dict.Translate("pt", "são", "en").has_value());
  EXPECT_FALSE(dict.Translate("pt", a_nul, "en").has_value());
  EXPECT_FALSE(dict.Translate("", "", "").has_value());
  EXPECT_EQ(dict.TranslateOrKeep("xx", "東京", "en"), "東京");

  // Add keeps the first translation, Put overwrites or inserts.
  dict.Add("pt", "", "en", "second");
  EXPECT_EQ(dict.Translate("pt", "", "en"), "empty");
  dict.Put("pt", "", "en", "put");
  EXPECT_EQ(dict.Translate("pt", "", "en"), "put");
  dict.Put("en", "東京", "pt", "tóquio");
  EXPECT_EQ(dict.Translate("en", "東京", "pt"), "tóquio");
  EXPECT_EQ(dict.size(), 6u);

  // Erasing a missing key changes nothing; a present one goes alone.
  dict.Erase("xx", "", "en");
  dict.Erase("pt", "", "xx");
  dict.Erase("pt", "são", "en");
  dict.Erase("pt", a_nul, "en");
  EXPECT_EQ(dict.size(), 6u);
  dict.Erase("pt", nul_term, "en");
  EXPECT_FALSE(dict.Translate("pt", nul_term, "en").has_value());
  EXPECT_EQ(dict.Translate("pt", "a", "en"), "prefix");
  dict.Erase("pt", "", "en");
  EXPECT_FALSE(dict.Translate("pt", "", "en").has_value());
  EXPECT_EQ(dict.Translate("pt", "são paulo", "en"), "sao paulo");
  EXPECT_EQ(dict.size(), 4u);
}

// ------------------------------------------------------------- TypeMatcher

TEST_F(HandCorpusTest, TypeMatcherMapsFilmeToFilm) {
  TypeMatcher matcher(/*min_votes=*/1, /*min_confidence=*/0.5);
  auto matches = matcher.Match(corpus_, "pt", "en");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].type_a, "filme");
  EXPECT_EQ(matches[0].type_b, "film");
  EXPECT_EQ(matches[0].votes, 2u);
  EXPECT_EQ(matches[0].confidence, 1.0);
}

TEST_F(HandCorpusTest, TypeMatcherRespectsMinVotes) {
  TypeMatcher matcher(/*min_votes=*/3, /*min_confidence=*/0.5);
  EXPECT_TRUE(matcher.Match(corpus_, "pt", "en").empty());
}

// ------------------------------------------------------------ SchemaBuilder

TEST_F(HandCorpusTest, BuildsGroupsForBothLanguages) {
  auto data = BuildTypePairData(corpus_, dictionary_, "pt", "filme", "en",
                                "film");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->num_duals, 2u);
  // pt: direção, duração, outros nomes; en: directed by, running time,
  // other names.
  EXPECT_EQ(data->groups.size(), 6u);
  // lang_a groups come first, sorted by name.
  EXPECT_EQ(data->groups[0].key.language, "pt");
  size_t direcao = data->GroupIndex({"pt", "direção"});
  ASSERT_NE(direcao, SIZE_MAX);
  EXPECT_EQ(data->groups[direcao].occurrences, 2.0);
  EXPECT_EQ(data->groups[direcao].dual_docs.size(), 2u);
}

TEST_F(HandCorpusTest, ValueTranslationAlignsVectors) {
  auto data = BuildTypePairData(corpus_, dictionary_, "pt", "filme", "en",
                                "film");
  ASSERT_TRUE(data.ok());
  size_t direcao = data->GroupIndex({"pt", "direção"});
  size_t directed = data->GroupIndex({"en", "directed by"});
  ASSERT_NE(direcao, SIZE_MAX);
  ASSERT_NE(directed, SIZE_MAX);
  // Anchors "diretor um" were translated to "director one". The word
  // tokens stay untranslated (they are not article titles), so the cosine
  // is positive but diluted.
  double vsim = AttributeAligner::ValueSimilarity(data->groups[direcao],
                                                  data->groups[directed]);
  EXPECT_GT(vsim, 0.2);

  SchemaBuilderOptions raw;
  raw.translate_values = false;
  auto untranslated = BuildTypePairData(corpus_, dictionary_, "pt", "filme",
                                        "en", "film", raw);
  ASSERT_TRUE(untranslated.ok());
  double raw_vsim = AttributeAligner::ValueSimilarity(
      untranslated->groups[untranslated->GroupIndex({"pt", "direção"})],
      untranslated->groups[untranslated->GroupIndex({"en", "directed by"})]);
  EXPECT_LT(raw_vsim, vsim);
}

TEST_F(HandCorpusTest, LinkStructureUnifiedByCrossLanguageLinks) {
  auto data = BuildTypePairData(corpus_, dictionary_, "pt", "filme", "en",
                                "film");
  ASSERT_TRUE(data.ok());
  size_t direcao = data->GroupIndex({"pt", "direção"});
  size_t directed = data->GroupIndex({"en", "directed by"});
  double lsim = AttributeAligner::LinkSimilarity(data->groups[direcao],
                                                 data->groups[directed]);
  // [[diretor um]] and [[director one]] canonicalize to the same target.
  EXPECT_NEAR(lsim, 1.0, 1e-9);
}

TEST_F(HandCorpusTest, CoOccurrenceCounts) {
  auto data = BuildTypePairData(corpus_, dictionary_, "pt", "filme", "en",
                                "film");
  ASSERT_TRUE(data.ok());
  size_t direcao = data->GroupIndex({"pt", "direção"});
  size_t duracao = data->GroupIndex({"pt", "duração"});
  auto key = std::make_pair(std::min(direcao, duracao),
                            std::max(direcao, duracao));
  ASSERT_TRUE(data->co_occur.count(key));
  EXPECT_EQ(data->co_occur.at(key), 2.0);  // Present together in both.
}

TEST_F(HandCorpusTest, NotFoundForMissingTypePair) {
  EXPECT_FALSE(BuildTypePairData(corpus_, dictionary_, "pt", "nope", "en",
                                 "film")
                   .ok());
}

TEST_F(HandCorpusTest, SamplingLimitsDuals) {
  SchemaBuilderOptions opts;
  opts.max_sample_infoboxes = 1;
  auto data = BuildTypePairData(corpus_, dictionary_, "pt", "filme", "en",
                                "film", opts);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->num_duals, 1u);
}

TEST(ValueComponentsTest, TokensPlusAnchors) {
  wiki::AttributeValue value;
  value.text = "John Lone, Joan Chen";
  value.links = {{"john lone", "John Lone"}, {"joan chen", "Joan Chen"}};
  auto components = ValueComponents(value);
  // 4 word tokens + 2 whole anchors.
  EXPECT_EQ(components.size(), 6u);
  EXPECT_EQ(components[4], "john lone");
}

// -------------------------------------------------------------------- LSI

// Hand occurrence pattern: pt attributes a0, a1; en attributes b0, b1.
// a0/b0 co-occur in the same duals, a1/b1 in the others.
TypePairData HandLsiData() {
  TypePairData data;
  data.lang_a = "pt";
  data.lang_b = "en";
  data.num_duals = 8;
  auto make_group = [&](const std::string& lang, const std::string& name,
                        std::initializer_list<uint32_t> docs) {
    AttributeGroup g;
    g.key = {lang, name};
    g.occurrences = static_cast<double>(docs.size());
    g.dual_docs.insert(docs.begin(), docs.end());
    data.groups.push_back(std::move(g));
  };
  make_group("pt", "a0", {0, 1, 2, 3});
  make_group("pt", "a1", {4, 5, 6, 7});
  make_group("en", "b0", {0, 1, 2, 3});
  make_group("en", "b1", {4, 5, 6, 7});
  return data;
}

TEST(LsiTest, CrossLanguageCorrelationFollowsCoOccurrence) {
  TypePairData data = HandLsiData();
  auto lsi = LsiCorrelation::Compute(data);
  // a0 correlates with b0, not with b1.
  EXPECT_GT(lsi.Score(0, 2), 0.9);
  EXPECT_LT(lsi.Score(0, 3), 0.1);
  EXPECT_GT(lsi.Score(1, 3), 0.9);
}

TEST(LsiTest, SameLanguageNonCoOccurringScoresHigh) {
  TypePairData data = HandLsiData();
  auto lsi = LsiCorrelation::Compute(data);
  // a0 and a1 never co-occur: 1 - cosine is high (they are anti-correlated
  // in the reduced space).
  EXPECT_GT(lsi.Score(0, 1), 0.9);
}

TEST(LsiTest, SameLanguageCoOccurringIsZero) {
  TypePairData data = HandLsiData();
  // Make a0 and a1 co-occur.
  data.co_occur[{0, 1}] = 3.0;
  auto lsi = LsiCorrelation::Compute(data);
  EXPECT_EQ(lsi.Score(0, 1), 0.0);
}

TEST(LsiTest, CoOccurToleranceAbsorbsNoise) {
  TypePairData data = HandLsiData();
  data.co_occur[{0, 1}] = 0.01;  // Negligible vs min occurrence 4.
  LsiOptions opts;
  opts.co_occur_tolerance = 0.02;
  auto lsi = LsiCorrelation::Compute(data, opts);
  EXPECT_GT(lsi.Score(0, 1), 0.5);
}

TEST(LsiTest, EmptyDataIsSafe) {
  TypePairData data;
  data.lang_a = "pt";
  data.lang_b = "en";
  auto lsi = LsiCorrelation::Compute(data);
  EXPECT_EQ(lsi.rank(), 0u);
}

TEST(LsiTest, RankClamped) {
  TypePairData data = HandLsiData();
  LsiOptions opts;
  opts.rank = 2;
  auto lsi = LsiCorrelation::Compute(data, opts);
  EXPECT_LE(lsi.rank(), 2u);
}

// ---------------------------------------------------------------- Aligner

TEST_F(HandCorpusTest, AlignerFindsCorrectMatches) {
  auto data = BuildTypePairData(corpus_, dictionary_, "pt", "filme", "en",
                                "film");
  ASSERT_TRUE(data.ok());
  MatcherConfig config;
  config.lsi.co_occur_tolerance = 0.0;
  AttributeAligner aligner(config);
  auto result = aligner.Align(*data);
  EXPECT_TRUE(result.matches.AreMatched({"pt", "direção"},
                                         {"en", "directed by"}));
  EXPECT_TRUE(result.matches.AreMatched({"pt", "duração"},
                                         {"en", "running time"}));
  EXPECT_FALSE(result.matches.AreMatched({"pt", "direção"},
                                          {"en", "running time"}));
}

TEST(GroupingScoreTest, Formula) {
  TypePairData data = HandLsiData();
  data.groups[0].occurrences = 4;
  data.groups[1].occurrences = 8;
  data.co_occur[{0, 1}] = 2.0;
  // g = Opq / min(Op, Oq) = 2 / 4.
  EXPECT_NEAR(AttributeAligner::GroupingScore(data, 0, 1), 0.5, 1e-9);
  EXPECT_EQ(AttributeAligner::GroupingScore(data, 0, 2), 0.0);
  EXPECT_EQ(AttributeAligner::GroupingScore(data, 0, 0), 1.0);
}

TEST(InductiveGroupingTest, HighWhenCompanionsMatch) {
  // Four attributes: (pt:a, en:b) is the uncertain pair; (pt:c, en:d) is an
  // existing match; a co-occurs with c, b with d.
  TypePairData data;
  data.lang_a = "pt";
  data.lang_b = "en";
  data.num_duals = 4;
  auto add = [&](const std::string& lang, const std::string& name) {
    AttributeGroup g;
    g.key = {lang, name};
    g.occurrences = 4;
    data.groups.push_back(g);
  };
  add("pt", "a");  // 0
  add("pt", "c");  // 1
  add("en", "b");  // 2
  add("en", "d");  // 3
  data.co_occur[{0, 1}] = 4.0;  // g(a, c) = 1
  data.co_occur[{2, 3}] = 2.0;  // g(b, d) = 0.5
  eval::MatchSet matches;
  matches.AddPair({"pt", "c"}, {"en", "d"});
  double eg = AttributeAligner::InductiveGroupingScore(data, matches, 0, 2);
  EXPECT_NEAR(eg, 1.0 * 0.5, 1e-9);
  // With no matched companions the score is zero.
  eval::MatchSet empty;
  EXPECT_EQ(AttributeAligner::InductiveGroupingScore(data, empty, 0, 2),
            0.0);
}

TEST_F(HandCorpusTest, SingleStepHasHighRecallLowPrecisionShape) {
  auto data = BuildTypePairData(corpus_, dictionary_, "pt", "filme", "en",
                                "film");
  ASSERT_TRUE(data.ok());
  MatcherConfig config;
  config.single_step = true;
  AttributeAligner aligner(config);
  auto result = aligner.Align(*data);
  // Every positive-similarity pair is accepted, including the wrong ones
  // that share numbers (duração vs running time are correct, but direção /
  // running time etc. stay apart only if their sims are 0).
  EXPECT_TRUE(result.matches.AreMatched({"pt", "direção"},
                                         {"en", "directed by"}));
  EXPECT_GE(result.matches.CrossLanguagePairs("pt", "en").size(), 2u);
}

TEST_F(HandCorpusTest, DisabledFeaturesZeroTheirScores) {
  auto data = BuildTypePairData(corpus_, dictionary_, "pt", "filme", "en",
                                "film");
  ASSERT_TRUE(data.ok());
  MatcherConfig config;
  config.use_vsim = false;
  config.use_lsim = false;
  AttributeAligner aligner(config);
  auto result = aligner.Align(*data);
  for (const auto& p : result.all_pairs) {
    EXPECT_EQ(p.vsim, 0.0);
    EXPECT_EQ(p.lsim, 0.0);
  }
  // Nothing clears Tsim, and with ReviseUncertain's minimum-similarity
  // floor nothing can be revised either: no matches.
  EXPECT_TRUE(result.matches.empty());
}

TEST_F(HandCorpusTest, ProcessedOrderIsDescendingInLsi) {
  auto data = BuildTypePairData(corpus_, dictionary_, "pt", "filme", "en",
                                "film");
  ASSERT_TRUE(data.ok());
  AttributeAligner aligner{MatcherConfig{}};
  auto result = aligner.Align(*data);
  for (size_t i = 1; i < result.all_pairs.size(); ++i) {
    EXPECT_GE(result.all_pairs[i - 1].lsi, result.all_pairs[i].lsi);
  }
}

// ---------------------------------------------------------------- Pipeline

TEST_F(HandCorpusTest, PipelineEndToEnd) {
  MatchPipeline pipeline(&corpus_);
  PipelineOptions options;
  options.type_min_votes = 1;
  options.matcher.lsi.co_occur_tolerance = 0.0;
  auto result = pipeline.Run("pt", "en", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_type.size(), 1u);
  const TypePairResult* film = result->FindByTypeB("film");
  ASSERT_NE(film, nullptr);
  EXPECT_EQ(film->num_duals, 2u);
  EXPECT_TRUE(film->alignment.matches.AreMatched({"pt", "direção"},
                                                 {"en", "directed by"}));
  EXPECT_EQ(result->FindByTypeB("nope"), nullptr);
  // Frequencies exported for the metrics.
  EXPECT_EQ(film->frequencies.at({"pt", "direção"}), 2.0);
}

// ------------------------------------------------------------ SchemaOracle

// The memoized BuildTypePairData against the per-occurrence builder kept
// in schema_oracle.h, on every type pair of a generated corpus.
class SchemaOracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(0.05));
    auto g = generator.Generate();
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    gc_ = new synth::GeneratedCorpus(std::move(g).ValueOrDie());
    dictionary_ = new TranslationDictionary();
    dictionary_->Build(gc_->corpus);
  }
  static void TearDownTestSuite() {
    delete dictionary_;
    delete gc_;
  }

  // Builds with both implementations and asserts identical results;
  // returns whether the pair had any dual infoboxes.
  static bool ExpectSameData(const std::string& lang_a,
                             const std::string& type_a,
                             const std::string& lang_b,
                             const std::string& type_b,
                             const SchemaBuilderOptions& options) {
    const wiki::Corpus& corpus = gc_->corpus;
    auto got = BuildTypePairData(corpus, *dictionary_, lang_a, type_a, lang_b,
                                 type_b, options);
    auto want = schema_oracle::BuildTypePairData(
        corpus, *dictionary_, lang_a, type_a, lang_b, type_b, options);
    const std::string where = lang_a + ":" + type_a + "/" + lang_b + ":" +
                              type_b;
    EXPECT_EQ(got.ok(), want.ok()) << where;
    if (!got.ok() || !want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString()) << where;
      return false;
    }
    const TypePairData& a = *got;
    const TypePairData& b = *want;
    EXPECT_EQ(a.lang_a, b.lang_a);
    EXPECT_EQ(a.lang_b, b.lang_b);
    EXPECT_EQ(a.type_a, b.type_a);
    EXPECT_EQ(a.type_b, b.type_b);
    EXPECT_EQ(a.num_duals, b.num_duals) << where;
    EXPECT_EQ(a.groups.size(), b.groups.size()) << where;
    for (size_t i = 0; i < std::min(a.groups.size(), b.groups.size()); ++i) {
      const AttributeGroup& x = a.groups[i];
      const AttributeGroup& y = b.groups[i];
      const std::string at = where + " group " + std::to_string(i) + " " +
                             y.key.language + ":" + y.key.name;
      EXPECT_EQ(x.key, y.key) << at;
      EXPECT_EQ(x.occurrences, y.occurrences) << at;
      EXPECT_EQ(x.dual_docs, y.dual_docs) << at;
      EXPECT_EQ(x.values.entries(), y.values.entries()) << at;
      EXPECT_EQ(x.links.entries(), y.links.entries()) << at;
    }
    EXPECT_EQ(a.co_occur, b.co_occur) << where;
    EXPECT_EQ(a.value_terms.size(), b.value_terms.size()) << where;
    for (uint32_t t = 0;
         t < std::min(a.value_terms.size(), b.value_terms.size()); ++t) {
      EXPECT_EQ(a.value_terms.TermOf(t), b.value_terms.TermOf(t))
          << where << " term " << t;
    }
    return true;
  }

  static synth::GeneratedCorpus* gc_;
  static TranslationDictionary* dictionary_;
};

synth::GeneratedCorpus* SchemaOracleTest::gc_ = nullptr;
TranslationDictionary* SchemaOracleTest::dictionary_ = nullptr;

TEST_F(SchemaOracleTest, EveryTypePairMatchesOracle) {
  TypeMatcher type_matcher;
  for (const char* lang_a : {"pt", "vi"}) {
    std::vector<TypeMatch> units =
        type_matcher.Match(gc_->corpus, lang_a, "en");
    ASSERT_FALSE(units.empty()) << lang_a;
    size_t built = 0;
    for (bool translate : {true, false}) {
      for (size_t min_occurrences : {size_t{1}, size_t{3}}) {
        SchemaBuilderOptions options;
        options.translate_values = translate;
        options.min_occurrences = min_occurrences;
        for (const TypeMatch& tm : units) {
          SCOPED_TRACE(std::string("translate=") + (translate ? "1" : "0") +
                       " min_occurrences=" + std::to_string(min_occurrences));
          if (ExpectSameData(lang_a, tm.type_a, "en", tm.type_b, options)) {
            ++built;
          }
        }
      }
    }
    EXPECT_GT(built, 0u) << lang_a;
  }
}

TEST_F(SchemaOracleTest, SampledAndMissingPairsMatchOracle) {
  TypeMatcher type_matcher;
  std::vector<TypeMatch> units = type_matcher.Match(gc_->corpus, "pt", "en");
  ASSERT_FALSE(units.empty());
  const TypeMatch& tm = units.front();
  SchemaBuilderOptions sampled;
  sampled.max_sample_infoboxes = 7;
  EXPECT_TRUE(ExpectSameData("pt", tm.type_a, "en", tm.type_b, sampled));
  // No dual infoboxes: both NotFound with the same message.
  SchemaBuilderOptions defaults;
  EXPECT_FALSE(ExpectSameData("pt", tm.type_a, "en", "no such type", defaults));
  EXPECT_FALSE(ExpectSameData("pt", "no such type", "en", tm.type_b, defaults));
}

}  // namespace
}  // namespace match
}  // namespace wikimatch
