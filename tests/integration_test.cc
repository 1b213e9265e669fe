// End-to-end integration tests: synthetic corpus -> full WikiMatch pipeline
// -> evaluation against the generated ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "baselines/bouma_matcher.h"
#include "baselines/coma_matcher.h"
#include "baselines/correlation_measures.h"
#include "baselines/lsi_matcher.h"
#include "eval/metrics.h"
#include "match/aligner.h"
#include "match/pipeline.h"
#include "match/serialize.h"
#include "match/type_matcher.h"
#include "query/case_study.h"
#include "query/translator.h"
#include "store/crc32.h"
#include "synth/generator.h"
#include "synth/mt_oracle.h"
#include "text/normalize.h"
#include "util/binary_io.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(7));
    auto generated = generator.Generate();
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    corpus_ = new synth::GeneratedCorpus(std::move(generated).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static synth::GeneratedCorpus* corpus_;
};

synth::GeneratedCorpus* IntegrationTest::corpus_ = nullptr;

TEST_F(IntegrationTest, CorpusHasArticlesInAllLanguages) {
  const auto& corpus = corpus_->corpus;
  EXPECT_GT(corpus.InfoboxCount("en"), 0u);
  EXPECT_GT(corpus.InfoboxCount("pt"), 0u);
  EXPECT_GT(corpus.InfoboxCount("vi"), 0u);
}

TEST_F(IntegrationTest, TypeMatcherFindsFilmMapping) {
  match::TypeMatcher matcher;
  auto matches = matcher.Match(corpus_->corpus, "pt", "en");
  ASSERT_FALSE(matches.empty());
  bool found_film = false;
  for (const auto& m : matches) {
    if (m.type_a == "filme" && m.type_b == "film") found_film = true;
  }
  EXPECT_TRUE(found_film);
}

TEST_F(IntegrationTest, DictionaryTranslatesEntityTitles) {
  match::MatchPipeline pipeline(&corpus_->corpus);
  // Any dual entity's pt title must translate to its en title.
  size_t checked = 0;
  for (const auto& rec : corpus_->entities) {
    if (rec.pair_lang != "pt") continue;
    auto t = pipeline.dictionary().Translate("pt", rec.titles.at("pt"), "en");
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, rec.titles.at("en"));
    if (++checked > 10) break;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(IntegrationTest, PipelinePtEnProducesGoodAlignments) {
  match::MatchPipeline pipeline(&corpus_->corpus);
  auto result = pipeline.Run("pt", "en");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->per_type.empty());

  std::vector<eval::Prf> rows;
  for (const auto& type_result : result->per_type) {
    auto truth_it = corpus_->hub_type_of.find({"en", type_result.type_b});
    ASSERT_NE(truth_it, corpus_->hub_type_of.end());
    const eval::MatchSet& truth = corpus_->ground_truth.at(truth_it->second);
    eval::Prf prf = eval::WeightedPrf(type_result.alignment.matches, truth,
                                      type_result.frequencies, "pt", "en");
    rows.push_back(prf);
  }
  eval::Prf avg = eval::AveragePrf(rows);
  // The tiny corpus is noisy; the full-scale behaviour is checked by the
  // benches. These floors catch gross regressions.
  EXPECT_GT(avg.precision, 0.6) << "precision";
  EXPECT_GT(avg.recall, 0.4) << "recall";
  EXPECT_GT(avg.f1, 0.5) << "f1";
}

TEST_F(IntegrationTest, PipelineVnEnProducesGoodAlignments) {
  match::MatchPipeline pipeline(&corpus_->corpus);
  auto result = pipeline.Run("vi", "en");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->per_type.empty());
  const auto& film = result->per_type.front();
  const eval::MatchSet& truth = corpus_->ground_truth.at("film");
  eval::Prf prf = eval::WeightedPrf(film.alignment.matches, truth,
                                    film.frequencies, "vi", "en");
  EXPECT_GT(prf.precision, 0.6);
  EXPECT_GT(prf.recall, 0.5);
}

TEST_F(IntegrationTest, GroundTruthContainsSeededFilmAlignments) {
  const eval::MatchSet& truth = corpus_->ground_truth.at("film");
  EXPECT_TRUE(truth.AreMatched({"en", "directed by"}, {"pt", "direção"}));
  EXPECT_TRUE(truth.AreMatched({"en", "directed by"},
                               {"vi", text::NormalizeAttributeName("đạo diễn")}));
  EXPECT_FALSE(truth.AreMatched({"en", "directed by"}, {"pt", "duração"}));
}

TEST_F(IntegrationTest, SchemaOverlapRoughlyMatchesTargets) {
  // film was configured with overlap 0.45 (pt) and 0.80 (vi).
  const auto& corpus = corpus_->corpus;
  const eval::MatchSet& truth = corpus_->ground_truth.at("film");
  auto measure = [&](const std::string& lang, const std::string& type_local) {
    double total = 0.0;
    size_t n = 0;
    for (wiki::ArticleId id : corpus.ArticlesOfType(lang, type_local)) {
      wiki::ArticleId other = corpus.CrossLanguageTarget(id, "en");
      if (other == wiki::kInvalidArticle) continue;
      const auto& a = corpus.Get(id);
      const auto& b = corpus.Get(other);
      if (!b.infobox.has_value()) continue;
      total += eval::SchemaOverlap(a.infobox->Schema(), b.infobox->Schema(),
                                   lang, "en", truth);
      ++n;
    }
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  double pt_overlap = measure("pt", "filme");
  double vi_overlap = measure("vi", "phim");
  EXPECT_NEAR(pt_overlap, 0.45, 0.18);
  EXPECT_NEAR(vi_overlap, 0.80, 0.18);
  EXPECT_LT(pt_overlap, vi_overlap);
}

// Figure 4 at Paper(1.0), computed as bench_fig4_case_study does: the
// cumulative gain at k=20 of the case-study workload run natively and
// translated into English through WikiMatch's alignments. The values are
// the ones EXPERIMENTS.md reports; a change to the evaluator, translator
// or matcher that moves them moves the paper result.
TEST(CaseStudyPinTest, Figure4CumulativeGainsAtPaperScale) {
  synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(1.0));
  auto generated = generator.Generate();
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const synth::GeneratedCorpus& gc = *generated;
  match::MatchPipeline pipeline(&gc.corpus);
  const auto queries = query::BuildCaseQueries(gc);

  auto run = [&](const std::string& lang) {
    // The bench's per-type alignments: translated schema data of each
    // matched type with a ground-truth type, aligned with the default
    // config, most dual infoboxes first (the first alignment of a hub
    // type wins).
    auto type_matches = match::TypeMatcher().Match(gc.corpus, lang, gc.hub);
    std::vector<std::pair<std::string, match::TypePairData>> types;
    for (const auto& tm : type_matches) {
      if (gc.hub_type_of.count({gc.hub, tm.type_b}) == 0) continue;
      match::SchemaBuilderOptions options;
      options.translate_values = true;
      auto data =
          pipeline.BuildPair(lang, tm.type_a, gc.hub, tm.type_b, options);
      if (!data.ok()) continue;
      types.emplace_back(tm.type_b, std::move(data).ValueOrDie());
    }
    std::stable_sort(types.begin(), types.end(),
                     [](const auto& x, const auto& y) {
                       return x.second.num_duals > y.second.num_duals;
                     });
    match::AttributeAligner aligner{match::MatcherConfig{}};
    std::map<std::string, eval::MatchSet> per_type;
    for (const auto& [type_b, data] : types) {
      per_type.emplace(type_b, aligner.Align(data).matches);
    }
    std::map<std::string, const eval::MatchSet*> ptrs;
    for (const auto& [type_b, matches] : per_type) ptrs[type_b] = &matches;
    query::QueryTranslator translator(lang, gc.hub, type_matches, ptrs,
                                      &pipeline.dictionary());
    auto curves = query::RunCaseStudy(gc, queries, lang, translator);
    EXPECT_TRUE(curves.ok()) << curves.status().ToString();
    std::vector<double> at20;
    if (!curves.ok()) return at20;
    for (const auto& curve : *curves) {
      EXPECT_EQ(curve.cg.size(), 20u) << curve.label;
      at20.push_back(curve.cg.empty() ? -1.0 : curve.cg.back());
    }
    return at20;
  };
  EXPECT_EQ(run("pt"), (std::vector<double>{329.0, 371.0}));
  EXPECT_EQ(run("vi"), (std::vector<double>{249.0, 400.0}));
}

// One matched type with a ground-truth type, as the Appendix benches see
// it: its schema data with translated values, and the same data on a
// 12-dual instance sample (COMA++'s input).
struct PinType {
  std::string type_a;
  std::string type_b;
  std::string hub_type;
  match::TypePairData translated;
  match::TypePairData sampled;
};

// Every matched type of (lang, hub) with a ground-truth type, most dual
// infoboxes first, as bench_common.cc's PairContext orders them.
std::vector<PinType> PinTypes(const synth::GeneratedCorpus& gc,
                              const std::string& lang) {
  match::MatchPipeline pipeline(&gc.corpus);
  std::vector<PinType> types;
  for (const auto& tm : match::TypeMatcher().Match(gc.corpus, lang, gc.hub)) {
    auto hub = gc.hub_type_of.find({gc.hub, tm.type_b});
    if (hub == gc.hub_type_of.end()) continue;
    match::SchemaBuilderOptions options;
    options.translate_values = true;
    auto translated =
        pipeline.BuildPair(lang, tm.type_a, gc.hub, tm.type_b, options);
    options.max_sample_infoboxes = 12;
    auto sampled =
        pipeline.BuildPair(lang, tm.type_a, gc.hub, tm.type_b, options);
    if (!translated.ok() || !sampled.ok()) continue;
    types.push_back({tm.type_a, tm.type_b, hub->second,
                     std::move(translated).ValueOrDie(),
                     std::move(sampled).ValueOrDie()});
  }
  std::stable_sort(types.begin(), types.end(),
                   [](const PinType& x, const PinType& y) {
                     return x.translated.num_duals > y.translated.num_duals;
                   });
  return types;
}

// COMA++'s best configuration per pair (paper Appendix C): NG+ID for
// Pt-En, ID for Vn-En.
baselines::ComaConfig BestComaConfig(const std::string& lang) {
  baselines::ComaConfig config;
  config.use_instance = true;
  config.threshold = 0.01;
  config.use_name = lang == "pt";
  config.translate_names = lang == "pt";
  return config;
}

// Table 2 averages as bench_table2_comparison computes them: per matched
// type with a ground-truth type, WikiMatch aligns the translated schema
// data with the default config, and each baseline runs in its best
// per-pair configuration (COMA++ on a 12-dual instance sample); weighted
// P/R/F rows are averaged over types.
struct Table2 {
  eval::Prf wikimatch;
  eval::Prf coma;
  eval::Prf bouma;
  eval::Prf lsi;
};

Table2 RunTable2(const synth::GeneratedCorpus& gc, const std::string& lang) {
  const baselines::NameTranslations mt = synth::MakeMtOracle(gc);
  const std::vector<PinType> types = PinTypes(gc, lang);
  const baselines::ComaConfig coma_config = BestComaConfig(lang);

  match::AttributeAligner aligner{match::MatcherConfig{}};
  std::vector<eval::Prf> wm_rows, coma_rows, bouma_rows, lsi_rows;
  for (const PinType& type : types) {
    const eval::MatchSet& truth = gc.ground_truth.at(type.hub_type);
    const eval::AttrFrequencies freqs = type.translated.Frequencies();
    auto prf = [&](const eval::MatchSet& matches) {
      return eval::WeightedPrf(matches, truth, freqs, lang, gc.hub);
    };
    auto wm = aligner.Align(type.translated);
    eval::Prf coma_prf, bouma_prf, lsi_prf;
    auto coma = baselines::RunComaMatcher(type.sampled, coma_config, mt);
    if (coma.ok()) coma_prf = prf(coma->matches);
    auto bouma = baselines::RunBoumaMatcher(gc.corpus, lang, type.type_a,
                                            gc.hub, type.type_b);
    if (bouma.ok()) bouma_prf = prf(bouma->matches);
    auto lsi = baselines::RunLsiMatcher(type.translated);
    if (lsi.ok()) lsi_prf = prf(lsi->matches);
    wm_rows.push_back(prf(wm.matches));
    coma_rows.push_back(coma_prf);
    bouma_rows.push_back(bouma_prf);
    lsi_rows.push_back(lsi_prf);
  }
  EXPECT_FALSE(wm_rows.empty()) << lang;
  return {eval::AveragePrf(wm_rows), eval::AveragePrf(coma_rows),
          eval::AveragePrf(bouma_rows), eval::AveragePrf(lsi_rows)};
}

// The paper's quality results pinned exactly at a ctest-cheap scale
// (Paper(0.05)). Corpus generation, dictionary, schema building, alignment
// and the baselines are all deterministic, so a change that moves any of
// them fails here instead of drifting silently.
class PaperPinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(0.05));
    auto generated = generator.Generate();
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    gc_ = new synth::GeneratedCorpus(std::move(generated).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete gc_;
    gc_ = nullptr;
  }

  static synth::GeneratedCorpus* gc_;
};

synth::GeneratedCorpus* PaperPinTest::gc_ = nullptr;

constexpr double kPinTolerance = 1e-9;

void ExpectPrf(const eval::Prf& got, double precision, double recall,
               double f1) {
  EXPECT_NEAR(got.precision, precision, kPinTolerance);
  EXPECT_NEAR(got.recall, recall, kPinTolerance);
  EXPECT_NEAR(got.f1, f1, kPinTolerance);
}

TEST_F(PaperPinTest, Table2GoldenWeightedPrf) {
  const Table2 pt = RunTable2(*gc_, "pt");
  ExpectPrf(pt.wikimatch, 0.86276546514524632, 0.7647931906001677,
            0.8087709773623144);
  EXPECT_NEAR(pt.coma.f1, 0.82672662805100339, kPinTolerance);
  EXPECT_NEAR(pt.bouma.f1, 0.52607928911431701, kPinTolerance);
  EXPECT_NEAR(pt.lsi.f1, 0.25601133977530349, kPinTolerance);

  const Table2 vi = RunTable2(*gc_, "vi");
  ExpectPrf(vi.wikimatch, 0.87797619047619047, 0.71279720315078465,
            0.78373562967264887);
  EXPECT_NEAR(vi.coma.f1, 0.69709637303489025, kPinTolerance);
  EXPECT_NEAR(vi.bouma.f1, 0.55446294385422301, kPinTolerance);
  EXPECT_NEAR(vi.lsi.f1, 0.11499388321610306, kPinTolerance);
}

// Digests (CRC-32 and byte length) of the encoded dictionary and of both
// pairs' encoded pipeline results, the bytes a snapshot stores. They must
// not depend on whether the shared pool has one worker or four.
TEST_F(PaperPinTest, EncodedOutputDigestsAtPoolSizes1And4) {
  using Digest = std::pair<uint32_t, size_t>;
  auto digest = [](util::BinaryWriter* w) {
    const std::string bytes = w->TakeBuffer();
    return Digest{store::Crc32(bytes), bytes.size()};
  };
  for (size_t pool_size : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    util::ThreadPool pool(pool_size);
    util::ScopedThreadPoolOverride use_pool(&pool);
    match::MatchPipeline pipeline(&gc_->corpus);
    util::BinaryWriter dictionary;
    match::EncodeDictionary(pipeline.dictionary(), &dictionary);
    EXPECT_EQ(digest(&dictionary), (Digest{1304844091u, 492702}));
    for (const auto& [lang, want] :
         {std::pair<std::string, Digest>{"pt", {97438507u, 30965}},
          std::pair<std::string, Digest>{"vi", {2169134791u, 11699}}}) {
      match::PipelineOptions options;
      options.num_threads = 4;
      auto result = pipeline.Run(lang, gc_->hub, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      util::BinaryWriter encoded;
      match::EncodePipelineResult(*result, &encoded);
      EXPECT_EQ(digest(&encoded), want) << lang;
    }
  }
}

// Table 3's and Figure 3's configurations as bench_table3_ablations runs
// them: the default MatcherConfig with one switch flipped (the WM* rows
// also drop ReviseUncertain), aligned on the translated schema data of
// every matched type with a ground-truth type, most dual infoboxes first;
// weighted P/R/F rows are averaged over types.
struct Ablation {
  const char* name;
  void (*apply)(match::MatcherConfig*);
  eval::Prf pt;  ///< pinned at Paper(0.05)
  eval::Prf vi;
};

const Ablation kTable3[] = {
    {"WikiMatch", [](match::MatcherConfig*) {},
     {0.86276546514524632, 0.7647931906001677, 0.8087709773623144},
     {0.87797619047619047, 0.71279720315078465, 0.78373562967264887}},
    {"WikiMatch-ReviseUncertain",
     [](match::MatcherConfig* c) { c->use_revise_uncertain = false; },
     {0.89606161034732457, 0.45383243360973952, 0.56540241026894777},
     {0.98863636363636365, 0.37645552041481245, 0.5155379839513049}},
    {"WikiMatch-IntegrateMatches",
     [](match::MatcherConfig* c) { c->use_integrate_constraint = false; },
     {0.72492031791185652, 0.77740710850950134, 0.7422317800989553},
     {0.76445181465583101, 0.74845352289109712, 0.75226402194762176}},
    {"WikiMatch random",
     [](match::MatcherConfig* c) { c->random_order = true; },
     {0.68721020182266745, 0.60413810566670656, 0.64106696335066649},
     {0.76425596236481841, 0.61627591550800176, 0.6793194620079781}},
    {"WikiMatch single step",
     [](match::MatcherConfig* c) { c->single_step = true; },
     {0.4146550523343277, 0.93759550763638999, 0.52278312274100258},
     {0.47265727425671711, 0.88219568337684828, 0.60488637812916113}},
    {"WikiMatch-vsim", [](match::MatcherConfig* c) { c->use_vsim = false; },
     {0.75431437174038563, 0.46253408917318561, 0.55679932503447305},
     {0.62962256957682039, 0.25232457042653661, 0.3235745283705459}},
    {"WikiMatch-lsim", [](match::MatcherConfig* c) { c->use_lsim = false; },
     {0.86276546514524632, 0.76279052037319828, 0.8076908675343244},
     {0.87797619047619047, 0.71279720315078465, 0.78373562967264887}},
    {"WikiMatch-LSI", [](match::MatcherConfig* c) { c->use_lsi = false; },
     {0.66798338946033609, 0.77190624718624312, 0.7071615688654177},
     {0.78699215717645177, 0.72292941387642207, 0.72943808117107345}},
    {"WikiMatch-inductive grouping",
     [](match::MatcherConfig* c) { c->use_inductive_grouping = false; },
     {0.92367423459361964, 0.81318028737436132, 0.86255475282855432},
     {0.88694748234221921, 0.73638210881116206, 0.80354140529237794}},
    {"WikiMatch*-vsim",
     [](match::MatcherConfig* c) {
       c->use_revise_uncertain = false;
       c->use_vsim = false;
     },
     {0.77702931305148049, 0.3248752836279139, 0.43360491238062782},
     {0.75, 0.096567820686141961, 0.1675694616378251}},
    {"WikiMatch*-lsim",
     [](match::MatcherConfig* c) {
       c->use_revise_uncertain = false;
       c->use_lsim = false;
     },
     {0.89606161034732457, 0.40225069747374487, 0.5159026531132358},
     {0.98750000000000004, 0.34246814896135713, 0.48300393189979107}},
    {"WikiMatch*-LSI",
     [](match::MatcherConfig* c) {
       c->use_revise_uncertain = false;
       c->use_lsi = false;
     },
     {0.76898206912460032, 0.47490038140810054, 0.53353282083322739},
     {0.879176367466178, 0.37645552041481245, 0.48777334547404583}},
    {"WikiMatch* random",
     [](match::MatcherConfig* c) {
       c->use_revise_uncertain = false;
       c->random_order = true;
     },
     {0.65400503057637072, 0.31118973493238694, 0.39188365382121104},
     {0.81131600435492646, 0.2799342327720295, 0.39104409318398337}},
};

// Average P/R/F of every kTable3 configuration on (lang, hub), keyed by
// configuration name.
std::map<std::string, eval::Prf> RunTable3(const synth::GeneratedCorpus& gc,
                                           const std::string& lang) {
  match::MatchPipeline pipeline(&gc.corpus);
  std::vector<std::pair<std::string, match::TypePairData>> types;
  for (const auto& tm : match::TypeMatcher().Match(gc.corpus, lang, gc.hub)) {
    auto hub = gc.hub_type_of.find({gc.hub, tm.type_b});
    if (hub == gc.hub_type_of.end()) continue;
    match::SchemaBuilderOptions options;
    options.translate_values = true;
    auto data = pipeline.BuildPair(lang, tm.type_a, gc.hub, tm.type_b, options);
    if (data.ok()) types.emplace_back(hub->second, std::move(data).ValueOrDie());
  }
  std::stable_sort(types.begin(), types.end(),
                   [](const auto& x, const auto& y) {
                     return x.second.num_duals > y.second.num_duals;
                   });
  std::map<std::string, eval::Prf> out;
  for (const Ablation& ablation : kTable3) {
    match::MatcherConfig config;
    ablation.apply(&config);
    match::AttributeAligner aligner(config);
    std::vector<eval::Prf> rows;
    for (const auto& [hub_type, data] : types) {
      auto result = aligner.Align(data);
      rows.push_back(eval::WeightedPrf(result.matches,
                                       gc.ground_truth.at(hub_type),
                                       data.Frequencies(), lang, gc.hub));
    }
    out[ablation.name] = eval::AveragePrf(rows);
  }
  return out;
}

// Every configuration's P/R/F pinned, plus the shape claims that hold at
// both Paper(0.05) and Paper(1.0). Random order's and inductive
// grouping's effects change with scale, so EXPERIMENTS.md records them
// instead of asserting them.
TEST_F(PaperPinTest, Table3AblationsAndFigure3) {
  const std::map<std::string, std::map<std::string, eval::Prf>> got = {
      {"pt", RunTable3(*gc_, "pt")}, {"vi", RunTable3(*gc_, "vi")}};
  for (const Ablation& ablation : kTable3) {
    SCOPED_TRACE(ablation.name);
    const eval::Prf& pt = got.at("pt").at(ablation.name);
    ExpectPrf(pt, ablation.pt.precision, ablation.pt.recall, ablation.pt.f1);
    const eval::Prf& vi = got.at("vi").at(ablation.name);
    ExpectPrf(vi, ablation.vi.precision, ablation.vi.recall, ablation.vi.f1);
  }

  for (const std::string lang : {"pt", "vi"}) {
    SCOPED_TRACE(lang);
    const auto& r = got.at(lang);
    const eval::Prf& wm = r.at("WikiMatch");
    EXPECT_LT(r.at("WikiMatch-ReviseUncertain").recall, wm.recall);
    EXPECT_GT(r.at("WikiMatch single step").recall, wm.recall);
    // -vsim is the largest single-feature recall loss.
    EXPECT_LT(r.at("WikiMatch-vsim").recall, r.at("WikiMatch-lsim").recall);
    EXPECT_LT(r.at("WikiMatch-vsim").recall, r.at("WikiMatch-LSI").recall);
    EXPECT_LT(r.at("WikiMatch-vsim").recall, wm.recall);
    // Figure 3: ReviseUncertain adds recall under every feature removal.
    for (const std::string feature : {"vsim", "lsim", "LSI"}) {
      EXPECT_GT(r.at("WikiMatch-" + feature).recall,
                r.at("WikiMatch*-" + feature).recall)
          << feature;
    }
  }
  const auto& pt = got.at("pt");
  EXPECT_LT(pt.at("WikiMatch single step").precision,
            0.5 * pt.at("WikiMatch").precision);
  EXPECT_LT(pt.at("WikiMatch-LSI").precision, pt.at("WikiMatch").precision);
}

// Table 6's macro P/R/F as bench_table6_macro computes them: distinct
// cross-language attribute-name pairs counted over every type of a pair
// (derived, ground truth, correct), then P = correct / derived and
// R = correct / truth. Keyed by approach name.
std::map<std::string, eval::Prf> RunTable6(const synth::GeneratedCorpus& gc,
                                           const std::string& lang) {
  struct Counts {
    size_t derived = 0;
    size_t truth = 0;
    size_t correct = 0;
  };
  const baselines::NameTranslations mt = synth::MakeMtOracle(gc);
  const baselines::ComaConfig coma_config = BestComaConfig(lang);
  match::AttributeAligner aligner{match::MatcherConfig{}};
  std::map<std::string, Counts> counts;
  for (const PinType& type : PinTypes(gc, lang)) {
    const eval::MatchSet& truth = gc.ground_truth.at(type.hub_type);
    auto add = [&](const std::string& name, const eval::MatchSet& matches) {
      Counts& c = counts[name];
      const auto derived = matches.CrossLanguagePairs(lang, gc.hub);
      c.derived += derived.size();
      c.truth += truth.CrossLanguagePairs(lang, gc.hub).size();
      for (const auto& [a, b] : derived) {
        if (truth.AreMatched(a, b)) ++c.correct;
      }
    };
    add("WikiMatch", aligner.Align(type.translated).matches);
    auto bouma = baselines::RunBoumaMatcher(gc.corpus, lang, type.type_a,
                                            gc.hub, type.type_b);
    if (bouma.ok()) add("Bouma", bouma->matches);
    auto coma = baselines::RunComaMatcher(type.sampled, coma_config, mt);
    if (coma.ok()) add("COMA++", coma->matches);
    auto lsi = baselines::RunLsiMatcher(type.translated);
    if (lsi.ok()) add("LSI", lsi->matches);
  }
  std::map<std::string, eval::Prf> out;
  for (const auto& [name, c] : counts) {
    const double p =
        c.derived > 0 ? static_cast<double>(c.correct) / c.derived : 0.0;
    const double r =
        c.truth > 0 ? static_cast<double>(c.correct) / c.truth : 0.0;
    out[name] = eval::Prf::Of(p, r);
  }
  return out;
}

// Table 7's MAP as bench_table7_map computes it: each measure's candidate
// ranking scored per type, averaged over types. Keyed by measure name.
std::map<std::string, double> RunTable7(const synth::GeneratedCorpus& gc,
                                        const std::string& lang) {
  const std::vector<PinType> types = PinTypes(gc, lang);
  std::map<std::string, double> out;
  for (auto measure : {baselines::CorrelationMeasure::kLsi,
                       baselines::CorrelationMeasure::kX1,
                       baselines::CorrelationMeasure::kX2,
                       baselines::CorrelationMeasure::kX3,
                       baselines::CorrelationMeasure::kRandom}) {
    double sum = 0.0;
    size_t n = 0;
    for (const PinType& type : types) {
      auto ranking = baselines::RankCandidates(type.translated, measure);
      if (!ranking.ok()) continue;
      sum += eval::MeanAveragePrecision(
          *ranking, gc.ground_truth.at(type.hub_type), lang);
      ++n;
    }
    out[baselines::CorrelationMeasureName(measure)] =
        n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
  return out;
}

// Table 6's and Table 7's values pinned at Paper(0.05), plus the orderings
// that hold at both Paper(0.05) and Paper(1.0). Vn-En's Table 7 ordering
// changes with scale (EXPERIMENTS.md), so it is pinned but not asserted.
TEST_F(PaperPinTest, Table6MacroAndTable7Map) {
  const std::map<std::string, std::map<std::string, eval::Prf>> t6 = {
      {"pt", RunTable6(*gc_, "pt")}, {"vi", RunTable6(*gc_, "vi")}};
  const std::map<std::string, std::map<std::string, double>> t7 = {
      {"pt", RunTable7(*gc_, "pt")}, {"vi", RunTable7(*gc_, "vi")}};
  const auto& pt6 = t6.at("pt");
  const auto& vi6 = t6.at("vi");
  ExpectPrf(pt6.at("WikiMatch"), 0.8978102189781022, 0.65079365079365081,
            0.75460122699386512);
  ExpectPrf(pt6.at("COMA++"), 0.9576271186440678, 0.59788359788359791,
            0.73615635179153094);
  ExpectPrf(pt6.at("Bouma"), 0.98333333333333328, 0.31216931216931215,
            0.47389558232931722);
  ExpectPrf(pt6.at("LSI"), 0.22151898734177214, 0.18518518518518517,
            0.20172910662824203);
  ExpectPrf(vi6.at("WikiMatch"), 0.86206896551724133, 0.6097560975609756,
            0.71428571428571441);
  ExpectPrf(vi6.at("COMA++"), 0.92500000000000004, 0.45121951219512196,
            0.60655737704918034);
  ExpectPrf(vi6.at("Bouma"), 0.93939393939393945, 0.37804878048780488,
            0.5391304347826088);
  ExpectPrf(vi6.at("LSI"), 0.11594202898550725, 0.097560975609756101,
            0.10596026490066227);
  for (const auto& [lang, rows] : t6) {
    SCOPED_TRACE(lang);
    EXPECT_GT(rows.at("WikiMatch").f1, rows.at("COMA++").f1);
    EXPECT_GT(rows.at("COMA++").f1, rows.at("Bouma").f1);
    EXPECT_GT(rows.at("Bouma").f1, rows.at("LSI").f1);
  }

  const auto& pt7 = t7.at("pt");
  const auto& vi7 = t7.at("vi");
  EXPECT_NEAR(pt7.at("LSI"), 0.42544352492294707, kPinTolerance);
  EXPECT_NEAR(pt7.at("X1"), 0.31093190736163062, kPinTolerance);
  EXPECT_NEAR(pt7.at("X2"), 0.37868616484475986, kPinTolerance);
  EXPECT_NEAR(pt7.at("X3"), 0.33312657912204907, kPinTolerance);
  EXPECT_NEAR(pt7.at("Random"), 0.22291897565232557, kPinTolerance);
  EXPECT_NEAR(vi7.at("LSI"), 0.27282955036767687, kPinTolerance);
  EXPECT_NEAR(vi7.at("X1"), 0.25070169078454263, kPinTolerance);
  EXPECT_NEAR(vi7.at("X2"), 0.27990448864500433, kPinTolerance);
  EXPECT_NEAR(vi7.at("X3"), 0.27894236357017155, kPinTolerance);
  EXPECT_NEAR(vi7.at("Random"), 0.18678163467165287, kPinTolerance);
  EXPECT_GT(pt7.at("LSI"), pt7.at("X2"));
  EXPECT_GT(pt7.at("X2"), pt7.at("X3"));
  EXPECT_GT(pt7.at("X3"), pt7.at("X1"));
  EXPECT_GT(pt7.at("X1"), pt7.at("Random"));
}

// Table 2's headline ordering, WikiMatch > COMA++ > Bouma > LSI on average
// F for both pairs, at the paper scale EXPERIMENTS.md reports. At
// Paper(0.05) the ordering does not hold (COMA++ edges out WikiMatch on
// Pt-En, 0.827 against 0.809), so it is checked at Paper(1.0).
TEST(PaperScaleTable2Test, OrderingOnF) {
  synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(1.0));
  auto generated = generator.Generate();
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  for (const std::string lang : {"pt", "vi"}) {
    SCOPED_TRACE(lang);
    const Table2 t = RunTable2(*generated, lang);
    EXPECT_GT(t.wikimatch.f1, t.coma.f1);
    EXPECT_GT(t.coma.f1, t.bouma.f1);
    EXPECT_GT(t.bouma.f1, t.lsi.f1);
  }
}

}  // namespace
}  // namespace wikimatch
