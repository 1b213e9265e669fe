// Performance micro-benchmarks (not in the paper): throughput of the
// substrates — SVD, wikitext parsing, similarity computation, the
// end-to-end aligner, the per-section decode of a snapshot load, and the
// two lookups of an uncached served query (cluster lookup and column
// search) — via google-benchmark.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "la/svd.h"
#include "match/aligner.h"
#include "match/pipeline.h"
#include "match/serialize.h"
#include "query/c_query.h"
#include "query/evaluator.h"
#include "query/translator.h"
#include "store/snapshot.h"
#include "sync/sync_engine.h"
#include "synth/generator.h"
#include "text/normalize.h"
#include "text/string_similarity.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "wiki/serialize.h"
#include "wiki/wikitext_parser.h"

using namespace wikimatch;

namespace {

// Shared tiny corpus for the aligner benchmarks.
const synth::GeneratedCorpus& SharedCorpus() {
  static const synth::GeneratedCorpus* corpus = [] {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(99));
    auto g = generator.Generate();
    return new synth::GeneratedCorpus(std::move(g).ValueOrDie());
  }();
  return *corpus;
}

void BM_SvdTruncated(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = rows * 8;
  util::Rng rng(7);
  la::Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m(i, j) = rng.NextBool(0.3) ? 1.0 : 0.0;
    }
  }
  for (auto _ : state) {
    auto svd = la::ComputeTruncatedSvd(m, rows / 3);
    benchmark::DoNotOptimize(svd);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * cols));
}
BENCHMARK(BM_SvdTruncated)->Arg(16)->Arg(32)->Arg(64);

void BM_WikitextParse(benchmark::State& state) {
  const std::string source =
      "{{Infobox film\n| directed by = [[Bernardo Bertolucci]]\n"
      "| starring = {{ubl|[[John Lone]]|[[Joan Chen]]|[[Peter O'Toole]]}}\n"
      "| release date = november 18 1987\n| running time = 160 minutes\n"
      "| country = [[Italy]]\n| budget = US$ 23000000\n}}\n"
      "'''The Last Emperor''' is a film.<ref>citation</ref>\n"
      "[[category:film]]\n[[pt:O Último Imperador]]\n";
  wiki::WikitextParser parser;
  for (auto _ : state) {
    auto article = parser.ParseArticle("The Last Emperor", "en", source);
    benchmark::DoNotOptimize(article);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_WikitextParse);

void BM_StringSimilarity(benchmark::State& state) {
  const std::string a = "elenco original";
  const std::string b = "original cast listing";
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::LevenshteinSimilarity(a, b));
    benchmark::DoNotOptimize(text::JaroWinklerSimilarity(a, b));
    benchmark::DoNotOptimize(text::TrigramSimilarity(a, b));
  }
}
BENCHMARK(BM_StringSimilarity);

void BM_EndToEndAlign(benchmark::State& state) {
  const auto& gc = SharedCorpus();
  match::MatchPipeline pipeline(&gc.corpus);
  auto data = pipeline.BuildPair("pt", "filme", "en", "film");
  if (!data.ok()) {
    state.SkipWithError("no pair data");
    return;
  }
  match::AttributeAligner aligner{match::MatcherConfig{}};
  for (auto _ : state) {
    auto result = aligner.Align(*data);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EndToEndAlign);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(11));
    auto g = generator.Generate();
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_CorpusGeneration);

// The section payloads of a Paper(0.1) snapshot of both pairs, synced,
// encoded in memory as build-snapshot and sync write them.
struct SnapshotSections {
  std::string corpus;
  std::string dictionary;
  std::string sync_report;
  wiki::Corpus decoded;  // the corpus section decoded (finalized)
  std::map<store::LanguagePair, match::PipelineResult> pipelines;
  match::TranslationDictionary translations;
};

const SnapshotSections& PaperSections() {
  static const SnapshotSections* sections = [] {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(0.1));
    auto gc = generator.Generate().ValueOrDie();
    store::Snapshot snapshot;
    snapshot.corpus = std::move(gc.corpus);
    match::MatchPipeline pipeline(&snapshot.corpus);
    for (const char* lang : {"pt", "vi"}) {
      snapshot.pipelines.emplace(
          store::LanguagePair(lang, "en"),
          pipeline.Run(lang, "en", match::PipelineOptions{}).ValueOrDie());
    }
    sync::SyncEngine engine(&snapshot.corpus, &pipeline.dictionary(), "en");
    auto* out = new SnapshotSections;
    util::BinaryWriter corpus;
    wiki::EncodeCorpus(snapshot.corpus, &corpus);
    out->corpus = corpus.TakeBuffer();
    util::BinaryWriter dictionary;
    match::EncodeDictionary(pipeline.dictionary(), &dictionary);
    out->dictionary = dictionary.TakeBuffer();
    util::BinaryWriter sync_report;
    sync::EncodeSyncReport(
        engine.Run(sync::SyncEngine::ScopesFromPipelines(snapshot.pipelines)),
        &sync_report);
    out->sync_report = sync_report.TakeBuffer();
    out->decoded = std::move(snapshot.corpus);
    out->pipelines = std::move(snapshot.pipelines);
    out->translations = pipeline.dictionary();
    return out;
  }();
  return *sections;
}

// One section through the snapshot reader's decode step.
void DecodeSection(benchmark::State& state, store::SectionKind kind,
                   const std::string& payload) {
  for (auto _ : state) {
    store::Snapshot snapshot;
    auto status = store::DecodeSnapshotSection(kind, payload, &snapshot);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
    benchmark::DoNotOptimize(snapshot);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}

// Article decode, AddArticle and Finalize together.
void BM_SnapshotDecodeCorpus(benchmark::State& state) {
  DecodeSection(state, store::SectionKind::kCorpus, PaperSections().corpus);
}
BENCHMARK(BM_SnapshotDecodeCorpus)->Unit(benchmark::kMillisecond);

void BM_SnapshotDecodeDictionary(benchmark::State& state) {
  DecodeSection(state, store::SectionKind::kDictionary,
                PaperSections().dictionary);
}
BENCHMARK(BM_SnapshotDecodeDictionary)->Unit(benchmark::kMillisecond);

void BM_SnapshotDecodeSyncReport(benchmark::State& state) {
  DecodeSection(state, store::SectionKind::kSyncReport,
                PaperSections().sync_report);
}
BENCHMARK(BM_SnapshotDecodeSyncReport)->Unit(benchmark::kMillisecond);

// The corpus decode's AddArticle share: the title and language indexes.
void BM_CorpusAddArticles(benchmark::State& state) {
  const wiki::Corpus& decoded = PaperSections().decoded;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<wiki::Article> articles;
    articles.reserve(decoded.size());
    for (wiki::ArticleId id = 0; id < decoded.size(); ++id) {
      articles.push_back(decoded.Get(id));
    }
    auto corpus = std::make_unique<wiki::Corpus>();
    state.ResumeTiming();
    for (wiki::Article& article : articles) {
      auto id = corpus->AddArticle(std::move(article));
      benchmark::DoNotOptimize(id);
    }
    benchmark::ClobberMemory();
    state.PauseTiming();
    corpus.reset();
    articles.clear();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CorpusAddArticles)->Unit(benchmark::kMillisecond);

// The corpus decode's Finalize share. The decoded corpus already carries
// its entity types and symmetric links, so, as after a decode, Finalize
// only looks every link up and rebuilds the type index.
void BM_CorpusFinalize(benchmark::State& state) {
  wiki::Corpus corpus = PaperSections().decoded;
  for (auto _ : state) {
    state.PauseTiming();
    // Replacing an article with itself un-finalizes the corpus.
    if (!corpus.ReplaceArticle(0, corpus.Get(0)).ok()) {
      state.SkipWithError("replace failed");
    }
    state.ResumeTiming();
    corpus.Finalize();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CorpusFinalize)->Unit(benchmark::kMillisecond);

// The translator's lookup: the en correspondents of one pt attribute,
// cycling over every pt attribute of every pt:en type alignment.
void BM_MatchSetCorrespondentsOf(benchmark::State& state) {
  const auto& result =
      PaperSections().pipelines.at(store::LanguagePair("pt", "en"));
  std::vector<std::pair<const eval::MatchSet*, eval::AttrKey>> lookups;
  for (const auto& tr : result.per_type) {
    for (const auto& cluster : tr.alignment.matches.Clusters()) {
      for (const auto& key : cluster) {
        if (key.language == "pt") {
          lookups.emplace_back(&tr.alignment.matches, key);
        }
      }
    }
  }
  if (lookups.empty()) {
    state.SkipWithError("no pt attributes");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [matches, key] = lookups[i];
    benchmark::DoNotOptimize(matches->CorrespondentsOf(key, "en"));
    if (++i == lookups.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MatchSetCorrespondentsOf);

// Equality queries as serve_tail sends them: `type_a(attr="cell value")`
// over the pt cells of every pt:en type alignment, translated to en up
// front. The loop times only the evaluation over the en columns, cycling
// over 2,000 of them.
struct TranslatedQueries {
  std::unique_ptr<query::QueryEvaluator> evaluator;
  std::vector<query::CQuery> queries;
};

const TranslatedQueries& PaperQueries() {
  static const TranslatedQueries* queries = [] {
    const SnapshotSections& sections = PaperSections();
    const wiki::Corpus& corpus = sections.decoded;
    const auto& result =
        sections.pipelines.at(store::LanguagePair("pt", "en"));
    std::map<std::string, const eval::MatchSet*> per_type;
    for (const auto& tr : result.per_type) {
      per_type.emplace(tr.type_b, &tr.alignment.matches);
    }
    query::QueryTranslator translator("pt", "en", result.type_matches,
                                      per_type, &sections.translations);
    std::vector<query::CQuery> translated;
    for (const auto& tr : result.per_type) {
      for (wiki::ArticleId id : corpus.ArticlesOfType("pt", tr.type_a)) {
        for (const auto& [name, value] : corpus.Get(id).infobox->attributes) {
          query::Constraint c;
          c.attributes = {name};
          c.value = text::NormalizeValue(value.text);
          if (c.value.empty()) continue;
          auto q = translator.Translate(
              query::CQuery{{query::TypeQuery{tr.type_a, {c}}}});
          if (q.ok() && !q->parts[0].constraints.empty()) {
            translated.push_back(std::move(q).ValueOrDie());
          }
        }
      }
    }
    auto* out = new TranslatedQueries;
    out->evaluator = std::make_unique<query::QueryEvaluator>(&corpus, "en");
    util::Rng rng(29);
    for (size_t i = 0; i < 2000 && !translated.empty(); ++i) {
      out->queries.push_back(translated[rng.NextBounded(translated.size())]);
    }
    return out;
  }();
  return *queries;
}

void BM_QueryEvaluatorEquality(benchmark::State& state) {
  const TranslatedQueries& fixture = PaperQueries();
  if (fixture.queries.empty()) {
    state.SkipWithError("no translated queries");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.evaluator->Run(fixture.queries[i]));
    if (++i == fixture.queries.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryEvaluatorEquality);

}  // namespace

BENCHMARK_MAIN();
