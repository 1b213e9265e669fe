// Performance micro-benchmarks (not in the paper): throughput of the
// substrates — SVD, wikitext parsing, similarity computation, the
// end-to-end aligner, and the per-section decode of a snapshot load —
// via google-benchmark.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "la/svd.h"
#include "match/aligner.h"
#include "match/pipeline.h"
#include "match/serialize.h"
#include "store/snapshot.h"
#include "sync/sync_engine.h"
#include "synth/generator.h"
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

}  // namespace

BENCHMARK_MAIN();
