// Tests for the incremental ingest subsystem (src/ingest/): delta-batch
// validation, corpus application, and the core guarantee — Apply() leaves
// the matcher in a state bit-identical (serialized bytes) to running
// MatchPipeline from scratch on the post-delta corpus, across multiple
// language pairs, while reusing the alignment of every unit the delta
// cannot influence.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "delta_oracle.h"
#include "ingest/delta.h"
#include "ingest/incremental_matcher.h"
#include "match/pipeline.h"
#include "match/serialize.h"
#include "store/snapshot.h"
#include "synth/delta.h"
#include "synth/generator.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "wiki/serialize.h"
#include "wiki/wikitext_parser.h"

namespace wikimatch {
namespace ingest {
namespace {

using store::LanguagePair;

std::string ResultBytes(const match::PipelineResult& result) {
  util::BinaryWriter w;
  match::EncodePipelineResult(result, &w);
  return w.TakeBuffer();
}

std::string CorpusBytes(const wiki::Corpus& corpus) {
  util::BinaryWriter w;
  wiki::EncodeCorpus(corpus, &w);
  return w.TakeBuffer();
}

std::string DictionaryBytes(const match::TranslationDictionary& dict) {
  util::BinaryWriter w;
  match::EncodeDictionary(dict, &w);
  return w.TakeBuffer();
}

// Runs MatchPipeline from scratch over `corpus` for every pair — the
// ground truth every incremental result is compared against.
std::map<LanguagePair, match::PipelineResult> FullRun(
    wiki::Corpus* corpus, const std::vector<LanguagePair>& pairs,
    const match::PipelineOptions& options = {}) {
  match::MatchPipeline pipeline(corpus);
  std::map<LanguagePair, match::PipelineResult> results;
  for (const auto& [lang_a, lang_b] : pairs) {
    auto result = pipeline.Run(lang_a, lang_b, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    results.emplace(LanguagePair(lang_a, lang_b),
                    std::move(result).ValueOrDie());
  }
  return results;
}

// Asserts the incremental state equals a from-scratch rebuild on the
// post-delta corpus, byte for byte.
void ExpectMatchesFullRebuild(const IncrementalMatcher& matcher,
                              const wiki::Corpus& base,
                              const DeltaBatch& batch,
                              const std::vector<LanguagePair>& pairs) {
  auto post = delta_oracle::ApplyDeltaToCorpus(base, batch);
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  auto fresh = FullRun(&*post, pairs);
  EXPECT_EQ(CorpusBytes(matcher.corpus()), CorpusBytes(*post));
  {
    match::MatchPipeline pipeline(&*post);
    EXPECT_EQ(DictionaryBytes(matcher.dictionary()),
              DictionaryBytes(pipeline.dictionary()));
  }
  ASSERT_EQ(matcher.results().size(), pairs.size());
  for (const auto& pair : pairs) {
    SCOPED_TRACE(pair.first + ":" + pair.second);
    ASSERT_EQ(matcher.results().count(pair), 1u);
    EXPECT_EQ(ResultBytes(matcher.results().at(pair)),
              ResultBytes(fresh.at(pair)));
  }
}

// A generated corpus matched from scratch for two language pairs. The
// default Tiny() corpus (film: pt+vi duals, actor: pt only) has three
// units total, so a film-only delta must reuse the actor unit.
struct SynthFixture {
  wiki::Corpus corpus;
  std::map<LanguagePair, match::PipelineResult> results;
  std::vector<LanguagePair> pairs{{"pt", "en"}, {"vi", "en"}};
};

SynthFixture MakeSynthFixture(
    const synth::GeneratorOptions& options = synth::GeneratorOptions::Tiny()) {
  SynthFixture f;
  synth::CorpusGenerator generator(options);
  auto gc = generator.Generate();
  EXPECT_TRUE(gc.ok()) << gc.status().ToString();
  f.corpus = std::move(gc->corpus);
  f.results = FullRun(&f.corpus, f.pairs);
  return f;
}

// ---------------------------------------------------------------- validation

TEST(DeltaBatchTest, ValidationRejectsMalformedBatches) {
  wiki::Corpus corpus;
  wiki::WikitextParser parser;
  ASSERT_TRUE(
      corpus
          .AddArticle(parser.ParseArticle("Existing", "en", "body")
                          .ValueOrDie())
          .ok());
  corpus.Finalize();
  const wiki::Article existing = corpus.Get(0);
  wiki::Article missing = existing;
  missing.title = "missing";

  DeltaBatch add_existing;
  add_existing.added.push_back(existing);
  EXPECT_EQ(ValidateDeltaBatch(corpus, add_existing).code(),
            util::StatusCode::kInvalidArgument);

  DeltaBatch update_missing;
  update_missing.updated.push_back(missing);
  EXPECT_EQ(ValidateDeltaBatch(corpus, update_missing).code(),
            util::StatusCode::kInvalidArgument);

  DeltaBatch remove_missing;
  remove_missing.removed.emplace_back("en", "missing");
  EXPECT_EQ(ValidateDeltaBatch(corpus, remove_missing).code(),
            util::StatusCode::kInvalidArgument);

  DeltaBatch twice;
  twice.updated.push_back(existing);
  twice.removed.emplace_back(existing.language, existing.title);
  auto status = ValidateDeltaBatch(corpus, twice);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("twice"), std::string::npos);

  DeltaBatch empty_title;
  empty_title.added.push_back(wiki::Article{});
  EXPECT_EQ(ValidateDeltaBatch(corpus, empty_title).code(),
            util::StatusCode::kInvalidArgument);

  DeltaBatch ok;
  ok.updated.push_back(existing);
  EXPECT_TRUE(ValidateDeltaBatch(corpus, ok).ok());
}

// The in-place fast path must land on exactly the corpus the copying path
// builds.
TEST(DeltaInPlaceTest, ApplyMatchesCopy) {
  SynthFixture f = MakeSynthFixture();
  synth::DeltaSpec spec;
  spec.types_b = {"film"};
  spec.attribute_renames = 1;
  spec.value_edits = 2;
  spec.new_articles = 2;
  spec.removals = 2;
  auto batch = synth::MakeDeltaBatch(f.corpus, spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_FALSE(batch->empty());

  auto copied = delta_oracle::ApplyDeltaToCorpus(f.corpus, *batch);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();

  DeltaChanges changes;
  ASSERT_TRUE(ApplyDeltaInPlace(&f.corpus, *batch, &changes).ok());
  EXPECT_EQ(CorpusBytes(f.corpus), CorpusBytes(*copied));
}

TEST(IncrementalMatcherTest, FailedApplyLeavesStateUntouched) {
  SynthFixture f = MakeSynthFixture();
  const std::string before_corpus = CorpusBytes(f.corpus);
  const std::string before_pt = ResultBytes(f.results.at({"pt", "en"}));
  IncrementalMatcher matcher(f.corpus, f.results);

  DeltaBatch bad;
  bad.removed.emplace_back("en", "definitely not an article");
  auto stats = matcher.Apply(bad);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(matcher.generation(), 0u);
  EXPECT_TRUE(matcher.history().empty());
  EXPECT_EQ(CorpusBytes(matcher.corpus()), before_corpus);
  EXPECT_EQ(ResultBytes(matcher.results().at({"pt", "en"})), before_pt);
}

// --------------------------------------------------------------- equivalence

// The tentpole guarantee: a mixed batch (template-wide renames, value
// edits, new dual articles, deletions) applied incrementally produces a
// state bit-identical to a from-scratch rebuild, across two language
// pairs, while the untouched pair's units are reused, not recomputed.
TEST(IncrementalMatcherTest, MixedDeltaMatchesFullRebuildAcrossTwoPairs) {
  SynthFixture f = MakeSynthFixture();
  synth::DeltaSpec spec;
  spec.lang_a = "pt";
  spec.lang_b = "en";
  spec.types_b = {"film"};
  spec.attribute_renames = 1;
  spec.value_edits = 3;
  spec.new_articles = 2;
  spec.removals = 1;
  auto batch = synth::MakeDeltaBatch(f.corpus, spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_FALSE(batch->empty());

  IncrementalMatcher matcher(f.corpus, f.results);
  auto stats = matcher.Apply(*batch);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->generation, 1u);
  EXPECT_EQ(matcher.generation(), 1u);
  // pt:en film is dirtied; pt:en actor and (usually) vi:en film are not.
  EXPECT_EQ(stats->units_total, 3u);
  EXPECT_GE(stats->units_recomputed, 1u);
  EXPECT_GE(stats->units_reused, 1u);
  EXPECT_GT(stats->articles_changed, 0u);

  ExpectMatchesFullRebuild(matcher, f.corpus, *batch, f.pairs);
}

TEST(IncrementalMatcherTest, ViSideDeltaMatchesFullRebuild) {
  SynthFixture f = MakeSynthFixture();
  synth::DeltaSpec spec;
  spec.lang_a = "vi";
  spec.lang_b = "en";
  spec.types_b = {"film"};
  spec.attribute_renames = 1;
  spec.value_edits = 2;
  auto batch = synth::MakeDeltaBatch(f.corpus, spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  IncrementalMatcher matcher(f.corpus, f.results);
  auto stats = matcher.Apply(*batch);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // A vi-side rename cannot dirty pt:en actor (pt-only membership).
  EXPECT_GE(stats->units_reused, 1u);
  ExpectMatchesFullRebuild(matcher, f.corpus, *batch, f.pairs);
}

// The same guarantee at Paper scale, where many more units exist: a batch
// confined to the pt-only "writer" type (a rename, value edits, new duals
// and a removal) recomputes its unit and reuses others across both pairs.
TEST(IncrementalMatcherTest, PaperScaleWriterDeltaMatchesFullRebuild) {
  SynthFixture f = MakeSynthFixture(synth::GeneratorOptions::Paper(0.02));
  synth::DeltaSpec spec;
  spec.lang_a = "pt";
  spec.lang_b = "en";
  spec.types_b = {"writer"};
  spec.attribute_renames = 1;
  spec.value_edits = 4;
  spec.new_articles = 2;
  spec.removals = 1;
  auto batch = synth::MakeDeltaBatch(f.corpus, spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_FALSE(batch->empty());

  IncrementalMatcher matcher(f.corpus, f.results);
  auto stats = matcher.Apply(*batch);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->units_reused, 0u);
  EXPECT_GE(stats->units_recomputed, 1u);
  ExpectMatchesFullRebuild(matcher, f.corpus, *batch, f.pairs);
}

TEST(IncrementalMatcherTest, IdenticalUpdateReusesEveryUnit) {
  SynthFixture f = MakeSynthFixture();
  DeltaBatch batch;
  batch.updated.push_back(f.corpus.Get(0));  // byte-identical "edit"

  IncrementalMatcher matcher(f.corpus, f.results);
  auto stats = matcher.Apply(batch);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->articles_changed, 0u);
  EXPECT_EQ(stats->units_recomputed, 0u);
  EXPECT_EQ(stats->units_reused, 3u);
  EXPECT_EQ(matcher.generation(), 1u);  // a no-op batch is still a batch
  ExpectMatchesFullRebuild(matcher, f.corpus, batch, f.pairs);
}

TEST(IncrementalMatcherTest, UnrelatedArticleReusesEveryUnit) {
  SynthFixture f = MakeSynthFixture();
  wiki::WikitextParser parser;
  DeltaBatch batch;
  batch.added.push_back(
      parser.ParseArticle("Plain Prose Page", "en", "No infobox here.")
          .ValueOrDie());

  IncrementalMatcher matcher(f.corpus, f.results);
  auto stats = matcher.Apply(batch);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->articles_changed, 1u);
  EXPECT_EQ(stats->units_recomputed, 0u);
  EXPECT_EQ(stats->units_reused, 3u);
  ExpectMatchesFullRebuild(matcher, f.corpus, batch, f.pairs);
}

// Removing a support article (no infobox, so no type is touched) that unit
// members link to must dirty the unit through its title footprint: link
// canonicalization resolves through that article's record. A first batch
// that reuses the unit comes before it, so the footprint consulted is the
// one the previous Apply carried over, not one built from scratch.
TEST(IncrementalMatcherTest, SupportArticleRemovalDirtiesReferencingUnit) {
  wiki::Corpus corpus;
  wiki::WikitextParser parser;
  auto add = [&](const std::string& title, const std::string& lang,
                 const std::string& text) {
    auto article = parser.ParseArticle(title, lang, text);
    ASSERT_TRUE(article.ok()) << article.status().ToString();
    ASSERT_TRUE(corpus.AddArticle(std::move(article).ValueOrDie()).ok());
  };
  add("Director One", "en", "'''Director One'''\n[[pt:Diretor Um]]\n");
  add("Diretor Um", "pt", "'''Diretor Um'''\n[[en:Director One]]\n");
  add("Film A", "en",
      "{{Infobox film\n| directed by = [[Director One]]\n"
      "| running time = 100 minutes\n}}\n[[pt:Filme A]]\n");
  add("Filme A", "pt",
      "{{Info filme\n| direção = [[Diretor Um]]\n"
      "| duração = 100 minutos\n}}\n[[en:Film A]]\n");
  add("Film B", "en",
      "{{Infobox film\n| directed by = [[Director One]]\n"
      "| running time = 90 minutes\n}}\n[[pt:Filme B]]\n");
  add("Filme B", "pt",
      "{{Info filme\n| direção = [[Diretor Um]]\n"
      "| duração = 90 minutos\n}}\n[[en:Film B]]\n");
  corpus.Finalize();

  match::PipelineOptions options;
  options.type_min_votes = 1;
  std::vector<LanguagePair> pairs{{"pt", "en"}};
  auto results = FullRun(&corpus, pairs, options);
  ASSERT_EQ(results.at({"pt", "en"}).per_type.size(), 1u);

  DeltaBatch unrelated;
  auto page = parser.ParseArticle("Unrelated Page", "en", "plain text\n");
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  unrelated.added.push_back(std::move(page).ValueOrDie());
  DeltaBatch batch;
  batch.removed.emplace_back("en", "director one");

  IncrementalMatcher matcher(corpus, results, options);
  auto first = matcher.Apply(unrelated);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->units_reused, 1u);
  auto stats = matcher.Apply(batch);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->units_recomputed, 1u);
  EXPECT_EQ(stats->units_reused, 0u);

  auto between = delta_oracle::ApplyDeltaToCorpus(corpus, unrelated);
  ASSERT_TRUE(between.ok());
  auto post = delta_oracle::ApplyDeltaToCorpus(*between, batch);
  ASSERT_TRUE(post.ok());
  auto fresh = FullRun(&*post, pairs, options);
  EXPECT_EQ(ResultBytes(matcher.results().at({"pt", "en"})),
            ResultBytes(fresh.at({"pt", "en"})));
}

// ------------------------------------------------------------ snapshot round

// FromSnapshot must restore enough state (including the per-unit AlignStats
// appended to the pipeline payload) that a reused unit after reload is
// byte-identical to one that never left memory — and generations keep
// counting across the round trip.
TEST(IncrementalMatcherTest, FromSnapshotApplyMatchesFreshRebuild) {
  SynthFixture f = MakeSynthFixture();
  IncrementalMatcher first(f.corpus, f.results);

  synth::DeltaSpec spec1;
  spec1.types_b = {"film"};
  spec1.value_edits = 2;
  auto batch1 = synth::MakeDeltaBatch(f.corpus, spec1);
  ASSERT_TRUE(batch1.ok());
  ASSERT_TRUE(first.Apply(*batch1).ok());
  EXPECT_EQ(first.generation(), 1u);

  std::string path = ::testing::TempDir() + "/ingest_roundtrip.snap";
  ASSERT_TRUE(store::WriteSnapshotFile(first.ToSnapshot(), path).ok());
  auto snapshot = store::ReadSnapshotFile(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  std::remove(path.c_str());
  EXPECT_EQ(snapshot->meta.generation, 1u);
  ASSERT_EQ(snapshot->meta.history.size(), 1u);

  // The applied snapshot carries the options fingerprint stamped by
  // Apply(); defaults here match the defaults `first` ran with.
  ASSERT_TRUE(snapshot->meta.options.has_value());
  auto second_or =
      IncrementalMatcher::FromSnapshot(std::move(snapshot).ValueOrDie());
  ASSERT_TRUE(second_or.ok()) << second_or.status().ToString();
  IncrementalMatcher second = std::move(second_or).ValueOrDie();
  EXPECT_EQ(second.generation(), 1u);

  const wiki::Corpus base_after_1 = second.corpus();
  synth::DeltaSpec spec2;
  spec2.seed = 99;
  spec2.types_b = {"film"};
  spec2.attribute_renames = 1;
  spec2.removals = 1;
  auto batch2 = synth::MakeDeltaBatch(base_after_1, spec2);
  ASSERT_TRUE(batch2.ok());
  auto stats = second.Apply(*batch2);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(second.generation(), 2u);
  ASSERT_EQ(second.history().size(), 2u);
  EXPECT_EQ(second.history()[0].generation, 1u);
  EXPECT_EQ(second.history()[1].generation, 2u);
  // The snapshot-loaded reuse path must still be bit-identical — this is
  // what the persisted per-unit stats buy.
  EXPECT_GE(stats->units_reused, 1u);
  ExpectMatchesFullRebuild(second, base_after_1, *batch2, f.pairs);
}

// FromSnapshot adopts the snapshot's dictionary instead of rebuilding it.
// That is only sound because every written snapshot carries exactly
// Build(corpus): check it after the first load and after each of three
// chained Apply + write + read rounds, next to the full-rebuild check.
TEST(IncrementalMatcherTest, AdoptedDictionaryEqualsARebuildAcrossRounds) {
  SynthFixture f = MakeSynthFixture();
  const std::string path = ::testing::TempDir() + "/ingest_adopted.snap";
  auto reload = [&](const IncrementalMatcher& from)
      -> util::Result<IncrementalMatcher> {
    WIKIMATCH_RETURN_NOT_OK(store::WriteSnapshotFile(from.ToSnapshot(), path));
    auto snapshot = store::ReadSnapshotFile(path);
    std::remove(path.c_str());
    if (!snapshot.ok()) return snapshot.status();
    return IncrementalMatcher::FromSnapshot(std::move(snapshot).ValueOrDie());
  };
  auto expect_rebuilt_dictionary = [](const IncrementalMatcher& matcher) {
    match::TranslationDictionary rebuilt;
    rebuilt.Build(matcher.corpus());
    EXPECT_GT(rebuilt.size(), 0u);
    EXPECT_EQ(DictionaryBytes(matcher.dictionary()), DictionaryBytes(rebuilt));
  };

  auto loaded = reload(IncrementalMatcher(f.corpus, f.results));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::optional<IncrementalMatcher> matcher;
  matcher.emplace(std::move(loaded).ValueOrDie());
  expect_rebuilt_dictionary(*matcher);
  for (uint64_t round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const wiki::Corpus before = matcher->corpus();
    synth::DeltaSpec spec;
    spec.seed = 60 + round;
    spec.lang_a = round == 1 ? "vi" : "pt";
    spec.value_edits = 2;
    spec.new_articles = 1;
    spec.removals = round == 2 ? 1 : 0;
    spec.attribute_renames = round == 0 ? 1 : 0;
    auto batch = synth::MakeDeltaBatch(before, spec);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    auto stats = matcher->Apply(*batch);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    auto next = reload(*matcher);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    matcher.emplace(std::move(next).ValueOrDie());
    EXPECT_EQ(matcher->generation(), round + 1);
    expect_rebuilt_dictionary(*matcher);
    ExpectMatchesFullRebuild(*matcher, before, *batch, f.pairs);
  }
}

// Apply() stamps the snapshot meta with the options fingerprint; a later
// FromSnapshot with different result-affecting options must fail loudly
// (silent unit reuse under other thresholds would corrupt results), while
// execution-only switches and fingerprint-less legacy snapshots stay
// accepted.
TEST(IncrementalMatcherTest, FromSnapshotRejectsMismatchedOptions) {
  SynthFixture f = MakeSynthFixture();
  IncrementalMatcher first(f.corpus, f.results);
  synth::DeltaSpec spec;
  spec.types_b = {"film"};
  spec.value_edits = 1;
  auto batch = synth::MakeDeltaBatch(f.corpus, spec);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(first.Apply(*batch).ok());
  ASSERT_TRUE(first.ToSnapshot().meta.options.has_value());

  match::PipelineOptions different;
  different.matcher.t_sim = 0.99;
  auto rejected = IncrementalMatcher::FromSnapshot(first.ToSnapshot(),
                                                   different);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);
  // The message names both fingerprints so the operator can diff them.
  EXPECT_NE(rejected.status().ToString().find("t_sim"), std::string::npos);

  // The thread count changes wall clock, never bytes, so it is not part of
  // the fingerprint.
  match::PipelineOptions threads_only;
  threads_only.num_threads = 7;
  EXPECT_TRUE(IncrementalMatcher::FromSnapshot(first.ToSnapshot(),
                                               threads_only)
                  .ok());

  // Snapshots from pre-fingerprint writers trust the caller, as before.
  store::Snapshot legacy = first.ToSnapshot();
  legacy.meta.options.reset();
  EXPECT_TRUE(IncrementalMatcher::FromSnapshot(std::move(legacy), different)
                  .ok());
}

// FromSnapshot plus a chain of Apply calls, with the footprints rebuilt
// and recomputed on the shared pool, must not depend on how many threads
// take part: the pipeline bytes and the reuse counts after every batch
// are the same at 1 and 4 threads, and every batch's state equals a full
// rebuild of that batch. tools/check.sh also runs this suite at pool
// sizes 1 and 4.
TEST(IncrementalMatcherTest, ChainedApplyIsInvariantAcrossThreadCounts) {
  synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(0.02));
  auto gc = generator.Generate();
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  const std::vector<LanguagePair> pairs{{"pt", "en"}, {"vi", "en"}};
  wiki::Corpus base = std::move(gc->corpus);
  auto results = FullRun(&base, pairs);

  struct Step {
    std::vector<std::string> result_bytes;
    size_t units_reused = 0;
    size_t units_recomputed = 0;
  };
  auto run = [&](size_t threads) {
    std::vector<Step> steps;
    store::Snapshot snapshot;
    snapshot.corpus = base;
    match::MatchPipeline pipeline(&snapshot.corpus);
    snapshot.dictionary = pipeline.dictionary();
    snapshot.pipelines = results;
    match::PipelineOptions options;
    options.num_threads = threads;
    auto matcher_or =
        IncrementalMatcher::FromSnapshot(std::move(snapshot), options);
    EXPECT_TRUE(matcher_or.ok()) << matcher_or.status().ToString();
    if (!matcher_or.ok()) return steps;
    IncrementalMatcher matcher = std::move(matcher_or).ValueOrDie();
    for (uint64_t k = 0; k < 3; ++k) {
      synth::DeltaSpec spec;
      spec.seed = 40 + k;
      spec.lang_a = k == 1 ? "vi" : "pt";
      spec.value_edits = 3;
      spec.new_articles = 1;
      spec.removals = k == 2 ? 1 : 0;
      const wiki::Corpus before = matcher.corpus();
      auto batch = synth::MakeDeltaBatch(before, spec);
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok()) return steps;
      auto stats = matcher.Apply(*batch);
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      if (!stats.ok()) return steps;
      // The only path where a unit or footprint reused in batch k is read
      // again in batch k+1 without a snapshot round trip in between.
      ExpectMatchesFullRebuild(matcher, before, *batch, pairs);
      Step step;
      for (const auto& pair : pairs) {
        step.result_bytes.push_back(ResultBytes(matcher.results().at(pair)));
      }
      step.units_reused = stats->units_reused;
      step.units_recomputed = stats->units_recomputed;
      steps.push_back(std::move(step));
    }
    return steps;
  };

  std::vector<Step> one = run(1);
  std::vector<Step> four = run(4);
  ASSERT_EQ(one.size(), 3u);
  ASSERT_EQ(four.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    SCOPED_TRACE("batch " + std::to_string(k));
    EXPECT_EQ(one[k].result_bytes, four[k].result_bytes);
    EXPECT_EQ(one[k].units_reused, four[k].units_reused);
    EXPECT_EQ(one[k].units_recomputed, four[k].units_recomputed);
    EXPECT_GT(one[k].units_recomputed, 0u);
  }
  // Some batch must also have reused a unit, or the footprints were
  // never consulted.
  EXPECT_GT(one[0].units_reused + one[1].units_reused + one[2].units_reused,
            0u);
}

// ----------------------------------------------------------- hostile batches

// A batch mutated at the article level, and whether it carries an element
// validation must reject.
struct HostileBatch {
  DeltaBatch batch;
  bool invalid = false;
};

// Builds one hostile batch against `corpus` from `rng`: one to four of
// duplicate-free valid mutations (removals, updates that drop their
// infobox, change their type, link to themselves or turn into redirects,
// redirect chains and cycles, 64 KiB+ titles, links to articles the same
// batch removes, backlinks induced on support pages, redirects whose
// target changes or goes), and in one batch of three one element
// validation must reject (a key named twice across the lists, an empty
// title, a missing update or removal target, an added key the corpus
// holds).
HostileBatch MakeHostileBatch(const wiki::Corpus& corpus, int round,
                              util::Rng* rng) {
  HostileBatch out;
  DeltaBatch& batch = out.batch;
  std::set<std::pair<std::string, std::string>> named;
  // A live article of `kind` the batch does not name yet, claimed for it.
  enum Kind { kAny, kInfobox, kSupport, kRedirect };
  auto claim = [&](Kind kind) -> const wiki::Article* {
    for (int tries = 0; tries < 256; ++tries) {
      const wiki::Article& a = corpus.Get(
          static_cast<wiki::ArticleId>(rng->NextBounded(corpus.size())));
      const bool fits =
          kind == kAny || (kind == kInfobox && a.infobox.has_value()) ||
          (kind == kSupport && !a.infobox.has_value() && !a.IsRedirect()) ||
          (kind == kRedirect && a.IsRedirect());
      if (fits && named.insert({a.language, a.title}).second) return &a;
    }
    return nullptr;
  };
  // Redirects that infobox values link to: a change at their target
  // re-routes link canonicalization in units the batch does not name.
  std::vector<wiki::ArticleId> linked_redirects;
  for (wiki::ArticleId id = 0; id < corpus.size(); ++id) {
    const wiki::Article& a = corpus.Get(id);
    if (!a.infobox.has_value()) continue;
    for (const auto& [name, value] : a.infobox->attributes) {
      for (const auto& link : value.links) {
        wiki::ArticleId target = corpus.FindExactTitle(a.language, link.target);
        if (target != wiki::kInvalidArticle &&
            corpus.Get(target).IsRedirect()) {
          linked_redirects.push_back(target);
        }
      }
    }
  }
  int next_title = 0;
  auto fresh_title = [&](size_t length) {
    std::string title = "hostile " + std::to_string(round) + "." +
                        std::to_string(next_title++);
    if (title.size() < length) title.append(length - title.size(), 'x');
    return title;
  };
  auto link_to = [](wiki::Article* a, const std::string& target) {
    if (!a->infobox.has_value() || a->infobox->attributes.empty()) return;
    a->infobox->attributes.front().second.links.push_back({target, target});
  };
  auto remove = [&](const wiki::Article& a) {
    batch.removed.emplace_back(a.language, a.title);
  };

  const uint64_t ops = 1 + rng->NextBounded(4);
  for (uint64_t k = 0; k < ops; ++k) {
    switch (rng->NextBounded(11)) {
      case 0: {  // plain removal
        if (const wiki::Article* a = claim(kAny)) remove(*a);
        break;
      }
      case 1: {  // an update drops its infobox
        const wiki::Article* a = claim(kInfobox);
        if (a == nullptr) break;
        wiki::Article post = *a;
        post.infobox.reset();
        if (rng->NextBounded(2) == 0) post.entity_type.clear();
        batch.updated.push_back(std::move(post));
        break;
      }
      case 2: {  // an update changes its type (sometimes left to Finalize)
        const wiki::Article* a = claim(kInfobox);
        if (a == nullptr) break;
        wiki::Article post = *a;
        std::vector<std::string> types = corpus.TypesIn(a->language);
        types.push_back("hostile type");
        const std::string& type = types[rng->NextBounded(types.size())];
        post.infobox->template_type = type;
        post.entity_type = rng->NextBounded(2) == 0 ? type : "";
        batch.updated.push_back(std::move(post));
        break;
      }
      case 3: {  // self links: a value link and a same-language cross link
        const wiki::Article* a = claim(kInfobox);
        if (a == nullptr) break;
        wiki::Article post = *a;
        link_to(&post, post.title);
        post.cross_language_links[post.language] = post.title;
        batch.updated.push_back(std::move(post));
        break;
      }
      case 4: {  // a new dual copy links to an article the batch removes
        const wiki::Article* gone = claim(kAny);
        const wiki::Article* model = claim(kInfobox);
        if (gone == nullptr || model == nullptr) break;
        remove(*gone);
        wiki::Article added = *model;
        added.title = fresh_title(0);
        link_to(&added, gone->title);
        added.cross_language_links[gone->language] = gone->title;
        batch.added.push_back(std::move(added));
        break;
      }
      case 5: {  // a redirect chain, entered from an updated infobox
        const wiki::Article* target = claim(kAny);
        const wiki::Article* from = claim(kInfobox);
        if (target == nullptr || from == nullptr) break;
        wiki::Article r1, r2;
        r1.language = r2.language = target->language;
        r1.title = fresh_title(0);
        r2.title = fresh_title(0);
        r1.redirect_to = r2.title;
        r2.redirect_to = target->title;
        wiki::Article post = *from;
        link_to(&post, r1.title);
        if (post.language != target->language) {
          post.cross_language_links[target->language] = r1.title;
        }
        batch.added.push_back(std::move(r1));
        batch.added.push_back(std::move(r2));
        batch.updated.push_back(std::move(post));
        break;
      }
      case 6: {  // a redirect cycle and an update that redirects to itself
        const wiki::Article* a = claim(kInfobox);
        if (a == nullptr) break;
        wiki::Article r1, r2;
        r1.language = r2.language = a->language;
        r1.title = fresh_title(0);
        r2.title = fresh_title(0);
        r1.redirect_to = r2.title;
        r2.redirect_to = r1.title;
        wiki::Article post = *a;
        link_to(&post, r1.title);
        post.redirect_to = post.title;
        batch.added.push_back(std::move(r1));
        batch.added.push_back(std::move(r2));
        batch.updated.push_back(std::move(post));
        break;
      }
      case 7: {  // a 64 KiB+ title on a new article cross-linked to a live one
        const wiki::Article* model = claim(kInfobox);
        if (model == nullptr) break;
        wiki::Article added = *model;
        added.title = fresh_title(65536 + rng->NextBounded(1024));
        added.cross_language_links.clear();
        for (const auto& [lang, title] : model->cross_language_links) {
          added.cross_language_links[lang] = title;
        }
        batch.added.push_back(std::move(added));
        break;
      }
      case 8: {  // a new plain page induces a backlink on a support page
        const wiki::Article* support = claim(kSupport);
        if (support == nullptr) break;
        wiki::Article added;
        added.language = support->language == "en" ? "pt" : "en";
        added.title = fresh_title(0);
        added.cross_language_links[support->language] = support->title;
        batch.added.push_back(std::move(added));
        break;
      }
      case 9: {  // a linked redirect's target loses its cross links or goes
        if (linked_redirects.empty()) break;
        const wiki::Article* redirect = &corpus.Get(
            linked_redirects[rng->NextBounded(linked_redirects.size())]);
        const wiki::ArticleId id =
            corpus.FindExactTitle(redirect->language, redirect->redirect_to);
        if (id == wiki::kInvalidArticle) break;
        const wiki::Article& target = corpus.Get(id);
        if (!named.insert({target.language, target.title}).second) break;
        if (rng->NextBounded(2) == 0) {
          remove(target);
        } else {
          wiki::Article post = target;
          post.cross_language_links.clear();
          batch.updated.push_back(std::move(post));
        }
        break;
      }
      case 10: {  // a support page becomes, or a redirect changes, a redirect
        const wiki::Article* a =
            claim(rng->NextBounded(2) == 0 ? kSupport : kRedirect);
        if (a == nullptr) break;
        const std::vector<wiki::ArticleId>& same_language =
            corpus.ArticlesInLanguage(a->language);
        wiki::Article post = *a;
        post.redirect_to =
            corpus.Get(same_language[rng->NextBounded(same_language.size())])
                .title;
        batch.updated.push_back(std::move(post));
        break;
      }
    }
  }

  if (rng->NextBounded(3) != 0) return out;
  out.invalid = true;
  switch (rng->NextBounded(6)) {
    case 0: {  // one key in two lists
      const wiki::Article* a = claim(kAny);
      if (a == nullptr) break;
      batch.updated.push_back(*a);
      remove(*a);
      break;
    }
    case 1: {  // one new key added twice
      wiki::Article added;
      added.language = "pt";
      added.title = fresh_title(0);
      batch.added.push_back(added);
      batch.added.push_back(added);
      break;
    }
    case 2: {  // an added article with an empty title
      wiki::Article added;
      added.language = "en";
      batch.added.push_back(added);
      break;
    }
    case 3: {  // an update of an empty, hence missing, title
      wiki::Article updated;
      updated.language = "en";
      batch.updated.push_back(updated);
      break;
    }
    case 4: {  // a removal of a missing 64 KiB title
      batch.removed.emplace_back("vi", fresh_title(65536));
      break;
    }
    case 5: {  // an added key the corpus already holds
      const wiki::Article* a = claim(kAny);
      if (a == nullptr) break;
      batch.added.push_back(*a);
      break;
    }
  }
  return out;
}

// Hostile batches, mutated at the article level from a fixed seed (the
// XML under a batch is fuzzed by DumpFuzzTest and DumpOracleTest), are
// applied in a chain. Each one is either rejected with InvalidArgument,
// leaving the corpus, dictionary and result bytes as they were, or gives
// the bytes of a full rebuild of the corpus it was applied to. The pool
// loop takes up to four participants, so runs at pool sizes 1 and 4
// differ.
TEST(IncrementalMatcherTest, HostileBatchesAreRejectedOrMatchARebuild) {
  SynthFixture f = MakeSynthFixture();
  match::PipelineOptions options;
  options.num_threads = 4;
  IncrementalMatcher matcher(f.corpus, f.results, options);
  util::Rng rng(0x4057113);
  size_t rejected = 0;
  size_t accepted = 0;
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const wiki::Corpus before = matcher.corpus();
    const HostileBatch hostile = MakeHostileBatch(before, round, &rng);
    const std::string corpus_bytes = CorpusBytes(before);
    const std::string dictionary_bytes = DictionaryBytes(matcher.dictionary());
    std::vector<std::string> result_bytes;
    for (const auto& pair : f.pairs) {
      result_bytes.push_back(ResultBytes(matcher.results().at(pair)));
    }
    const uint64_t generation = matcher.generation();

    auto stats = matcher.Apply(hostile.batch);
    if (!stats.ok()) {
      ++rejected;
      EXPECT_TRUE(hostile.invalid) << stats.status().ToString();
      EXPECT_EQ(stats.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_EQ(matcher.generation(), generation);
      EXPECT_EQ(CorpusBytes(matcher.corpus()), corpus_bytes);
      EXPECT_EQ(DictionaryBytes(matcher.dictionary()), dictionary_bytes);
      for (size_t i = 0; i < f.pairs.size(); ++i) {
        EXPECT_EQ(ResultBytes(matcher.results().at(f.pairs[i])),
                  result_bytes[i]);
      }
      continue;
    }
    ++accepted;
    EXPECT_FALSE(hostile.invalid);
    EXPECT_EQ(matcher.generation(), generation + 1);
    ExpectMatchesFullRebuild(matcher, before, hostile.batch, f.pairs);
  }
  // Both outcomes must actually occur, or the seed tests nothing.
  EXPECT_GE(rejected, 4u);
  EXPECT_GE(accepted, 8u);
}

}  // namespace
}  // namespace ingest
}  // namespace wikimatch
