// Tests for the cross-language value synchronization subsystem: report
// serialization, classification semantics on hand-built corpora (including
// one-to-many alignments), thread-count determinism, incremental re-sync
// byte-equivalence, and precision/recall against the generator-derived
// oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/match_set.h"
#include "ingest/delta.h"
#include "match/dictionary.h"
#include "resync_oracle.h"
#include "sync/evidence.h"
#include "synth/sync_oracle.h"
#include "sync/sync_engine.h"
#include "synth/delta.h"
#include "synth/generator.h"
#include "util/binary_io.h"
#include "wiki/corpus.h"
#include "wiki/wikitext_parser.h"

namespace wikimatch {
namespace sync {
namespace {

// ----------------------------------------------------------- serialization

std::string ReportBytes(const SyncReport& report) {
  util::BinaryWriter w;
  EncodeSyncReport(report, &w);
  return w.TakeBuffer();
}

SyncReport SampleReport() {
  SyncReport r;
  CellVerdict v;
  v.pair_lang = "pt";
  v.type_b = "film";
  v.pair_title = "filme alfa";
  v.hub_title = "alpha film";
  v.pair_attr = "elenco";
  v.hub_attr = "starring";
  v.cls = CellClass::kStale;
  v.score = 0.5;
  r.cells.push_back(v);
  v.pair_attr = "";
  v.hub_attr = "director";
  v.cls = CellClass::kMissing;
  v.score = 0.0;
  r.cells.push_back(v);
  PropagationUpdate u;
  u.source_lang = "en";
  u.target_lang = "pt";
  u.source_title = "alpha film";
  u.target_title = "filme alfa";
  u.source_attr = "starring";
  u.target_attr = "elenco";
  u.proposed_value = "[[john doe]], [[jane roe]]";
  u.evidence_score = 0.5;
  r.updates.push_back(u);
  r.generation = 7;
  return r;
}

TEST(SyncReportTest, EncodeDecodeRoundTrip) {
  SyncReport r = SampleReport();
  auto decoded = DecodeSyncReport(ReportBytes(r));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie(), r);
}

TEST(SyncReportTest, DecodeRejectsTruncationAndBadClass) {
  std::string bytes = ReportBytes(SampleReport());
  for (size_t cut : {size_t{1}, size_t{10}, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeSyncReport(bytes.substr(0, cut)).ok());
  }
  // Corrupt the first cell's class byte (after version + generation +
  // count + six strings) by scanning for its known value.
  std::string corrupt = bytes;
  size_t pos = corrupt.find(static_cast<char>(CellClass::kStale),
                            4 + 8 + 4);
  ASSERT_NE(pos, std::string::npos);
  corrupt[pos] = 9;
  // Either the class check or downstream framing must reject it.
  EXPECT_FALSE(DecodeSyncReport(corrupt).ok());
}

TEST(SyncReportTest, SummariesAggregateByLangAndType) {
  SyncReport r = SampleReport();
  auto sums = r.Summaries();
  ASSERT_EQ(sums.size(), 1u);
  const SyncCounts& c = sums.at({"pt", "film"});
  EXPECT_EQ(c.stale, 1u);
  EXPECT_EQ(c.missing, 1u);
  EXPECT_EQ(c.total(), 2u);
}

// ------------------------------------------------------ hand-built corpora

class HandCorpus {
 public:
  void Add(const std::string& lang, const std::string& title,
           const std::string& body) {
    auto parsed = parser_.ParseArticle(title, lang, body);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto id = corpus_.AddArticle(std::move(parsed).ValueOrDie());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  // A dual pair of reference articles so links resolve in both languages.
  void AddSupport(const std::string& title) {
    Add("en", title,
        "'''" + title + "''' is a reference article.\n[[pt:" + title + "]]\n");
    Add("pt", title,
        "'''" + title + "''' is a reference article.\n[[en:" + title + "]]\n");
  }
  wiki::Corpus& Finish() {
    corpus_.Finalize();
    dictionary_.Build(corpus_);
    return corpus_;
  }
  const match::TranslationDictionary& dictionary() const {
    return dictionary_;
  }

 private:
  wiki::WikitextParser parser_;
  wiki::Corpus corpus_;
  match::TranslationDictionary dictionary_;
};

TEST(SyncEngineTest, OneToManyEmitsSingleVerdictAndPrefersAgreement) {
  HandCorpus hc;
  hc.AddSupport("john doe");
  hc.AddSupport("jane roe");
  // "roteiro" aligns to BOTH "writer" and "screenplay"; one conflicts, one
  // agrees. The engine must emit exactly one verdict for the source cell —
  // in-sync against the agreeing correspondent, never a conflict row too.
  hc.Add("en", "alpha film",
         "{{Infobox film\n| writer = [[jane roe]]\n"
         "| screenplay = [[john doe]]\n}}\n\n[[pt:filme alfa]]\n");
  hc.Add("pt", "filme alfa",
         "{{Info filme\n| roteiro = [[john doe]]\n}}\n\n[[en:alpha film]]\n");
  wiki::Corpus& corpus = hc.Finish();

  eval::MatchSet alignment;
  alignment.AddCluster({eval::AttrKey{"pt", "roteiro"},
                        eval::AttrKey{"en", "writer"},
                        eval::AttrKey{"en", "screenplay"}});
  SyncEngine engine(&corpus, &hc.dictionary(), "en");
  SyncReport report =
      engine.Run({SyncScope{"pt", "en", "filme", "film", &alignment}});

  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].pair_attr, "roteiro");
  EXPECT_EQ(report.cells[0].cls, CellClass::kInSync);
  EXPECT_EQ(report.cells[0].hub_attr, "screenplay");
  EXPECT_TRUE(report.updates.empty());
}

TEST(SyncEngineTest, MissingCellsReportedInBothDirectionsWithUpdates) {
  HandCorpus hc;
  hc.AddSupport("jane roe");
  hc.Add("en", "beta film",
         "{{Infobox film\n| director = [[jane roe]]\n}}\n\n"
         "[[pt:filme beta]]\n");
  hc.Add("pt", "filme beta",
         "{{Info filme\n| orcamento = US$ 5000000\n}}\n\n[[en:beta film]]\n");
  wiki::Corpus& corpus = hc.Finish();

  eval::MatchSet alignment;
  alignment.AddPair(eval::AttrKey{"pt", "orcamento"},
                    eval::AttrKey{"en", "budget"});
  alignment.AddPair(eval::AttrKey{"pt", "diretor"},
                    eval::AttrKey{"en", "director"});
  SyncEngine engine(&corpus, &hc.dictionary(), "en");
  SyncReport report =
      engine.Run({SyncScope{"pt", "en", "filme", "film", &alignment}});

  ASSERT_EQ(report.cells.size(), 2u);
  // Forward first (pair-side attribute present, hub missing).
  EXPECT_EQ(report.cells[0].pair_attr, "orcamento");
  EXPECT_EQ(report.cells[0].hub_attr, "");
  EXPECT_EQ(report.cells[0].cls, CellClass::kMissing);
  // Reverse (hub attribute with no pair-side counterpart).
  EXPECT_EQ(report.cells[1].pair_attr, "");
  EXPECT_EQ(report.cells[1].hub_attr, "director");
  EXPECT_EQ(report.cells[1].cls, CellClass::kMissing);

  ASSERT_EQ(report.updates.size(), 2u);
  EXPECT_EQ(report.updates[0].source_lang, "pt");
  EXPECT_EQ(report.updates[0].target_attr, "budget");
  EXPECT_NE(report.updates[0].proposed_value.find("5000000"),
            std::string::npos);
  EXPECT_EQ(report.updates[1].source_lang, "en");
  EXPECT_EQ(report.updates[1].target_attr, "diretor");
  EXPECT_NE(report.updates[1].proposed_value.find("jane roe"),
            std::string::npos);
}

TEST(SyncEngineTest, StaleAndConflictClassification) {
  HandCorpus hc;
  hc.AddSupport("john doe");
  hc.AddSupport("jane roe");
  hc.AddSupport("mary major");
  hc.Add("en", "gamma film",
         "{{Infobox film\n| starring = [[john doe]], [[jane roe]]\n"
         "| director = [[john doe]]\n}}\n\n[[pt:filme gama]]\n");
  hc.Add("pt", "filme gama",
         "{{Info filme\n| elenco = [[john doe]]\n"
         "| diretor = [[mary major]]\n}}\n\n[[en:gamma film]]\n");
  wiki::Corpus& corpus = hc.Finish();

  eval::MatchSet alignment;
  alignment.AddPair(eval::AttrKey{"pt", "elenco"},
                    eval::AttrKey{"en", "starring"});
  alignment.AddPair(eval::AttrKey{"pt", "diretor"},
                    eval::AttrKey{"en", "director"});
  SyncEngine engine(&corpus, &hc.dictionary(), "en");
  SyncReport report =
      engine.Run({SyncScope{"pt", "en", "filme", "film", &alignment}});

  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.cells[0].pair_attr, "elenco");
  EXPECT_EQ(report.cells[0].cls, CellClass::kStale);
  EXPECT_EQ(report.cells[1].pair_attr, "diretor");
  EXPECT_EQ(report.cells[1].cls, CellClass::kConflict);

  // The stale cell proposes the superset side's raw value; conflicts make
  // no proposal (neither side is evidently right).
  ASSERT_EQ(report.updates.size(), 1u);
  EXPECT_EQ(report.updates[0].source_lang, "en");
  EXPECT_EQ(report.updates[0].source_attr, "starring");
  EXPECT_EQ(report.updates[0].target_attr, "elenco");
  EXPECT_NE(report.updates[0].proposed_value.find("jane roe"),
            std::string::npos);
}

// --------------------------------------------------------- generated corpora

synth::GeneratedCorpus MustGenerate(synth::GeneratorOptions options) {
  synth::CorpusGenerator gen(std::move(options));
  auto result = gen.Generate();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(SyncEngineTest, ByteIdenticalAcrossThreadCounts) {
  synth::GeneratedCorpus gc = MustGenerate(synth::GeneratorOptions::Tiny());
  match::TranslationDictionary dict;
  dict.Build(gc.corpus);
  SyncEngine engine(&gc.corpus, &dict, gc.hub);
  std::vector<SyncScope> scopes = synth::SyncOracle::ScopesFromGroundTruth(gc);
  std::string baseline = ReportBytes(engine.Run(scopes, 1));
  EXPECT_FALSE(baseline.empty());
  for (size_t threads : {2u, 3u, 8u}) {
    EXPECT_EQ(ReportBytes(engine.Run(scopes, threads)), baseline)
        << "thread count " << threads;
  }
}

std::set<std::pair<std::string, std::string>> DirtyKeys(
    const ingest::DeltaBatch& batch) {
  std::set<std::pair<std::string, std::string>> dirty;
  for (const wiki::Article& a : batch.added) dirty.insert({a.language, a.title});
  for (const wiki::Article& a : batch.updated) {
    dirty.insert({a.language, a.title});
  }
  for (const auto& key : batch.removed) dirty.insert(key);
  return dirty;
}

// Each corpus gets a mixed rename/edit/add/remove batch; at Paper scale it
// dirties a small slice of the article pairs.
TEST(SyncEngineTest, ResyncByteIdenticalToFullRunAfterDelta) {
  struct Case {
    const char* name;
    synth::GeneratorOptions options;
    size_t value_edits;
  };
  for (const Case& c : {Case{"Tiny", synth::GeneratorOptions::Tiny(), 12},
                        Case{"Paper(0.02)",
                             synth::GeneratorOptions::Paper(0.02), 8}}) {
    SCOPED_TRACE(c.name);
    synth::GeneratedCorpus gc = MustGenerate(c.options);
    match::TranslationDictionary dict;
    dict.Build(gc.corpus);
    std::vector<SyncScope> scopes =
        synth::SyncOracle::ScopesFromGroundTruth(gc);
    SyncEngine engine(&gc.corpus, &dict, gc.hub);
    SyncReport before = engine.Run(scopes, 2);

    // No edits, nothing dirty: Resync must reproduce the previous report.
    EXPECT_EQ(ReportBytes(engine.Resync(scopes, before, {}, 2)),
              ReportBytes(before));

    synth::DeltaSpec spec;
    spec.lang_a = "pt";
    spec.lang_b = gc.hub;
    spec.attribute_renames = 1;
    spec.value_edits = c.value_edits;
    spec.new_articles = 3;
    spec.removals = 2;
    auto batch = synth::MakeDeltaBatch(gc.corpus, spec);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ingest::DeltaChanges changes;
    auto applied =
        ingest::ApplyDeltaInPlace(&gc.corpus, batch.ValueOrDie(), &changes);
    ASSERT_TRUE(applied.ok()) << applied.ToString();

    SyncReport full = engine.Run(scopes, 2);
    SyncReport incremental =
        engine.Resync(scopes, before, DirtyKeys(batch.ValueOrDie()), 2);
    EXPECT_EQ(ReportBytes(incremental), ReportBytes(full));
    // The delta actually changed something, so this equality is not
    // vacuous.
    EXPECT_NE(ReportBytes(full), ReportBytes(before));
  }
}

// Resync against the reference (tests/resync_oracle.h), byte for byte:
// three chained batches on Paper(0.02), each re-synced from the previous
// round's report with the batch's dirty keys, with no key dirty, with
// every key dirty, with a random third dirty, and from previous reports
// whose rows are shuffled (groups no longer contiguous) or partly dropped
// — at pool sizes 1 and 4.
TEST(SyncEngineTest, ResyncMatchesReferenceForAnyPreviousReport) {
  synth::GeneratedCorpus gc =
      MustGenerate(synth::GeneratorOptions::Paper(0.02));
  match::TranslationDictionary dict;
  dict.Build(gc.corpus);
  std::vector<SyncScope> scopes = synth::SyncOracle::ScopesFromGroundTruth(gc);
  SyncEngine engine(&gc.corpus, &dict, gc.hub);
  SyncReport previous = engine.Run(scopes, 4);
  ASSERT_FALSE(previous.updates.empty());
  std::mt19937 rng(2024);

  for (uint64_t round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    synth::DeltaSpec spec;
    spec.seed = 70 + round;
    spec.lang_a = round == 1 ? "vi" : "pt";
    spec.lang_b = gc.hub;
    spec.value_edits = 10;
    spec.new_articles = 2;
    spec.removals = 1;
    spec.attribute_renames = round == 2 ? 1 : 0;
    auto batch = synth::MakeDeltaBatch(gc.corpus, spec);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ingest::DeltaChanges changes;
    auto applied =
        ingest::ApplyDeltaInPlace(&gc.corpus, batch.ValueOrDie(), &changes);
    ASSERT_TRUE(applied.ok()) << applied.ToString();

    using Keys = std::set<std::pair<std::string, std::string>>;
    Keys all;
    for (const CellVerdict& v : previous.cells) {
      all.insert({v.pair_lang, v.pair_title});
      all.insert({gc.hub, v.hub_title});
    }
    Keys third;
    for (const auto& key : all) {
      if (rng() % 3 == 0) third.insert(key);
    }
    SyncReport shuffled = previous;
    std::shuffle(shuffled.cells.begin(), shuffled.cells.end(), rng);
    std::shuffle(shuffled.updates.begin(), shuffled.updates.end(), rng);
    SyncReport dropped = previous;
    std::erase_if(dropped.cells, [&](const CellVerdict&) {
      return rng() % 4 == 0;
    });
    std::erase_if(dropped.updates, [&](const PropagationUpdate&) {
      return rng() % 4 == 0;
    });

    const Keys batch_keys = DirtyKeys(batch.ValueOrDie());
    struct Input {
      const char* name;
      const SyncReport* previous;
      const Keys* dirty;
    };
    const Keys none;
    for (const Input& input : {Input{"batch", &previous, &batch_keys},
                               Input{"none dirty", &previous, &none},
                               Input{"all dirty", &previous, &all},
                               Input{"random third", &previous, &third},
                               Input{"shuffled", &shuffled, &batch_keys},
                               Input{"shuffled, none dirty", &shuffled, &none},
                               Input{"dropped rows", &dropped, &third}}) {
      SCOPED_TRACE(input.name);
      for (size_t threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(ReportBytes(engine.Resync(scopes, *input.previous,
                                            *input.dirty, threads)),
                  ReportBytes(resync_oracle::Resync(
                      gc.corpus, engine, gc.hub, scopes, *input.previous,
                      *input.dirty, threads)));
      }
    }
    previous = engine.Resync(scopes, previous, batch_keys, 4);
  }
}

TEST(SyncOracleTest, PrecisionAndRecallAgainstConceptModel) {
  synth::GeneratedCorpus gc =
      MustGenerate(synth::GeneratorOptions::Paper(0.02));
  match::TranslationDictionary dict;
  dict.Build(gc.corpus);
  SyncEngine engine(&gc.corpus, &dict, gc.hub);
  std::vector<SyncScope> scopes = synth::SyncOracle::ScopesFromGroundTruth(gc);
  SyncReport report = engine.Run(scopes, 4);

  synth::SyncOracle oracle(&gc);
  ASSERT_GT(oracle.num_labels(), 500u);
  synth::SyncScore score = oracle.Score(report);

  // Every scored class occurs in the corpus — the thresholds below are
  // meaningful for all four.
  for (const auto& [cls, s] : score.per_class) {
    EXPECT_GT(s.oracle_total, 0u) << CellClassName(cls);
    SCOPED_TRACE(CellClassName(cls));
    EXPECT_GT(s.engine_total, 0u);
  }
  double p = score.micro_precision();
  double r = score.micro_recall();
  // Print the per-class table (EXPERIMENTS.md quotes these figures).
  for (const auto& [cls, s] : score.per_class) {
    std::fprintf(stderr, "sync %-12s P=%.4f R=%.4f (engine=%llu oracle=%llu)\n",
                 CellClassName(cls), s.precision(), s.recall(),
                 static_cast<unsigned long long>(s.engine_total),
                 static_cast<unsigned long long>(s.oracle_total));
  }
  std::fprintf(stderr, "sync micro        P=%.4f R=%.4f (unverifiable: engine=%llu oracle=%llu)\n",
               p, r, static_cast<unsigned long long>(score.engine_unverifiable),
               static_cast<unsigned long long>(score.oracle_unverifiable));
  EXPECT_GE(p, 0.95);
  EXPECT_GE(r, 0.95);
}

}  // namespace
}  // namespace sync
}  // namespace wikimatch
