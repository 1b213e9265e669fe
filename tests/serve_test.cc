// Tests for the serving subsystem: the sharded LRU cache, MatchService
// request handling (including the acceptance criterion that a served
// translated c-query equals the one-shot translate+evaluate path and that
// a repeated request hits the LRU cache), and the line protocol loop.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "match/pipeline.h"
#include "query/evaluator.h"
#include "query/translator.h"
#include "serve/lru_cache.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "snapshot_bytes.h"
#include "store/snapshot.h"
#include "synth/generator.h"

namespace wikimatch {
namespace serve {
namespace {

constexpr char kQuery[] = "filme(receita > 1000000, elenco=?)";

// One corpus + pipeline + snapshot file shared by the suite.
struct Fixture {
  synth::GeneratedCorpus gc;
  match::PipelineResult result;
  match::TranslationDictionary dictionary;
  std::string snapshot_path;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny());
    f->gc = std::move(generator.Generate()).ValueOrDie();
    match::MatchPipeline pipeline(&f->gc.corpus);
    f->result = std::move(pipeline.Run("pt", "en")).ValueOrDie();
    f->dictionary = pipeline.dictionary();
    // ctest runs each TEST as its own process; a per-pid path keeps those
    // processes from truncating each other's snapshot mid-load.
    f->snapshot_path = ::testing::TempDir() + "/serve_test." +
                       std::to_string(::getpid()) + ".snap";
    store::Snapshot snapshot;
    snapshot.corpus = f->gc.corpus;
    snapshot.dictionary = f->dictionary;
    snapshot.pipelines.emplace(store::LanguagePair("pt", "en"), f->result);
    auto status = store::WriteSnapshotFile(snapshot, f->snapshot_path);
    if (!status.ok()) {
      ADD_FAILURE() << status.ToString();
    }
    return f;
  }();
  return *fixture;
}

// The current one-shot CLI path: run the matcher, translate, evaluate.
std::vector<std::pair<std::string, std::vector<std::string>>>
OneShotAnswers(const std::string& query_text) {
  const Fixture& f = GetFixture();
  std::map<std::string, const eval::MatchSet*> per_type;
  for (const auto& tr : f.result.per_type) {
    per_type.emplace(tr.type_b, &tr.alignment.matches);
  }
  query::QueryTranslator translator("pt", "en", f.result.type_matches,
                                    per_type, &f.dictionary);
  auto parsed = query::ParseCQuery(query_text);
  EXPECT_TRUE(parsed.ok());
  auto translated = translator.Translate(*parsed);
  EXPECT_TRUE(translated.ok());
  query::QueryEvaluator evaluator(&f.gc.corpus, "en");
  auto answers = evaluator.Run(*translated);
  EXPECT_TRUE(answers.ok());
  std::vector<std::pair<std::string, std::vector<std::string>>> out;
  for (const auto& answer : *answers) {
    out.emplace_back(f.gc.corpus.Get(answer.article).title,
                     answer.projections);
  }
  return out;
}

// ----------------------------------------------------------------- lru cache

TEST(LruCacheTest, HitMissPromoteEvict) {
  ShardedLruCache cache(/*capacity=*/2, /*num_shards=*/1);
  std::string value;
  EXPECT_FALSE(cache.Get("a", &value));
  cache.Put("a", "1");
  cache.Put("b", "2");
  ASSERT_TRUE(cache.Get("a", &value));
  EXPECT_EQ(value, "1");
  // "b" is now least-recently-used; inserting "c" evicts it.
  cache.Put("c", "3");
  EXPECT_FALSE(cache.Get("b", &value));
  EXPECT_TRUE(cache.Get("a", &value));
  EXPECT_TRUE(cache.Get("c", &value));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  ShardedLruCache cache(0, 4);
  cache.Put("a", "1");
  std::string value;
  EXPECT_FALSE(cache.Get("a", &value));
}

TEST(LruCacheTest, ConcurrentMixedLoad) {
  ShardedLruCache cache(256, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < 500; ++i) {
        std::string key = "k" + std::to_string((i * 7 + t) % 64);
        std::string value;
        if (!cache.Get(key, &value)) cache.Put(key, key + "!");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 500u);
  EXPECT_LE(stats.entries, 256u);
}

// -------------------------------------------------------------- match service

TEST(ServeTest, LoadRejectsMissingSnapshot) {
  auto service = MatchService::Load("/nonexistent/path.snap");
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), util::StatusCode::kIoError);
}

TEST(ServeTest, AttributeTranslationLookup) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // "film" is the hub-side type of the Tiny corpus; its alignment must
  // carry at least one pt -> en correspondence discovered by the matcher.
  auto alignments = (*service)->ListAlignments("pt", "en", "film");
  ASSERT_TRUE(alignments.ok()) << alignments.status().ToString();
  ASSERT_FALSE(alignments->empty());
  // Take a pt attribute from the pipeline's own MatchSet and ask the
  // service for its correspondents.
  const auto* tr = GetFixture().result.FindByTypeB("film");
  ASSERT_NE(tr, nullptr);
  auto pairs = tr->alignment.matches.CrossLanguagePairs("pt", "en");
  ASSERT_FALSE(pairs.empty());
  const auto& [pt_attr, en_attr] = pairs.front();
  auto correspondents = (*service)->TranslateAttribute(
      "pt", "en", "film", "pt", pt_attr.name);
  ASSERT_TRUE(correspondents.ok()) << correspondents.status().ToString();
  bool found = false;
  for (const auto& c : *correspondents) {
    if (c == "en:" + en_attr.name) found = true;
  }
  EXPECT_TRUE(found) << "expected en:" << en_attr.name;
  // Unknown pair and unknown type are clean errors.
  EXPECT_FALSE((*service)->TranslateAttribute("vi", "en", "film", "vi",
                                              "x").ok());
  EXPECT_FALSE((*service)->TranslateAttribute("pt", "en", "nope", "pt",
                                              "x").ok());
}

TEST(ServeTest, TranslatedQueryMatchesOneShotPath) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto served = (*service)->EvaluateTranslatedQuery("pt", "en", kQuery);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  auto expected = OneShotAnswers(kQuery);
  ASSERT_EQ(served->answers.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(served->answers[i].title, expected[i].first) << "answer " << i;
    EXPECT_EQ(served->answers[i].projections, expected[i].second)
        << "answer " << i;
  }
  EXPECT_GT(served->constraints_translated, 0u);
}

TEST(ServeTest, SecondIdenticalRequestIsACacheHit) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  std::string request = std::string("query pt:en ") + kQuery;
  std::string first = (*service)->Handle(request);
  ASSERT_EQ(first.compare(0, 3, "ok "), 0) << first;
  std::string second = (*service)->Handle(request);
  EXPECT_EQ(first, second);
  ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServeTest, ErrorsAreCountedNotCached) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  std::string response = (*service)->Handle("query vi:en filme(x=?)");
  EXPECT_EQ(response.compare(0, 3, "err"), 0) << response;
  (*service)->Handle("bogus request");
  ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.cache.entries, 0u);
}

TEST(ServeTest, ConcurrentHandleIsSafeAndConsistent) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  const std::vector<std::string> requests = {
      std::string("query pt:en ") + kQuery,
      "alignments pt:en film",
      "types pt:en",
      "attr pt:en film en starring",
  };
  std::vector<std::string> baselines;
  for (const auto& request : requests) {
    baselines.push_back((*service)->Handle(request));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 50; ++i) {
        size_t pick = (i + t) % requests.size();
        if ((*service)->Handle(requests[pick]) != baselines[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.requests, 4u + 8u * 50u);
}

// ------------------------------------------------------------ mmap startup

std::string PerPidTempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "." + name;
}

void CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
}

// The fixture snapshot as an in-memory Snapshot.
store::Snapshot FixtureSnapshot() {
  const Fixture& f = GetFixture();
  store::Snapshot snapshot;
  snapshot.corpus = f.gc.corpus;
  snapshot.dictionary = f.dictionary;
  snapshot.pipelines.emplace(store::LanguagePair("pt", "en"), f.result);
  return snapshot;
}

// Writes the fixture snapshot in the layout earlier writers produced (pad
// and directory sections plus an uncounted footer).
std::string WriteDirectoryLayoutSnapshot(const std::string& name) {
  std::string path = PerPidTempPath(name);
  testing_snapshot::WriteBytes(
      path, testing_snapshot::WithDirectoryLayout(
                testing_snapshot::ReadBytes(GetFixture().snapshot_path)));
  return path;
}

// Requests covering every data verb the fixture can answer.
std::vector<std::string> DataRequests() {
  return {
      "pairs",
      "types pt:en",
      "alignments pt:en film",
      "attr pt:en film en starring",
      std::string("query pt:en ") + kQuery,
      "sync-status",
  };
}

TEST(ServeTest, MmapLoadDefersTheCoreUntilFirstDataRequest) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_FALSE((*service)->CoreLoaded());
  EXPECT_EQ((*service)->CorpusSize(), 0u);  // documented: 0 while deferred
  // Meta verbs (and unknown-verb errors) answer without forcing a decode.
  EXPECT_EQ((*service)->Handle("health").compare(0, 3, "ok "), 0);
  EXPECT_EQ((*service)->Handle("version").compare(0, 3, "ok "), 0);
  EXPECT_EQ((*service)->Handle("generation").compare(0, 3, "ok "), 0);
  (*service)->Handle("bogus request");
  EXPECT_FALSE((*service)->CoreLoaded());
  // The first data request materializes the core, exactly once.
  std::string types = (*service)->Handle("types pt:en");
  EXPECT_EQ(types.compare(0, 3, "ok "), 0) << types;
  EXPECT_TRUE((*service)->CoreLoaded());
  EXPECT_GT((*service)->CorpusSize(), 0u);
}

TEST(ServeTest, DirectoryLayoutSnapshotServesIdentically) {
  std::string old_layout = WriteDirectoryLayoutSnapshot("directory.snap");
  auto service = MatchService::Load(GetFixture().snapshot_path);
  auto old_service = MatchService::Load(old_layout);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(old_service.ok()) << old_service.status().ToString();
  EXPECT_FALSE((*service)->CoreLoaded());
  EXPECT_FALSE((*old_service)->CoreLoaded());
  for (const auto& request : DataRequests()) {
    EXPECT_EQ((*service)->Handle(request), (*old_service)->Handle(request))
        << request;
  }
  std::remove(old_layout.c_str());
}

TEST(ServeTest, LiveServiceSurvivesInPlaceRewrites) {
  // `wikimatch sync` and `apply-delta` may rewrite the very file a server
  // has mapped. The writer renames a new file over the path, so the
  // server keeps the pages it mapped and answers from them — before its
  // core is built, after, and after a reload.
  std::string path = PerPidTempPath("rewrite.snap");
  const store::Snapshot a = FixtureSnapshot();
  store::Snapshot b = FixtureSnapshot();
  b.pipelines.clear();  // answers differ from a's on every pair verb
  b.meta.generation = 1;
  auto expected_a = MatchService::Create(FixtureSnapshot());
  auto expected_b = MatchService::Create(b);
  auto answers_match = [&](MatchService* service, MatchService* expected) {
    for (const auto& request : DataRequests()) {
      EXPECT_EQ(service->Handle(request), expected->Handle(request))
          << request;
    }
  };

  ASSERT_TRUE(store::WriteSnapshotFile(a, path).ok());
  auto service = MatchService::Load(path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(store::WriteSnapshotFile(b, path).ok());  // core not built
  answers_match(service->get(), expected_a.get());
  EXPECT_TRUE((*service)->CoreLoaded());
  ASSERT_TRUE(store::WriteSnapshotFile(a, path).ok());  // core built
  ASSERT_TRUE(store::WriteSnapshotFile(b, path).ok());
  answers_match(service->get(), expected_a.get());

  std::string reloaded = (*service)->Handle("reload");
  ASSERT_EQ(reloaded.compare(0, 3, "ok "), 0) << reloaded;
  EXPECT_EQ((*service)->Generation(), 1u);
  ASSERT_TRUE(store::WriteSnapshotFile(a, path).ok());
  answers_match(service->get(), expected_b.get());
  std::remove(path.c_str());
}

TEST(ServeTest, UnlinkedSnapshotStillAnswersItsFirstRequest) {
  // A private copy so this test can delete its own file.
  std::string path = PerPidTempPath("unlink_serve.snap");
  CopyFile(GetFixture().snapshot_path, path);
  auto service = MatchService::Load(path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_FALSE((*service)->CoreLoaded());
  ASSERT_EQ(std::remove(path.c_str()), 0);
  // The generation pins the mapping, and the mapping holds the pages: the
  // deferred decode still sees every byte of the unlinked file.
  std::string response = (*service)->Handle("alignments pt:en film");
  EXPECT_EQ(response.compare(0, 3, "ok "), 0) << response;
  EXPECT_TRUE((*service)->CoreLoaded());
}

TEST(ServeTest, LazyDecodeFailureIsStickyUntilReloadReplacesIt) {
  // Corrupt one corpus payload byte but leave the directory intact: the
  // O(1) Load() cannot see the damage, so it must surface at the first
  // core-needing request, stick, and clear when a good file is reloaded.
  std::string path = PerPidTempPath("corrupt_serve.snap");
  {
    std::ifstream in(GetFixture().snapshot_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 34u);
    bytes[33] = static_cast<char>(bytes[33] ^ 0x5A);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto service = MatchService::Load(path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->Handle("health").compare(0, 3, "ok "), 0);
  std::string first = (*service)->Handle("pairs");
  EXPECT_EQ(first.compare(0, 3, "err"), 0) << first;
  EXPECT_NE(first.find("CRC"), std::string::npos) << first;
  EXPECT_EQ((*service)->Handle("pairs"), first);  // sticky
  EXPECT_FALSE((*service)->CoreLoaded());
  // Repair the file and hot-swap it in; the sticky error must clear.
  CopyFile(GetFixture().snapshot_path, path);
  std::string reloaded = (*service)->Handle("reload");
  EXPECT_EQ(reloaded.compare(0, 3, "ok "), 0) << reloaded;
  EXPECT_TRUE((*service)->CoreLoaded());
  EXPECT_EQ((*service)->Handle("pairs").compare(0, 3, "ok "), 0);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- hot reload

// Writes a copy of the fixture snapshot stamped as generation `gen` with
// `gen` delta records — same matching payload, distinguishable meta.
std::string WriteGenerationSnapshot(uint64_t gen, const std::string& name) {
  const Fixture& f = GetFixture();
  store::Snapshot snapshot;
  snapshot.corpus = f.gc.corpus;
  snapshot.dictionary = f.dictionary;
  snapshot.pipelines.emplace(store::LanguagePair("pt", "en"), f.result);
  snapshot.meta.generation = gen;
  for (uint64_t g = 1; g <= gen; ++g) {
    snapshot.meta.history.push_back({g, 1, 0, 0, 1, 0});
  }
  std::string path =
      ::testing::TempDir() + "/" + std::to_string(::getpid()) + "." + name;
  auto status = store::WriteSnapshotFile(snapshot, path);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return path;
}

TEST(ServeTest, StatsCarryGenerationAndUptime) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.generation, 0u);
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_GT(stats.loaded_unix, 0);
  EXPECT_GE(stats.uptime_s, 0.0);
  EXPECT_GE(stats.generation_age_s, 0.0);
  std::string response = (*service)->Handle("stats");
  ASSERT_EQ(response.compare(0, 3, "ok "), 0) << response;
  EXPECT_NE(response.find(" generation=0 "), std::string::npos) << response;
  EXPECT_NE(response.find(" loads=1 "), std::string::npos) << response;
  EXPECT_NE(response.find(" loaded_unix="), std::string::npos) << response;
  EXPECT_NE(response.find(" uptime_s="), std::string::npos) << response;
  EXPECT_NE(response.find(" generation_age_s="), std::string::npos)
      << response;
}

TEST(ServeTest, GenerationVerbDescribesTheServedSnapshot) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  std::string response = (*service)->Handle("generation");
  ASSERT_EQ(response.compare(0, 5, "ok 1\n"), 0) << response;
  EXPECT_NE(response.find("generation=0 "), std::string::npos) << response;
  EXPECT_NE(response.find(" load_seq=1 "), std::string::npos) << response;
  EXPECT_NE(response.find(" deltas_applied=0"), std::string::npos)
      << response;
}

TEST(ServeTest, HealthVerbIsOneCheapLine) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  std::string response = (*service)->Handle("health");
  ASSERT_EQ(response.compare(0, 5, "ok 1\n"), 0) << response;
  EXPECT_NE(response.find("healthy generation=0 "), std::string::npos)
      << response;
  EXPECT_NE(response.find(" load_seq=1 "), std::string::npos) << response;
  EXPECT_NE(response.find(" uptime_s="), std::string::npos) << response;
  // A liveness probe must not pollute the result cache.
  EXPECT_EQ((*service)->Stats().cache.entries, 0u);
}

TEST(ServeTest, VersionVerbReportsServerAndFormatVersions) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  std::string response = (*service)->Handle("version");
  ASSERT_EQ(response.compare(0, 5, "ok 1\n"), 0) << response;
  std::string expected = std::string("wikimatch ") + kServerVersion +
                         " protocol=" + std::to_string(kProtocolVersion) +
                         " snapshot_format=" +
                         std::to_string(store::kSnapshotVersion);
  EXPECT_NE(response.find(expected), std::string::npos) << response;
  // Both verbs are documented in help.
  std::string help = (*service)->Handle("help");
  EXPECT_NE(help.find("health"), std::string::npos) << help;
  EXPECT_NE(help.find("version"), std::string::npos) << help;
}

TEST(ServeTest, ReloadSwapsGenerationAndInvalidatesCache) {
  std::string next = WriteGenerationSnapshot(1, "serve_reload_g1.snap");
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->Generation(), 0u);

  const std::string request = "alignments pt:en film";
  std::string before = (*service)->Handle(request);
  (*service)->Handle(request);
  EXPECT_EQ((*service)->Stats().cache.hits, 1u);

  std::string response = (*service)->Handle("reload " + next);
  ASSERT_EQ(response.compare(0, 3, "ok "), 0) << response;
  EXPECT_NE(response.find("reloaded generation=1 load_seq=2"),
            std::string::npos)
      << response;
  EXPECT_EQ((*service)->Generation(), 1u);
  EXPECT_EQ((*service)->Stats().loads, 2u);

  // Same request: the generation-tagged key makes it a miss, not a stale
  // hit — and the answer (same matching payload) is unchanged. Misses are
  // 3, not 2: the uncacheable reload line itself probed the cache once.
  std::string after = (*service)->Handle(request);
  EXPECT_EQ(after, before);
  EXPECT_EQ((*service)->Stats().cache.hits, 1u);
  EXPECT_EQ((*service)->Stats().cache.misses, 3u);

  // The generation verb reflects the delta manifest.
  std::string gen_line = (*service)->Handle("generation");
  EXPECT_NE(gen_line.find("generation=1 "), std::string::npos) << gen_line;
  EXPECT_NE(gen_line.find(" deltas_applied=1"), std::string::npos)
      << gen_line;
  std::remove(next.c_str());
}

TEST(ServeTest, FailedReloadKeepsServingThePreviousGeneration) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  std::string baseline = (*service)->Handle("alignments pt:en film");
  auto status = (*service)->Reload("/nonexistent/next.snap");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ((*service)->Generation(), 0u);
  EXPECT_EQ((*service)->Stats().loads, 1u);
  EXPECT_EQ((*service)->Handle("alignments pt:en film"), baseline);
  // The reload verb reports the failure as a protocol error.
  std::string response = (*service)->Handle("reload /nonexistent/next.snap");
  EXPECT_EQ(response.compare(0, 3, "err"), 0) << response;
}

TEST(ServeTest, ReloadWithoutPathReusesTheLastSource) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  EXPECT_TRUE((*service)->Reload().ok());  // re-reads snapshot_path
  EXPECT_EQ((*service)->Stats().loads, 2u);

  // A service built from memory has no source to re-read.
  store::Snapshot snapshot;
  snapshot.corpus = GetFixture().gc.corpus;
  snapshot.dictionary = GetFixture().dictionary;
  snapshot.pipelines.emplace(store::LanguagePair("pt", "en"),
                             GetFixture().result);
  auto in_memory = MatchService::Create(std::move(snapshot));
  auto status = in_memory->Reload();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

// Satellite of the reload design: readers must never observe a torn or
// dropped response while a writer hot-swaps generations under them. Runs
// under TSan via tools/check.sh.
TEST(ServeTest, ConcurrentReloadDropsNoRequests) {
  std::string next = WriteGenerationSnapshot(1, "serve_stress_g1.snap");
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  const std::vector<std::string> requests = {
      std::string("query pt:en ") + kQuery,
      "alignments pt:en film",
      "types pt:en",
      "attr pt:en film en starring",
  };
  std::vector<std::string> baselines;
  for (const auto& request : requests) {
    baselines.push_back((*service)->Handle(request));
    ASSERT_EQ(baselines.back().compare(0, 3, "ok "), 0) << baselines.back();
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failed_reloads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&, t]() {
      for (int i = 0; i < 60; ++i) {
        size_t pick = (i + t) % requests.size();
        // Both snapshots carry the same matching payload, so every
        // response must be byte-identical to the baseline no matter which
        // generation serves it.
        if ((*service)->Handle(requests[pick]) != baselines[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&]() {
    for (int i = 0; i < 14; ++i) {
      const std::string& path =
          i % 2 == 0 ? next : GetFixture().snapshot_path;
      if (!(*service)->Reload(path).ok()) failed_reloads.fetch_add(1);
    }
  });
  for (auto& reader : readers) reader.join();
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failed_reloads.load(), 0);
  EXPECT_EQ((*service)->Stats().loads, 15u);
  ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.requests, 4u + 6u * 60u);
  EXPECT_EQ(stats.errors, 0u);
  std::remove(next.c_str());
}

// Like WriteGenerationSnapshot, but with a persisted sync report (section
// kind 5) computed over the fixture's pipeline alignments.
std::string WriteSyncSnapshot(uint64_t gen, const std::string& name) {
  const Fixture& f = GetFixture();
  store::Snapshot snapshot;
  snapshot.corpus = f.gc.corpus;
  snapshot.dictionary = f.dictionary;
  snapshot.pipelines.emplace(store::LanguagePair("pt", "en"), f.result);
  snapshot.meta.generation = gen;
  sync::SyncEngine engine(&snapshot.corpus, &snapshot.dictionary, "en");
  auto scopes = sync::SyncEngine::ScopesFromPipelines(snapshot.pipelines);
  snapshot.sync_report = engine.Run(scopes);
  snapshot.sync_report.generation = gen;
  EXPECT_FALSE(snapshot.sync_report.cells.empty());
  std::string path =
      ::testing::TempDir() + "/" + std::to_string(::getpid()) + "." + name;
  auto status = store::WriteSnapshotFile(snapshot, path);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return path;
}

TEST(ServeTest, SyncVerbsAnswerFromThePersistedReport) {
  std::string path = WriteSyncSnapshot(0, "serve_sync_g0.snap");
  auto service = MatchService::Load(path);
  ASSERT_TRUE(service.ok());
  std::string status_resp = (*service)->Handle("sync-status");
  ASSERT_EQ(status_resp.compare(0, 3, "ok "), 0) << status_resp;
  EXPECT_NE(status_resp.find("sync_generation=0 cells="), std::string::npos)
      << status_resp;

  const std::string& type_b = GetFixture().result.per_type.front().type_b;
  const std::string request = "sync pt:en \"" + type_b + "\"";
  std::string response = (*service)->Handle(request);
  ASSERT_EQ(response.compare(0, 3, "ok "), 0) << response;
  EXPECT_NE(response.find("sync_generation=0"), std::string::npos)
      << response;
  EXPECT_NE(response.find("cell\t"), std::string::npos) << response;
  // Both sync verbs are cacheable; the repeats must hit.
  (*service)->Handle(request);
  (*service)->Handle("sync-status");
  EXPECT_EQ((*service)->Stats().cache.hits, 2u);
  std::remove(path.c_str());
}

// Generation pinning for the sync verbs: a request races reloads between
// two snapshots whose reports differ only in generation, and every
// response must be byte-identical to one of the two baselines — never
// torn, mixed, or dropped. Runs under TSan via tools/check.sh.
TEST(ServeTest, GenerationPinnedSyncSurvivesHotReload) {
  std::string g0 = WriteSyncSnapshot(0, "serve_sync_race_g0.snap");
  std::string g1 = WriteSyncSnapshot(1, "serve_sync_race_g1.snap");
  auto service = MatchService::Load(g0);
  ASSERT_TRUE(service.ok());
  const std::string& type_b = GetFixture().result.per_type.front().type_b;
  const std::vector<std::string> requests = {
      "sync-status",
      "sync pt:en \"" + type_b + "\"",
  };
  std::vector<std::vector<std::string>> allowed(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    allowed[i].push_back((*service)->Handle(requests[i]));
    ASSERT_EQ(allowed[i][0].compare(0, 3, "ok "), 0) << allowed[i][0];
  }
  ASSERT_TRUE((*service)->Reload(g1).ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    allowed[i].push_back((*service)->Handle(requests[i]));
    EXPECT_NE(allowed[i][0], allowed[i][1]);  // generations distinguishable
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failed_reloads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&, t]() {
      for (int i = 0; i < 60; ++i) {
        size_t pick = (i + t) % requests.size();
        std::string response = (*service)->Handle(requests[pick]);
        if (response != allowed[pick][0] && response != allowed[pick][1]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&]() {
    for (int i = 0; i < 14; ++i) {
      if (!(*service)->Reload(i % 2 == 0 ? g0 : g1).ok()) {
        failed_reloads.fetch_add(1);
      }
    }
  });
  for (auto& reader : readers) reader.join();
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failed_reloads.load(), 0);
  EXPECT_EQ((*service)->Stats().errors, 0u);
  std::remove(g0.c_str());
  std::remove(g1.c_str());
}

// ----------------------------------------------------------------- protocol

TEST(ServeTest, ServeLoopSpeaksTheLineProtocol) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  std::istringstream in(
      "pairs\n"
      "\n"
      "alignments pt:en film\n"
      "nonsense\n"
      "quit\n"
      "pairs\n");  // after quit: never served
  std::ostringstream out;
  size_t served = ServeLoop(in, out, service->get());
  EXPECT_EQ(served, 3u);
  std::string text = out.str();
  EXPECT_EQ(text.compare(0, 10, "ok 1\npt:en"), 0) << text;
  EXPECT_NE(text.find("err unknown request 'nonsense'"), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace wikimatch
