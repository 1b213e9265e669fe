// Tests for the serving subsystem: the sharded LRU cache, MatchService
// request handling (including the acceptance criterion that a served
// translated c-query equals the one-shot translate+evaluate path and that
// a repeated request hits the LRU cache), and the line protocol loop.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
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
#include "util/thread_pool.h"

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

// The payload lines of an "ok <n>" response; a failure for anything else.
std::vector<std::string> OkLines(const std::string& response) {
  EXPECT_EQ(response.compare(0, 3, "ok "), 0) << response;
  std::vector<std::string> lines;
  std::istringstream in(response);
  std::string line;
  std::getline(in, line);  // "ok <n>"
  while (std::getline(in, line)) lines.push_back(line);
  EXPECT_EQ(response.substr(0, response.find('\n')),
            "ok " + std::to_string(lines.size()))
      << response;
  return lines;
}

// `text` cut at every tab, keeping empty fields.
std::vector<std::string> TabFields(const std::string& text) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (size_t tab = text.find('\t'); tab != std::string::npos;
       start = tab + 1, tab = text.find('\t', start)) {
    fields.push_back(text.substr(start, tab - start));
  }
  fields.push_back(text.substr(start));
  return fields;
}

TEST(ServeTest, AttributeTranslationLookup) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // "film" is the hub-side type of the Tiny corpus; its alignment must
  // carry at least one pt -> en correspondence discovered by the matcher.
  auto alignments = OkLines((*service)->Handle("alignments pt:en film"));
  ASSERT_FALSE(alignments.empty());
  // Take a pt attribute from the pipeline's own MatchSet and ask the
  // service for its correspondents.
  const auto* tr = GetFixture().result.FindByTypeB("film");
  ASSERT_NE(tr, nullptr);
  auto pairs = tr->alignment.matches.CrossLanguagePairs("pt", "en");
  ASSERT_FALSE(pairs.empty());
  const auto& [pt_attr, en_attr] = pairs.front();
  auto correspondents =
      OkLines((*service)->Handle("attr pt:en film pt " + pt_attr.name));
  bool found = false;
  for (const auto& c : correspondents) {
    if (c == "en:" + en_attr.name) found = true;
  }
  EXPECT_TRUE(found) << "expected en:" << en_attr.name;
  // Unknown pair and unknown type are clean errors.
  EXPECT_EQ((*service)->Handle("attr vi:en film vi x").compare(0, 4, "err "),
            0);
  EXPECT_EQ((*service)->Handle("attr pt:en nope pt x").compare(0, 4, "err "),
            0);
}

TEST(ServeTest, TranslatedQueryMatchesOneShotPath) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto served =
      OkLines((*service)->Handle(std::string("query pt:en ") + kQuery));
  ASSERT_FALSE(served.empty());
  // "translated <#translated> <#relaxed> <query>", then one line per
  // answer: its title and its projections, tab-separated.
  std::istringstream header(served.front());
  std::string word;
  size_t constraints_translated = 0;
  header >> word >> constraints_translated;
  EXPECT_EQ(word, "translated");
  auto expected = OneShotAnswers(kQuery);
  ASSERT_EQ(served.size() - 1, expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    std::vector<std::string> fields = TabFields(served[i + 1]);
    ASSERT_FALSE(fields.empty()) << "answer " << i;
    EXPECT_EQ(fields.front(), expected[i].first) << "answer " << i;
    EXPECT_EQ(std::vector<std::string>(fields.begin() + 1, fields.end()),
              expected[i].second)
        << "answer " << i;
  }
  EXPECT_GT(constraints_translated, 0u);
}

// The query index is built on the thread pool when a core is built: the
// answers must not depend on the pool size or on which generation built
// it. The cache is off so every request is evaluated.
TEST(ServeTest, QueryAnswersAreStableAcrossReloadAndPoolSizes) {
  const std::vector<std::string> queries = {
      kQuery,
      "filme(elenco=?)",
      "filme(elenco=?, direção|diretor=?)",
      "ator(nascimento|data de nascimento < 1970, ocupação=?)",
      "filme(elenco=?) and ator(nascimento|data de nascimento < 1960)",
      "filme(país=\"estados unidos\", elenco=?)",
      "livro(autor=?)",  // untranslatable: an error answer
  };
  ServiceOptions options;
  options.cache_capacity = 0;
  auto answer_all = [&](MatchService* service) {
    std::vector<std::string> out;
    for (const auto& q : queries) {
      out.push_back(service->Handle("query pt:en " + q));
    }
    return out;
  };

  std::vector<std::string> reference;
  {
    util::ThreadPool pool(1);
    util::ScopedThreadPoolOverride use_pool(&pool);
    auto service = MatchService::Load(GetFixture().snapshot_path, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    reference = answer_all(service->get());
    std::string reloaded = (*service)->Handle("reload");
    ASSERT_EQ(reloaded.compare(0, 3, "ok "), 0) << reloaded;
    EXPECT_EQ(answer_all(service->get()), reference);
  }
  size_t with_answers = 0;
  for (const auto& response : reference) {
    // "ok <lines>": the "translated" line, then one line per answer.
    with_answers += response.compare(0, 3, "ok ") == 0 &&
                    std::stoul(response.substr(3)) > 1;
  }
  EXPECT_GE(with_answers, 4u);
  {
    util::ThreadPool pool(4);
    util::ScopedThreadPoolOverride use_pool(&pool);
    auto service = MatchService::Load(GetFixture().snapshot_path, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_EQ(answer_all(service->get()), reference);
  }
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
  std::string path_b = PerPidTempPath("rewrite_b.snap");
  ASSERT_TRUE(store::WriteSnapshotFile(b, path_b).ok());
  auto expected_a = MatchService::Load(GetFixture().snapshot_path);
  auto expected_b = MatchService::Load(path_b);
  ASSERT_TRUE(expected_a.ok()) << expected_a.status().ToString();
  ASSERT_TRUE(expected_b.ok()) << expected_b.status().ToString();
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
  answers_match(service->get(), expected_a->get());
  EXPECT_TRUE((*service)->CoreLoaded());
  ASSERT_TRUE(store::WriteSnapshotFile(a, path).ok());  // core built
  ASSERT_TRUE(store::WriteSnapshotFile(b, path).ok());
  answers_match(service->get(), expected_a->get());

  std::string reloaded = (*service)->Handle("reload");
  ASSERT_EQ(reloaded.compare(0, 3, "ok "), 0) << reloaded;
  EXPECT_EQ((*service)->Generation(), 1u);
  ASSERT_TRUE(store::WriteSnapshotFile(a, path).ok());
  answers_match(service->get(), expected_b->get());
  std::remove(path.c_str());
  std::remove(path_b.c_str());
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
  // A liveness probe neither fills nor probes the result cache.
  EXPECT_EQ((*service)->Stats().cache.entries, 0u);
  EXPECT_EQ((*service)->Stats().cache.misses, 0u);
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
  // the two first asks of the request; the uncacheable reload line never
  // probed the cache.
  std::string after = (*service)->Handle(request);
  EXPECT_EQ(after, before);
  EXPECT_EQ((*service)->Stats().cache.hits, 1u);
  EXPECT_EQ((*service)->Stats().cache.misses, 2u);

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
  EXPECT_EQ(served, 4u);
  std::string text = out.str();
  EXPECT_EQ(text.compare(0, 10, "ok 1\npt:en"), 0) << text;
  EXPECT_NE(text.find("err InvalidArgument: unknown request 'nonsense'"),
            std::string::npos);
  // quit is answered, and it is the last answer.
  EXPECT_EQ(text.substr(text.size() - 9), "ok 1\nbye\n") << text;
}

// Every spelling of quit — a trailing blank, quoted, CR-terminated, or the
// `exit` alias — answers bye and ends the session.
TEST(ServeTest, ServeLoopEndsOnEverySpellingOfQuit) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  for (const char* quit : {"quit ", "\"quit\"", "quit\r", "exit"}) {
    std::istringstream in(std::string(quit) + "\npairs\n");
    std::ostringstream out;
    EXPECT_EQ(ServeLoop(in, out, service->get()), 1u) << quit;
    EXPECT_EQ(out.str(), "ok 1\nbye\n") << quit;
  }
}

// An argument no row declares is a usage error, also for verbs that take
// none.
TEST(ServeTest, ServeLoopRejectsSurplusArguments) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  std::istringstream in("pairs extra\nsync-status extra\n");
  std::ostringstream out;
  EXPECT_EQ(ServeLoop(in, out, service->get()), 2u);
  EXPECT_EQ(out.str(),
            "err InvalidArgument: usage: pairs\n"
            "err InvalidArgument: usage: sync-status\n");
}

// attr's attribute is a rest-of-line argument that the grammar unquotes
// like any other.
TEST(ServeTest, ServeLoopReadsAQuotedAttributeLikeAnUnquotedOne) {
  auto service = MatchService::Load(GetFixture().snapshot_path);
  ASSERT_TRUE(service.ok());
  std::istringstream in(
      "attr pt:en film pt \"direção\"\n"
      "attr pt:en film pt direção\n"
      "attr pt:en film en \"directed by\"\n");
  std::ostringstream out;
  EXPECT_EQ(ServeLoop(in, out, service->get()), 3u);
  EXPECT_EQ(out.str(),
            "ok 1\nen:directed by\n"
            "ok 1\nen:directed by\n"
            "ok 1\npt:direção\n");
}

// docs/SERVING.md's verb table and ProtocolVerbs() name the same verbs:
// every table verb has a "| `verb" row there, and every such row names a
// table verb (FindVerb takes `exit` as quit's alias).
TEST(ServeTest, ServingDocsListExactlyTheTableVerbs) {
  std::ifstream in(std::string(WIKIMATCH_REPO_ROOT) + "/docs/SERVING.md");
  ASSERT_TRUE(in.is_open()) << "docs/SERVING.md";
  std::set<std::string> documented;
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 3, "| `") != 0) continue;
    std::string verb = line.substr(3, line.find_first_of(" `", 3) - 3);
    EXPECT_NE(FindVerb(verb), nullptr) << "not a protocol verb: " << line;
    documented.insert(verb);
  }
  for (const VerbSpec& spec : ProtocolVerbs()) {
    EXPECT_EQ(documented.count(spec.verb), 1u)
        << "no docs/SERVING.md row for " << spec.verb;
  }
}

// ---------------------------------------------------------- pinned answers

// Request lines covering every verb: bare, with arguments missing or
// surplus, with an unknown pair, type or language, quoted, unterminated,
// padded with blanks and tabs, and garbage. Both orders of a pair token
// are asked where the answer depends on it.
const std::vector<std::string>& PinnedRequests() {
  static const std::vector<std::string> kRequests = {
      "help",
      "pairs",
      "pairs extra",
      "version",
      "health",
      "generation",
      "types",
      "types pten",
      "types zz:yy",
      "types pt:en",
      "types   pt:en  ",
      "types pt:en extra",
      "types \"pt:en",
      "types :en",
      "alignments",
      "alignments pt:en",
      "alignments zz:yy film",
      "alignments pt:en nope",
      "alignments pt:en film",
      "alignments pt:en \"comics character\"",
      "alignments pt:en \"film\"",
      "alignments  pt:en   film  ",
      "alignments pt:en film",  // a cache hit answers the same bytes
      "alignments pt:en film extra",
      "alignments pt:en \"\"",
      "alignments\tpt:en\tfilm",
      "attr",
      "attr pt:en",
      "attr pt:en film",
      "attr pt:en film pt",
      "attr zz:yy film pt elenco",
      "attr pt:en nope pt elenco",
      "attr pt:en film vi elenco",
      "attr pt:en film pt direção",
      "attr pt:en film pt \"direção\"",
      "attr pt:en film pt \"direção\" extra",
      "attr pt:en film pt \"direção",
      "attr pt:en film en directed by",
      "attr pt:en film en gross revenue",
      "attr pt:en film pt elenco",
      "attr pt:en \"comics character\" pt nome",
      "attr  pt:en  film  pt  nome  ",
      "query",
      "query pt:en",
      "query zz:yy filme(elenco=?)",
      "query pt:en filme(",
      "query pt:en livro(autor=?)",
      std::string("query pt:en ") + kQuery,
      "query  pt:en   filme(elenco=?)  ",
      "query pt:en \"filme(elenco=?)\"",
      "sync",
      "sync pt:en",
      "sync zz:yy film",
      "sync pt:en nope",
      "sync pt:en actor",
      "sync en:pt actor",
      "sync pt:en \"comics character\"",
      "sync-status",
      "sync-status extra",
      "reload /nonexistent/next.snap",
      "reload",
      "reload \"\"",
      "generation",
      "health",
      "exit",
      "quit",
      "quit ",
      "\"quit\"",
      "quit now",
      "\"pairs",
      "frobnicate",
      "ATTR pt:en film pt elenco",
      "   ",
      "\xff\xfe garbage",
      "stats",
  };
  return kRequests;
}

// `response` with the value of every time field replaced by "*": the
// clocks of health, stats and generation, and the build-time pipeline
// timings that stats reports.
std::string MaskTimes(const std::string& response) {
  static const std::regex kTimeField(
      "(uptime_s|loaded_unix|age_s|_ms)=[^ \n]*");
  return std::regex_replace(response, kTimeField, "$1=*");
}

// "> <request>" and then the masked response, for each pinned request
// served in order by one service loaded from `snapshot_path`.
std::string PinnedTranscript(const std::string& snapshot_path) {
  auto service = MatchService::Load(snapshot_path);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return "";
  std::string out;
  for (const std::string& request : PinnedRequests()) {
    out += "> " + request + "\n" + MaskTimes((*service)->Handle(request));
  }
  return out;
}

// Every response to the pinned requests, byte for byte, as recorded in
// tests/serve_pinned_responses.txt: once on the fixture snapshot and once
// on the same snapshot with a sync report.
TEST(ServeTest, PinnedResponsesToEveryVerb) {
  std::ifstream in(std::string(WIKIMATCH_REPO_ROOT) +
                       "/tests/serve_pinned_responses.txt",
                   std::ios::binary);
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  ASSERT_FALSE(expected.empty()) << "tests/serve_pinned_responses.txt";
  std::string synced = WriteSyncSnapshot(0, "serve_pinned_sync.snap");
  const std::string actual =
      "# without a sync report\n" +
      PinnedTranscript(GetFixture().snapshot_path) +
      "# with a sync report\n" + PinnedTranscript(synced);
  std::remove(synced.c_str());
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace serve
}  // namespace wikimatch
