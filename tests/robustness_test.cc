// Robustness and property tests across modules:
//  * the wikitext parser must never fail on arbitrary mutated input —
//    malformed markup degrades, it does not error or crash;
//  * the dump reader must survive truncated/garbled XML;
//  * hostile snapshot bytes (truncations, byte flips, forged sizes, a
//    forged footer) end in an error status, an err reply, or a snapshot
//    whose kept sections are the original's — through ReadSnapshotFile,
//    MatchService::Load plus a first request, and a live reload;
//  * aligner behavior must be monotone in its thresholds;
//  * the full pipeline must be deterministic.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "match/aligner.h"
#include "match/pipeline.h"
#include "serve/match_service.h"
#include "snapshot_bytes.h"
#include "store/crc32.h"
#include "store/snapshot.h"
#include "synth/generator.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/utf8.h"
#include "wiki/dump_reader.h"
#include "wiki/wikitext_parser.h"

namespace wikimatch {
namespace {

const char kSeedArticle[] =
    "{{Infobox film\n| directed by = [[Bernardo Bertolucci]]\n"
    "| starring = {{ubl|[[John Lone]]|[[Joan Chen]]}}\n"
    "| release date = [[november 18]] 1987\n"
    "| notes = <!-- hidden --><ref>x</ref>value\n}}\n"
    "'''Prose''' with [[a link|anchor]].\n"
    "[[category:films]]\n[[pt:Filme]]\n";

// Mutates `s` with deletions, duplications, and byte flips.
std::string Mutate(const std::string& s, util::Rng* rng, int edits) {
  std::string out = s;
  for (int e = 0; e < edits && !out.empty(); ++e) {
    size_t pos = rng->NextBounded(out.size());
    switch (rng->NextBounded(4)) {
      case 0:  // delete a byte
        out.erase(pos, 1);
        break;
      case 1:  // duplicate a span
        out.insert(pos, out.substr(pos, rng->NextBounded(8) + 1));
        break;
      case 2:  // flip to a structural byte
        out[pos] = "{}[]|=<>"[rng->NextBounded(8)];
        break;
      case 3:  // flip to a random byte (may break UTF-8)
        out[pos] = static_cast<char>(rng->NextBounded(256));
        break;
    }
  }
  return out;
}

TEST(ParserFuzzTest, NeverFailsOnMutatedWikitext) {
  wiki::WikitextParser parser;
  util::Rng rng(0xF022);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = Mutate(kSeedArticle, &rng, 1 + round % 12);
    auto article = parser.ParseArticle("T", "en", mutated);
    // Parsing must succeed (title and language are valid); content just
    // degrades.
    ASSERT_TRUE(article.ok()) << "round " << round;
    // Everything extracted must be structurally sane.
    if (article->infobox.has_value()) {
      for (const auto& [attr, value] : article->infobox->attributes) {
        EXPECT_FALSE(attr.empty());
        EXPECT_FALSE(value.raw.empty());
      }
    }
  }
}

TEST(ParserFuzzTest, PathologicalNesting) {
  wiki::WikitextParser parser;
  std::string deep = "{{Infobox film\n| a = ";
  for (int i = 0; i < 50; ++i) deep += "{{x|";
  deep += "core";
  for (int i = 0; i < 50; ++i) deep += "}}";
  deep += "\n}}\n";
  auto article = parser.ParseArticle("T", "en", deep);
  ASSERT_TRUE(article.ok());
}

TEST(ParserFuzzTest, HugeFlatValue) {
  wiki::WikitextParser parser;
  std::string big = "{{Infobox film\n| a = " + std::string(200000, 'x') +
                    "\n}}\n";
  auto article = parser.ParseArticle("T", "en", big);
  ASSERT_TRUE(article.ok());
  ASSERT_TRUE(article->infobox.has_value());
}

TEST(DumpFuzzTest, TruncatedXmlNeverCrashes) {
  std::string xml =
      "<mediawiki><page><title>A</title><ns>0</ns><revision>"
      "<text>{{Infobox film}}</text></revision></page></mediawiki>";
  for (size_t cut = 0; cut < xml.size(); cut += 3) {
    auto pages = wiki::ParseDump(xml.substr(0, cut));
    // Either parses a prefix or reports an error; both are acceptable.
    (void)pages;
  }
  SUCCEED();
}

TEST(DumpFuzzTest, MutatedXml) {
  std::string xml =
      "<mediawiki><page><title>A &amp; B</title><ns>0</ns><revision>"
      "<text>body</text></revision></page></mediawiki>";
  util::Rng rng(0xD09);
  for (int round = 0; round < 300; ++round) {
    auto pages = wiki::ParseDump(Mutate(xml, &rng, 1 + round % 8));
    if (pages.ok()) {
      for (const auto& page : *pages) {
        EXPECT_FALSE(page.title.empty());
      }
    }
  }
}

// --------------------------------------------------- Hostile snapshot bytes

namespace ts = testing_snapshot;

// The canonical bytes of a small snapshot, written once per process.
const std::string& CanonicalSnapshotBytes() {
  static const std::string* bytes = [] {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(7));
    auto gc = std::move(generator.Generate()).ValueOrDie();
    match::MatchPipeline pipeline(&gc.corpus);
    auto result = std::move(pipeline.Run("pt", "en")).ValueOrDie();
    store::Snapshot snapshot;
    snapshot.corpus = gc.corpus;
    snapshot.dictionary = pipeline.dictionary();
    snapshot.pipelines.emplace(store::LanguagePair("pt", "en"),
                               std::move(result));
    snapshot.meta.generation = 3;
    std::string path = ::testing::TempDir() + "/robust_canonical." +
                       std::to_string(::getpid()) + ".snap";
    EXPECT_TRUE(store::WriteSnapshotFile(snapshot, path).ok());
    auto* out = new std::string(ts::ReadBytes(path));
    std::remove(path.c_str());
    return out;
  }();
  return *bytes;
}

std::string SectionBytes(const std::string& image, const ts::SectionSpan& s) {
  return image.substr(s.header_offset,
                      ts::kSectionHeaderSize + s.payload_size);
}

// True when every section of `reserialized` is, in order, a byte-identical
// section of `original` — nothing the reader kept was altered.
bool KeptSectionsMatch(const std::string& original,
                       const std::string& reserialized) {
  const auto kept = ts::Sections(reserialized);
  const auto all = ts::Sections(original);
  size_t next = 0;
  for (const auto& k : kept) {
    while (next < all.size() && SectionBytes(original, all[next]) !=
                                    SectionBytes(reserialized, k)) {
      ++next;
    }
    if (next == all.size()) return false;
    ++next;
  }
  return true;
}

struct HostileCase {
  std::string name;
  std::string bytes;
  bool content_intact = false;  // only ignorable bytes were touched
};

// Feeds one hostile image to the three entry points that read snapshot
// bytes. `live` serves the canonical snapshot at `good_path`.
void CheckHostileCase(const HostileCase& c, const std::string& path,
                      const std::string& good_path, serve::MatchService* live,
                      const std::string& live_baseline) {
  SCOPED_TRACE(c.name);
  ts::WriteBytes(path, c.bytes);
  const std::string& canonical = CanonicalSnapshotBytes();

  // 1. ReadSnapshotFile: an error, or a snapshot whose re-serialization
  //    keeps only unaltered sections (all of them if content is intact).
  auto read = store::ReadSnapshotFile(path);
  if (read.ok()) {
    const std::string out = path + ".out";
    ASSERT_TRUE(store::WriteSnapshotFile(*read, out).ok());
    const std::string reserialized = ts::ReadBytes(out);
    std::remove(out.c_str());
    EXPECT_TRUE(KeptSectionsMatch(canonical, reserialized));
    if (c.content_intact) {
      EXPECT_EQ(reserialized, canonical);
    }
  } else {
    EXPECT_FALSE(c.content_intact) << read.status().ToString();
  }

  // 2. Load + a first data request: served only when the file reads.
  auto service = serve::MatchService::Load(path);
  if (service.ok()) {
    const std::string reply = (*service)->Handle("pairs");
    const bool ok_reply = reply.compare(0, 3, "ok ") == 0;
    EXPECT_TRUE(ok_reply || reply.compare(0, 4, "err ") == 0) << reply;
    EXPECT_EQ(ok_reply, read.ok()) << reply;
  } else {
    EXPECT_FALSE(read.ok());
  }

  // 3. reload on a live service: a failed reload keeps the previous
  //    generation serving; a successful one is reverted for the next case.
  const std::string reply = live->Handle("reload " + path);
  const bool reloaded = reply.compare(0, 3, "ok ") == 0;
  EXPECT_TRUE(reloaded || reply.compare(0, 4, "err ") == 0) << reply;
  EXPECT_EQ(reloaded, read.ok()) << reply;
  if (reloaded) {
    ASSERT_EQ(live->Handle("reload " + good_path).compare(0, 3, "ok "), 0);
  }
  EXPECT_EQ(live->Handle("alignments pt:en film"), live_baseline);
}

// Truncations at every section boundary and one byte either side, byte
// flips in the header, every section header, sampled payload bytes and
// any trailing bytes, and forged payload sizes, all over `image`.
// Damage past the last counted section leaves the content intact.
std::vector<HostileCase> HostileCasesOf(const std::string& image,
                                        const std::string& label) {
  std::vector<HostileCase> cases;
  const auto sections = ts::Sections(image);
  const size_t counted_end = sections.back().header_offset +
                             ts::kSectionHeaderSize +
                             sections.back().payload_size;
  std::vector<size_t> boundaries = {0, ts::kHeaderSize};
  for (const auto& s : sections) {
    boundaries.push_back(s.header_offset + ts::kSectionHeaderSize);
    boundaries.push_back(s.header_offset + ts::kSectionHeaderSize +
                         s.payload_size);
  }
  boundaries.push_back(image.size());
  for (size_t b : boundaries) {
    for (size_t keep : {b - 1, b, b + 1}) {
      if (b == 0 && keep != 0) continue;
      if (keep >= image.size()) continue;  // not a truncation
      cases.push_back({label + " truncated to " + std::to_string(keep),
                       image.substr(0, keep), keep >= counted_end});
    }
  }

  util::Rng rng(0x5EC7);
  auto flip = [&](size_t offset, bool content_intact) {
    HostileCase c{label + " flip at " + std::to_string(offset), image,
                  content_intact};
    c.bytes[offset] =
        static_cast<char>(c.bytes[offset] ^ (1 + rng.NextBounded(255)));
    cases.push_back(std::move(c));
  };
  for (size_t i = 0; i < ts::kHeaderSize; ++i) flip(i, i >= 12);
  for (const auto& s : sections) {
    for (size_t i = 0; i < ts::kSectionHeaderSize; ++i) {
      flip(s.header_offset + i, false);
    }
    for (int k = 0; k < 3 && s.payload_size > 0; ++k) {
      flip(s.header_offset + ts::kSectionHeaderSize +
               rng.NextBounded(s.payload_size),
           false);
    }
  }
  for (size_t i = counted_end; i < image.size(); ++i) flip(i, true);

  for (size_t idx = 0; idx < sections.size(); ++idx) {
    const auto& s = sections[idx];
    const uint64_t remaining =
        image.size() - s.header_offset - ts::kSectionHeaderSize;
    for (uint64_t forged : {uint64_t{0}, remaining + 1,
                            ~uint64_t{0} - 7, ~uint64_t{0}}) {
      if (forged == s.payload_size) continue;
      HostileCase c{label + " section " + std::to_string(idx) + " size " +
                        std::to_string(forged),
                    image};
      std::memcpy(c.bytes.data() + s.header_offset + 4, &forged, 8);
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

class HostileSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = ::testing::TempDir() + "/robust." + std::to_string(::getpid());
    good_path_ = prefix_ + ".good.snap";
    case_path_ = prefix_ + ".case.snap";
    ts::WriteBytes(good_path_, CanonicalSnapshotBytes());
    auto service = serve::MatchService::Load(good_path_);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    live_ = std::move(service).ValueOrDie();
    baseline_ = live_->Handle("alignments pt:en film");
    ASSERT_EQ(baseline_.compare(0, 3, "ok "), 0) << baseline_;
  }
  void TearDown() override {
    std::remove(good_path_.c_str());
    std::remove(case_path_.c_str());
  }

  void Check(const std::vector<HostileCase>& cases) {
    for (const HostileCase& c : cases) {
      CheckHostileCase(c, case_path_, good_path_, live_.get(), baseline_);
    }
  }

  std::string prefix_, good_path_, case_path_, baseline_;
  std::unique_ptr<serve::MatchService> live_;
};

TEST_F(HostileSnapshotTest, CurrentLayoutMutations) {
  Check(HostileCasesOf(CanonicalSnapshotBytes(), "current"));
}

TEST_F(HostileSnapshotTest, DirectoryLayoutMutations) {
  // Files from earlier writers end in reserved sections and a footer;
  // trailing-byte damage is harmless there.
  const std::string image = ts::WithDirectoryLayout(CanonicalSnapshotBytes());
  Check(HostileCasesOf(image, "directory"));
}

TEST_F(HostileSnapshotTest, ForgedFooterOffsetIsIgnored) {
  // A footer whose directory offset is 2^64-8, with a matching CRC: the
  // reader never follows footers, so the file reads like any other.
  std::string image = ts::WithDirectoryLayout(CanonicalSnapshotBytes());
  util::BinaryWriter offset;
  offset.PutU64(0xFFFFFFFFFFFFFFF8ull);
  util::BinaryWriter footer;
  footer.PutU64(0xFFFFFFFFFFFFFFF8ull);
  footer.PutU32(store::Crc32(offset.buffer()));
  footer.PutU32(0x46534D57u);
  image.replace(image.size() - 16, 16, footer.buffer());
  Check({{"forged footer", image, /*content_intact=*/true}});
}

TEST_F(HostileSnapshotTest, ReservedKindsAndTrailingBytesAreSkipped) {
  // A fresh file plus counted kind-6 and kind-7 sections with valid CRCs
  // and 16 trailing bytes decodes to the same bytes as the original.
  std::string image = CanonicalSnapshotBytes();
  ts::AppendSection(&image, ts::kDirectoryKind, "not a directory");
  ts::AppendSection(&image, ts::kPadKind, std::string(5, '\0'));
  image += std::string(16, '\x7F');
  Check({{"reserved kinds", image, /*content_intact=*/true}});
}

// ------------------------------------------------------ Aligner properties

class AlignerPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(99));
    auto g = generator.Generate();
    ASSERT_TRUE(g.ok());
    gc_ = new synth::GeneratedCorpus(std::move(g).ValueOrDie());
    pipeline_ = new match::MatchPipeline(&gc_->corpus);
    auto data = pipeline_->BuildPair("pt", "filme", "en", "film");
    ASSERT_TRUE(data.ok());
    data_ = new match::TypePairData(std::move(data).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    delete pipeline_;
    delete gc_;
    data_ = nullptr;
    pipeline_ = nullptr;
    gc_ = nullptr;
  }

  static size_t NumMatches(const match::MatcherConfig& config) {
    match::AttributeAligner aligner(config);
    auto result = aligner.Align(*data_);
    EXPECT_TRUE(result.ok());
    return result->matches.CrossLanguagePairs("pt", "en").size();
  }

  static synth::GeneratedCorpus* gc_;
  static match::MatchPipeline* pipeline_;
  static match::TypePairData* data_;
};

synth::GeneratedCorpus* AlignerPropertyTest::gc_ = nullptr;
match::MatchPipeline* AlignerPropertyTest::pipeline_ = nullptr;
match::TypePairData* AlignerPropertyTest::data_ = nullptr;

TEST_F(AlignerPropertyTest, Deterministic) {
  match::MatcherConfig config;
  match::AttributeAligner aligner(config);
  auto a = aligner.Align(*data_);
  auto b = aligner.Align(*data_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->matches.Clusters(), b->matches.Clusters());
  EXPECT_EQ(a->all_pairs.size(), b->all_pairs.size());
}

TEST_F(AlignerPropertyTest, TlsiRaisingShrinksCandidateSet) {
  // Higher TLSI strictly admits fewer queue candidates. The *match* count
  // is only loosely monotone (dropping one early absorption can enable a
  // different merge later), so it gets a slack bound.
  size_t prev_matches = SIZE_MAX;
  for (double t : {0.0, 0.3, 0.6, 0.9, 0.99}) {
    match::MatcherConfig config;
    config.t_lsi = t;
    config.use_revise_uncertain = false;  // isolate queue admission
    size_t n = NumMatches(config);
    EXPECT_LE(n, prev_matches == SIZE_MAX ? SIZE_MAX : prev_matches + 2)
        << "t_lsi " << t;
    prev_matches = n;
  }
  // Strict invariant: admitted candidates shrink with the threshold.
  match::AttributeAligner aligner{match::MatcherConfig{}};
  auto result = aligner.Align(*data_);
  ASSERT_TRUE(result.ok());
  auto admitted = [&](double t) {
    size_t count = 0;
    for (const auto& p : result->all_pairs) {
      if (p.lsi > t) ++count;
    }
    return count;
  };
  EXPECT_GE(admitted(0.1), admitted(0.5));
  EXPECT_GE(admitted(0.5), admitted(0.9));
}

TEST_F(AlignerPropertyTest, ReviseUncertainOnlyAddsMatches) {
  match::MatcherConfig with;
  match::MatcherConfig without = with;
  without.use_revise_uncertain = false;
  match::AttributeAligner a_with(with);
  match::AttributeAligner a_without(without);
  auto r_with = a_with.Align(*data_);
  auto r_without = a_without.Align(*data_);
  ASSERT_TRUE(r_with.ok());
  ASSERT_TRUE(r_without.ok());
  // Every certain match survives revision (revision never removes).
  for (const auto& [a, b] :
       r_without->matches.CrossLanguagePairs("pt", "en")) {
    EXPECT_TRUE(r_with->matches.AreMatched(a, b))
        << a.name << " / " << b.name;
  }
}

TEST_F(AlignerPropertyTest, AllScoresInRange) {
  match::AttributeAligner aligner{match::MatcherConfig{}};
  auto result = aligner.Align(*data_);
  ASSERT_TRUE(result.ok());
  for (const auto& p : result->all_pairs) {
    EXPECT_GE(p.vsim, 0.0);
    EXPECT_LE(p.vsim, 1.0 + 1e-12);
    EXPECT_GE(p.lsim, 0.0);
    EXPECT_LE(p.lsim, 1.0 + 1e-12);
    EXPECT_GE(p.lsi, 0.0);
    EXPECT_LE(p.lsi, 1.0 + 1e-12);
  }
}

TEST_F(AlignerPropertyTest, MatchedAttributesExistInSchema) {
  match::AttributeAligner aligner{match::MatcherConfig{}};
  auto result = aligner.Align(*data_);
  ASSERT_TRUE(result.ok());
  for (const auto& cluster : result->matches.Clusters()) {
    for (const auto& attr : cluster) {
      EXPECT_NE(data_->GroupIndex(attr), SIZE_MAX)
          << attr.language << ":" << attr.name;
    }
  }
}

// Generator determinism across scales (property sweep).
class GeneratorScaleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorScaleTest, PipelineIsDeterministic) {
  synth::GeneratorOptions options = synth::GeneratorOptions::Tiny(GetParam());
  synth::CorpusGenerator g1(options);
  synth::CorpusGenerator g2(options);
  auto c1 = g1.Generate();
  auto c2 = g2.Generate();
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  match::MatchPipeline p1(&c1->corpus);
  match::MatchPipeline p2(&c2->corpus);
  auto r1 = p1.Run("pt", "en");
  auto r2 = p2.Run("pt", "en");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->per_type.size(), r2->per_type.size());
  for (size_t i = 0; i < r1->per_type.size(); ++i) {
    EXPECT_EQ(r1->per_type[i].alignment.matches.Clusters(),
              r2->per_type[i].alignment.matches.Clusters());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorScaleTest,
                         ::testing::Values(1, 17, 42, 2026));

}  // namespace
}  // namespace wikimatch
