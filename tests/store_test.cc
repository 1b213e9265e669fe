// Tests for the snapshot store: binary primitives, corpus / dictionary /
// pipeline round trips, and robustness against corrupt, truncated, and
// version-mismatched files (every failure must be a clean util::Result
// error, never a crash — the sanitizer build runs this suite).

#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

#include "ingest/incremental_matcher.h"
#include "match/pipeline.h"
#include "match/serialize.h"
#include "store/crc32.h"
#include "store/snapshot.h"
#include "store/snapshot_reader.h"
#include "snapshot_bytes.h"
#include "sync/sync_engine.h"
#include "synth/generator.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "wiki/serialize.h"

namespace wikimatch {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// One generated corpus + pipeline run shared by the suite (building it is
// the expensive part of these tests).
struct Fixture {
  synth::GeneratedCorpus gc;
  match::PipelineResult result;
  match::TranslationDictionary dictionary;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny());
    f->gc = std::move(generator.Generate()).ValueOrDie();
    match::MatchPipeline pipeline(&f->gc.corpus);
    f->result = std::move(pipeline.Run("pt", "en")).ValueOrDie();
    f->dictionary = pipeline.dictionary();
    return f;
  }();
  return *fixture;
}

Snapshot MakeSnapshot() {
  const Fixture& f = GetFixture();
  Snapshot snapshot;
  snapshot.corpus = f.gc.corpus;
  snapshot.dictionary = f.dictionary;
  snapshot.pipelines.emplace(LanguagePair("pt", "en"), f.result);
  return snapshot;
}

// ---------------------------------------------------------------- binary io

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  util::BinaryWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutDouble(-0.125);
  w.PutString("olá");
  w.PutString("");
  util::BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU8().ValueOrDie(), 0xAB);
  EXPECT_EQ(r.ReadU32().ValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().ValueOrDie(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadDouble().ValueOrDie(), -0.125);
  EXPECT_EQ(r.ReadString().ValueOrDie(), "olá");
  EXPECT_EQ(r.ReadString().ValueOrDie(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, TruncatedReadsFailCleanly) {
  util::BinaryWriter w;
  w.PutU32(7);
  util::BinaryReader r(w.buffer());
  EXPECT_TRUE(r.ReadU32().ok());
  EXPECT_FALSE(r.ReadU8().ok());
  EXPECT_FALSE(r.ReadU64().ok());
  // A string whose length field exceeds the remaining bytes.
  util::BinaryWriter w2;
  w2.PutU64(1000);
  w2.PutBytes("short");
  util::BinaryReader r2(w2.buffer());
  auto s = r2.ReadString();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), util::StatusCode::kOutOfRange);
}

// A streaming writer hands its sink exactly the bytes an in-memory writer
// keeps, in kBlockBytes blocks (only the last one shorter), whatever the
// put sizes; after a sink error it hands over nothing more.
TEST(BinaryIoTest, StreamingWriterHandsOnFixedBlocks) {
  auto encode = [](util::BinaryWriter* w) {
    wiki::EncodeCorpus(GetFixture().gc.corpus, w);
    w->PutString(std::string(3 * util::BinaryWriter::kBlockBytes + 5, 'x'));
    for (uint32_t i = 0; i < 40000; ++i) w->PutU32(i);
    w->PutU8(7);
  };
  util::BinaryWriter memory;
  encode(&memory);

  std::vector<std::string> blocks;
  util::BinaryWriter streaming([&](std::string_view block) {
    blocks.emplace_back(block);
    return util::Status::OK();
  });
  encode(&streaming);
  ASSERT_TRUE(streaming.Flush().ok());
  EXPECT_EQ(streaming.size(), memory.size());
  EXPECT_TRUE(streaming.buffer().empty());
  ASSERT_GT(blocks.size(), 4u);
  std::string joined;
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (i + 1 < blocks.size()) {
      EXPECT_EQ(blocks[i].size(), util::BinaryWriter::kBlockBytes) << i;
    }
    joined += blocks[i];
  }
  EXPECT_EQ(joined, memory.buffer());

  size_t calls = 0;
  util::BinaryWriter failing([&](std::string_view) {
    ++calls;
    return calls == 2 ? util::Status::IoError("disk full")
                      : util::Status::OK();
  });
  encode(&failing);
  util::Status flushed = failing.Flush();
  EXPECT_EQ(flushed.code(), util::StatusCode::kIoError);
  EXPECT_EQ(calls, 2u);
}

TEST(Crc32Test, KnownVectorsAndChunking) {
  // Standard check value of CRC-32/ISO-HDLC.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  uint32_t chunked = Crc32("6789", Crc32("12345"));
  EXPECT_EQ(chunked, 0xCBF43926u);
}

// Bytewise reference: one table lookup per byte, the textbook loop the
// sliced kernel must agree with on every input.
uint32_t ReferenceCrc32(std::string_view data, uint32_t seed = 0) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) c = table[(c ^ byte) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::string out(n, '\0');
  for (char& ch : out) ch = static_cast<char>(rng.NextBounded(256));
  return out;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // 8 start offsets x lengths 0-64 cover every head/tail split around the
  // 8-byte blocks, at every alignment of the block loads.
  std::string buffer = RandomBytes(8 + 64, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      std::string_view slice(buffer.data() + offset, len);
      ASSERT_EQ(Crc32(slice), ReferenceCrc32(slice))
          << "offset " << offset << " length " << len;
      const uint32_t seed = 0x12345678u;
      ASSERT_EQ(Crc32(slice, seed), ReferenceCrc32(slice, seed))
          << "seeded, offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnMultiMegabyteBuffer) {
  std::string buffer = RandomBytes((3u << 20) + 5, 2);
  EXPECT_EQ(Crc32(buffer), ReferenceCrc32(buffer));
  // All-zero and all-one bytes exercise the table ends.
  std::string zeros(1u << 20, '\0');
  std::string ones(1u << 20, '\xFF');
  EXPECT_EQ(Crc32(zeros), ReferenceCrc32(zeros));
  EXPECT_EQ(Crc32(ones), ReferenceCrc32(ones));
}

TEST(Crc32Test, SeedChainsLikeConcatenation) {
  std::string buffer = RandomBytes(4099, 3);
  std::string_view all(buffer);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{1000}, size_t{4095}, buffer.size()}) {
    std::string_view a = all.substr(0, cut);
    std::string_view b = all.substr(cut);
    EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(all)) << "cut " << cut;
    EXPECT_EQ(Crc32(b, Crc32(a)), ReferenceCrc32(all)) << "cut " << cut;
  }
}

// --------------------------------------------------------------- round trips

TEST(StoreTest, CorpusRoundTrip) {
  const wiki::Corpus& original = GetFixture().gc.corpus;
  util::BinaryWriter w;
  wiki::EncodeCorpus(original, &w);
  util::BinaryReader r(w.buffer());
  auto decoded = wiki::DecodeCorpus(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), original.size());
  for (wiki::ArticleId id = 0; id < original.size(); ++id) {
    const wiki::Article& a = original.Get(id);
    const wiki::Article& b = decoded->Get(id);
    ASSERT_EQ(a.title, b.title);
    ASSERT_EQ(a.language, b.language);
    ASSERT_EQ(a.entity_type, b.entity_type);
    ASSERT_EQ(a.redirect_to, b.redirect_to);
    ASSERT_EQ(a.categories, b.categories);
    ASSERT_EQ(a.cross_language_links, b.cross_language_links);
    ASSERT_EQ(a.infobox.has_value(), b.infobox.has_value());
    if (a.infobox.has_value()) {
      ASSERT_EQ(a.infobox->template_type, b.infobox->template_type);
      ASSERT_EQ(a.infobox->attributes.size(), b.infobox->attributes.size());
      for (size_t i = 0; i < a.infobox->attributes.size(); ++i) {
        ASSERT_EQ(a.infobox->attributes[i].first,
                  b.infobox->attributes[i].first);
        ASSERT_EQ(a.infobox->attributes[i].second.text,
                  b.infobox->attributes[i].second.text);
        ASSERT_EQ(a.infobox->attributes[i].second.links,
                  b.infobox->attributes[i].second.links);
      }
    }
  }
  // Finalized indexes answer identically.
  EXPECT_EQ(decoded->Languages(), original.Languages());
  EXPECT_EQ(decoded->TypesIn("pt"), original.TypesIn("pt"));
  EXPECT_EQ(decoded->ArticlesOfType("en", "film").size(),
            original.ArticlesOfType("en", "film").size());
}

TEST(StoreTest, DictionaryRoundTrip) {
  const match::TranslationDictionary& original = GetFixture().dictionary;
  util::BinaryWriter w;
  match::EncodeDictionary(original, &w);
  util::BinaryReader r(w.buffer());
  auto decoded = match::DecodeDictionary(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->entries(), original.entries());
}

TEST(StoreTest, MatchSetRoundTripBothModes) {
  eval::MatchSet transitive(true);
  transitive.AddCluster({{"en", "starring"}, {"pt", "elenco"}});
  transitive.AddPair({"en", "born"}, {"pt", "nascimento"});
  util::BinaryWriter w1;
  match::EncodeMatchSet(transitive, &w1);
  util::BinaryReader r1(w1.buffer());
  auto t = match::DecodeMatchSet(&r1);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->transitive());
  EXPECT_EQ(t->Clusters(), transitive.Clusters());

  eval::MatchSet pairwise(false);
  pairwise.AddPair({"en", "a"}, {"pt", "b"});
  pairwise.AddPair({"en", "a"}, {"pt", "c"});
  util::BinaryWriter w2;
  match::EncodeMatchSet(pairwise, &w2);
  util::BinaryReader r2(w2.buffer());
  auto p = match::DecodeMatchSet(&r2);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->transitive());
  EXPECT_EQ(p->DirectPairs(), pairwise.DirectPairs());
  // Pairwise mode must not fabricate b ~ c.
  EXPECT_FALSE(p->AreMatched({"pt", "b"}, {"pt", "c"}));
}

TEST(StoreTest, PipelineResultRoundTrip) {
  const match::PipelineResult& original = GetFixture().result;
  util::BinaryWriter w;
  match::EncodePipelineResult(original, &w);
  util::BinaryReader r(w.buffer());
  auto decoded = match::DecodePipelineResult(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->type_matches.size(), original.type_matches.size());
  for (size_t i = 0; i < original.type_matches.size(); ++i) {
    EXPECT_EQ(decoded->type_matches[i].type_a,
              original.type_matches[i].type_a);
    EXPECT_EQ(decoded->type_matches[i].type_b,
              original.type_matches[i].type_b);
    EXPECT_EQ(decoded->type_matches[i].votes,
              original.type_matches[i].votes);
    EXPECT_EQ(decoded->type_matches[i].confidence,
              original.type_matches[i].confidence);
  }
  ASSERT_EQ(decoded->per_type.size(), original.per_type.size());
  for (size_t i = 0; i < original.per_type.size(); ++i) {
    const auto& a = original.per_type[i];
    const auto& b = decoded->per_type[i];
    EXPECT_EQ(a.type_a, b.type_a);
    EXPECT_EQ(a.type_b, b.type_b);
    EXPECT_EQ(a.num_duals, b.num_duals);
    EXPECT_EQ(a.frequencies, b.frequencies);
    EXPECT_EQ(a.alignment.matches.Clusters(),
              b.alignment.matches.Clusters());
    ASSERT_EQ(a.alignment.all_pairs.size(), b.alignment.all_pairs.size());
    for (size_t j = 0; j < a.alignment.all_pairs.size(); ++j) {
      EXPECT_EQ(a.alignment.all_pairs[j].i, b.alignment.all_pairs[j].i);
      EXPECT_EQ(a.alignment.all_pairs[j].j, b.alignment.all_pairs[j].j);
      EXPECT_EQ(a.alignment.all_pairs[j].lsi, b.alignment.all_pairs[j].lsi);
    }
    EXPECT_EQ(a.alignment.processed_order.size(),
              b.alignment.processed_order.size());
  }
}

TEST(StoreTest, SnapshotFileRoundTrip) {
  std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->corpus.size(), GetFixture().gc.corpus.size());
  EXPECT_EQ(loaded->dictionary.entries(),
            GetFixture().dictionary.entries());
  ASSERT_EQ(loaded->pipelines.size(), 1u);
  const auto& result = loaded->pipelines.at(LanguagePair("pt", "en"));
  EXPECT_EQ(result.per_type.size(), GetFixture().result.per_type.size());
  std::remove(path.c_str());
}

// The streamed writer's file equals the layout a buffered writer frames:
// the header, then per section its kind, payload size and CRC-32 of the
// whole payload, then the payload. The synced Paper(0.02) snapshot's
// corpus section spans many streaming blocks, so a CRC chained wrongly
// across blocks or a size patched at the wrong offset shows here.
TEST(StoreTest, StreamedFileEqualsBufferedSectionFraming) {
  Snapshot paper;
  {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(0.02));
    paper.corpus = std::move(generator.Generate()).ValueOrDie().corpus;
    match::MatchPipeline pipeline(&paper.corpus);
    paper.dictionary = pipeline.dictionary();
    paper.pipelines.emplace(LanguagePair("pt", "en"),
                            std::move(pipeline.Run("pt", "en")).ValueOrDie());
    sync::SyncEngine engine(&paper.corpus, &paper.dictionary, "en");
    paper.sync_report = engine.Run(
        sync::SyncEngine::ScopesFromPipelines(paper.pipelines), 2);
    paper.sync_report.generation = 1;
  }
  ASSERT_FALSE(paper.sync_report.cells.empty());
  struct Case {
    const char* name;
    Snapshot snapshot;
  };
  for (const Case& c : {Case{"Tiny", MakeSnapshot()},
                        Case{"synced Paper(0.02)", std::move(paper)}}) {
    SCOPED_TRACE(c.name);
    std::string expected;
    {
      util::BinaryWriter header;
      header.PutU32(kSnapshotMagic);
      header.PutU32(kSnapshotVersion);
      header.PutU32(0);  // section count, bumped per section
      header.PutU32(0);  // reserved
      expected = header.TakeBuffer();
    }
    auto frame = [&](SectionKind kind, auto encode) {
      util::BinaryWriter w;
      encode(&w);
      testing_snapshot::AppendSection(&expected, static_cast<uint32_t>(kind),
                                      w.buffer());
    };
    frame(SectionKind::kCorpus, [&](util::BinaryWriter* w) {
      wiki::EncodeCorpus(c.snapshot.corpus, w);
    });
    frame(SectionKind::kDictionary, [&](util::BinaryWriter* w) {
      match::EncodeDictionary(c.snapshot.dictionary, w);
    });
    for (const auto& [pair, result] : c.snapshot.pipelines) {
      frame(SectionKind::kPipeline, [&](util::BinaryWriter* w) {
        w->PutString(pair.first);
        w->PutString(pair.second);
        match::EncodePipelineResult(result, w);
      });
    }
    if (!c.snapshot.sync_report.empty()) {
      frame(SectionKind::kSyncReport, [&](util::BinaryWriter* w) {
        sync::EncodeSyncReport(c.snapshot.sync_report, w);
      });
    }

    std::string path = TempPath("streamed.snap");
    ASSERT_TRUE(WriteSnapshotFile(c.snapshot, path).ok());
    const std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    EXPECT_GT(testing_snapshot::Sections(expected)[0].payload_size,
              c.snapshot.sync_report.empty()
                  ? 0u
                  : 8 * util::BinaryWriter::kBlockBytes);
    EXPECT_EQ(bytes.size(), expected.size());
    EXPECT_TRUE(bytes == expected) << "streamed file differs from framing";
  }
}

// ---------------------------------------------------------------- robustness

TEST(StoreTest, MissingFileIsIoError) {
  auto loaded = ReadSnapshotFile(TempPath("does-not-exist.snap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
}

TEST(StoreTest, BadMagicIsRejected) {
  std::string path = TempPath("badmagic.snap");
  WriteFileBytes(path, "this is definitely not a snapshot file at all");
  auto loaded = ReadSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StoreTest, WrongVersionIsRejected) {
  std::string path = TempPath("badversion.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[4] = 99;  // version field (bytes 4..7, little-endian)
  WriteFileBytes(path, bytes);
  auto loaded = ReadSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StoreTest, CorruptPayloadFailsCrc) {
  std::string path = TempPath("corrupt.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  std::string bytes = ReadFileBytes(path);
  // Flip one byte deep inside the first section's payload.
  size_t victim = 16 + 16 + 100;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x5A);
  WriteFileBytes(path, bytes);
  auto loaded = ReadSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StoreTest, TruncatedFileIsRejected) {
  std::string path = TempPath("truncated.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  std::string bytes = ReadFileBytes(path);
  // Cut at several depths: inside the header, inside a section header,
  // and inside a section payload.
  for (size_t keep : {size_t{7}, size_t{20}, bytes.size() / 2}) {
    WriteFileBytes(path, bytes.substr(0, keep));
    auto loaded = ReadSnapshotFile(path);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kOutOfRange)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

// Names in TempDir() that start with `prefix` (temp files of writers).
std::vector<std::string> FilesWithPrefix(const std::string& prefix) {
  std::vector<std::string> out;
  DIR* dir = ::opendir(::testing::TempDir().c_str());
  if (dir == nullptr) return out;
  while (dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(name);
  }
  ::closedir(dir);
  return out;
}

TEST(StoreTest, UnfinishedSnapshotIsRejected) {
  // A writer that never called Finish() (crash mid-build, error) leaves
  // the previous file at the path untouched and no temp file behind.
  std::string path = TempPath("unfinished.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  const std::string previous = ReadFileBytes(path);
  {
    auto writer = SnapshotWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteCorpus(GetFixture().gc.corpus).ok());
    // No Finish().
  }
  EXPECT_EQ(ReadFileBytes(path), previous);
  EXPECT_EQ(FilesWithPrefix("unfinished.snap"),
            std::vector<std::string>{"unfinished.snap"});
  ASSERT_TRUE(ReadSnapshotFile(path).ok());

  // A file whose header still carries the provisional zero section count
  // is rejected as incomplete.
  std::string bytes = previous;
  testing_snapshot::SetSectionCount(&bytes, 0);
  WriteFileBytes(path, bytes);
  auto loaded = ReadSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("incomplete"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(StoreTest, FinishReplacesTheFileAtomically) {
  // Finish() renames a complete temp file over the target: a mapping of
  // the previous file keeps its bytes, the path shows the new file.
  std::string path = TempPath("replace.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  auto before = MappedSnapshot::Map(path);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  Snapshot next = MakeSnapshot();
  next.meta.generation = 7;
  ASSERT_TRUE(WriteSnapshotFile(next, path).ok());
  EXPECT_EQ(FilesWithPrefix("replace.snap"),
            std::vector<std::string>{"replace.snap"});
  auto old_decoded = (*before)->Decode();
  ASSERT_TRUE(old_decoded.ok()) << old_decoded.status().ToString();
  EXPECT_EQ(old_decoded->meta.generation, 0u);
  auto new_decoded = ReadSnapshotFile(path);
  ASSERT_TRUE(new_decoded.ok()) << new_decoded.status().ToString();
  EXPECT_EQ(new_decoded->meta.generation, 7u);
  std::remove(path.c_str());
}

TEST(StoreTest, UnwritableDirectoryIsIoError) {
  auto status =
      WriteSnapshotFile(MakeSnapshot(), TempPath("no-such-dir/x.snap"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
}

TEST(StoreTest, SectionSizeBeyondFileIsRejected) {
  std::string path = TempPath("badsize.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  std::string bytes = ReadFileBytes(path);
  // Inflate the first section's payload_size field (offset 16 + 4) to an
  // absurd value; the reader must reject it before allocating.
  size_t off = 16 + 4;
  for (int i = 0; i < 8; ++i) bytes[off + i] = static_cast<char>(0xFF);
  WriteFileBytes(path, bytes);
  auto loaded = ReadSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

// ------------------------------------------------------- meta + stats compat

TEST(StoreTest, MetaSectionRoundTrip) {
  Snapshot snapshot = MakeSnapshot();
  snapshot.meta.generation = 3;
  snapshot.meta.history.push_back({1, 10, 2, 1, 12, 2});
  snapshot.meta.history.push_back({3, 0, 5, 0, 13, 1});
  std::string path = TempPath("meta.snap");
  ASSERT_TRUE(WriteSnapshotFile(snapshot, path).ok());
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.generation, 3u);
  ASSERT_EQ(loaded->meta.history.size(), 2u);
  EXPECT_EQ(loaded->meta.history[0].generation, 1u);
  EXPECT_EQ(loaded->meta.history[0].articles_added, 10u);
  EXPECT_EQ(loaded->meta.history[0].units_reused, 12u);
  EXPECT_EQ(loaded->meta.history[1].generation, 3u);
  EXPECT_EQ(loaded->meta.history[1].articles_updated, 5u);
  EXPECT_EQ(loaded->meta.history[1].units_recomputed, 1u);
  // The other sections still load alongside the meta section.
  EXPECT_EQ(loaded->corpus.size(), GetFixture().gc.corpus.size());
  ASSERT_EQ(loaded->pipelines.size(), 1u);
  std::remove(path.c_str());
}

TEST(StoreTest, MetaOptionsFingerprintRoundTrip) {
  Snapshot snapshot = MakeSnapshot();
  match::PipelineOptions options;
  options.matcher.t_sim = 0.42;
  options.matcher.use_lsi = false;
  options.schema.max_sample_infoboxes = 17;
  snapshot.meta.options = OptionsFingerprint::From(options);
  std::string path = TempPath("meta_options.snap");
  ASSERT_TRUE(WriteSnapshotFile(snapshot, path).ok());
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->meta.options.has_value());
  EXPECT_TRUE(*loaded->meta.options == OptionsFingerprint::From(options));
  EXPECT_FALSE(*loaded->meta.options ==
               OptionsFingerprint::From(match::PipelineOptions{}));
  std::remove(path.c_str());
}

// The similarity join once had an opt-in fp32-weight mode, recorded as a
// trailing use_exact_cosine = 0 byte of the meta fingerprint. Such a
// snapshot must still map and read, and apply-delta must refuse to extend
// it: the current join cannot reproduce its quantized scores.
TEST(StoreTest, QuantizedFingerprintReadsButCannotBeExtended) {
  Snapshot snapshot = MakeSnapshot();
  snapshot.meta.generation = 1;
  OptionsFingerprint quantized =
      OptionsFingerprint::From(match::PipelineOptions{});
  quantized.use_exact_cosine = false;
  snapshot.meta.options = quantized;
  std::string path = TempPath("meta_quantized.snap");
  ASSERT_TRUE(WriteSnapshotFile(snapshot, path).ok());

  auto mapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto decoded = (*mapped)->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->meta.options.has_value());
  EXPECT_FALSE(decoded->meta.options->use_exact_cosine);
  EXPECT_EQ(decoded->pipelines.size(), 1u);

  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->meta.options.has_value());
  EXPECT_TRUE(*loaded->meta.options == quantized);

  auto matcher = ingest::IncrementalMatcher::FromSnapshot(
      std::move(loaded).ValueOrDie(), match::PipelineOptions{});
  ASSERT_FALSE(matcher.ok());
  EXPECT_EQ(matcher.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(matcher.status().ToString().find("use_exact_cosine=0"),
            std::string::npos)
      << matcher.status().ToString();
  std::remove(path.c_str());
}

// Writers older than the use_exact_cosine field end the fingerprint one
// byte earlier; the reader must take the missing byte as true.
TEST(StoreTest, FingerprintWithoutTrailingByteReadsExact) {
  Snapshot snapshot = MakeSnapshot();
  snapshot.meta.generation = 1;
  snapshot.meta.options = OptionsFingerprint::From(match::PipelineOptions{});
  std::string path = TempPath("meta_short_fingerprint.snap");
  ASSERT_TRUE(WriteSnapshotFile(snapshot, path).ok());
  const std::string bytes = ReadFileBytes(path);

  // Rebuild the image with the meta payload's last byte (the trailing
  // use_exact_cosine = 1) dropped and its section CRC recomputed.
  const auto sections = testing_snapshot::Sections(bytes);
  std::string shortened = bytes.substr(0, testing_snapshot::kHeaderSize);
  testing_snapshot::SetSectionCount(&shortened, 0);
  bool found_meta = false;
  for (const auto& span : sections) {
    std::string payload = bytes.substr(
        span.header_offset + testing_snapshot::kSectionHeaderSize,
        span.payload_size);
    if (span.kind == static_cast<uint32_t>(SectionKind::kMeta)) {
      ASSERT_EQ(payload.back(), '\x01');
      payload.pop_back();
      found_meta = true;
    }
    testing_snapshot::AppendSection(&shortened, span.kind, payload);
  }
  ASSERT_TRUE(found_meta);
  ASSERT_EQ(shortened.size() + 1, bytes.size());
  WriteFileBytes(path, shortened);

  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->meta.options.has_value());
  EXPECT_TRUE(loaded->meta.options->use_exact_cosine);
  EXPECT_TRUE(*loaded->meta.options ==
              OptionsFingerprint::From(match::PipelineOptions{}));
  std::remove(path.c_str());
}

TEST(StoreTest, MetaWithoutFingerprintReadsBackAbsent) {
  // Generation-only meta is exactly the pre-fingerprint payload shape; the
  // reader must report options as absent, not error on the short payload.
  Snapshot snapshot = MakeSnapshot();
  snapshot.meta.generation = 2;
  snapshot.meta.history.push_back({2, 1, 0, 0, 1, 1});
  std::string path = TempPath("meta_legacy.snap");
  ASSERT_TRUE(WriteSnapshotFile(snapshot, path).ok());
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.generation, 2u);
  EXPECT_FALSE(loaded->meta.options.has_value());
  std::remove(path.c_str());
}

TEST(StoreTest, Generation0SnapshotOmitsMetaSection) {
  std::string path = TempPath("gen0.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  std::string bytes = ReadFileBytes(path);
  uint32_t section_count;
  std::memcpy(&section_count, bytes.data() + 8, 4);
  // corpus, dictionary, one pipeline (no meta).
  EXPECT_EQ(section_count, 3u);
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->meta.generation, 0u);
  EXPECT_TRUE(loaded->meta.history.empty());
  std::remove(path.c_str());
}

TEST(StoreTest, SyncReportSectionRoundTripAndOmittedWhenEmpty) {
  // Empty report: no kind-5 section, so pre-sync snapshots keep their
  // exact byte layout (same additive pattern as the meta section).
  std::string path = TempPath("sync_empty.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  std::string bytes = ReadFileBytes(path);
  uint32_t section_count;
  std::memcpy(&section_count, bytes.data() + 8, 4);
  // corpus, dictionary, one pipeline — no kind-5 section.
  EXPECT_EQ(section_count, 3u);
  std::remove(path.c_str());

  Snapshot snapshot = MakeSnapshot();
  snapshot.sync_report.generation = 4;
  snapshot.sync_report.cells.push_back(
      {"pt", "film", "filme x", "film x", "elenco", "starring",
       sync::CellClass::kStale, 0.5});
  snapshot.sync_report.cells.push_back(
      {"pt", "film", "filme x", "film x", "", "country",
       sync::CellClass::kMissing, 0.0});
  snapshot.sync_report.updates.push_back(
      {"en", "pt", "film x", "filme x", "starring", "elenco",
       "[[a]], [[b]]", 0.5});
  path = TempPath("sync_report.snap");
  ASSERT_TRUE(WriteSnapshotFile(snapshot, path).ok());
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->sync_report == snapshot.sync_report);
  // The other sections still load alongside the sync section.
  EXPECT_EQ(loaded->corpus.size(), GetFixture().gc.corpus.size());
  ASSERT_EQ(loaded->pipelines.size(), 1u);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- mmap reader

TEST(MappedSnapshotTest, DecodeMatchesStreamingReaderByteIdentically) {
  // ReadSnapshotFile is Map + Decode; a decoded snapshot re-serializes to
  // exactly the bytes it was read from.
  Snapshot snapshot = MakeSnapshot();
  snapshot.meta.generation = 2;
  snapshot.meta.history.push_back({2, 1, 0, 0, 1, 1});
  snapshot.meta.options = OptionsFingerprint::From(match::PipelineOptions{});
  std::string path = TempPath("mmap_roundtrip.snap");
  ASSERT_TRUE(WriteSnapshotFile(snapshot, path).ok());

  auto mapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->num_sections(), 4u);
  auto via_mmap = (*mapped)->Decode();
  ASSERT_TRUE(via_mmap.ok()) << via_mmap.status().ToString();
  auto via_read = ReadSnapshotFile(path);
  ASSERT_TRUE(via_read.ok()) << via_read.status().ToString();

  std::string mmap_out = TempPath("mmap_roundtrip_a.snap");
  std::string read_out = TempPath("mmap_roundtrip_b.snap");
  ASSERT_TRUE(WriteSnapshotFile(*via_mmap, mmap_out).ok());
  ASSERT_TRUE(WriteSnapshotFile(*via_read, read_out).ok());
  EXPECT_EQ(ReadFileBytes(mmap_out), ReadFileBytes(path));
  EXPECT_EQ(ReadFileBytes(read_out), ReadFileBytes(path));
  EXPECT_EQ(via_mmap->corpus.size(), snapshot.corpus.size());
  EXPECT_EQ(via_mmap->meta.generation, 2u);
  ASSERT_TRUE(via_mmap->meta.options.has_value());
  EXPECT_TRUE(*via_mmap->meta.options ==
              OptionsFingerprint::From(match::PipelineOptions{}));
  std::remove(path.c_str());
  std::remove(mmap_out.c_str());
  std::remove(read_out.c_str());
}

TEST(MappedSnapshotTest, TruncatedFileIsOutOfRangeAtMap) {
  std::string path = TempPath("mmap_truncated.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  std::string bytes = ReadFileBytes(path);
  // Cuts inside the header, a section header, a payload, and the last
  // byte: the header walk reports each before any payload is read.
  for (size_t keep : {size_t{0}, size_t{7}, size_t{20}, bytes.size() / 2,
                      bytes.size() - 1}) {
    WriteFileBytes(path, bytes.substr(0, keep));
    auto mapped = MappedSnapshot::Map(path);
    ASSERT_FALSE(mapped.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(mapped.status().code(), util::StatusCode::kOutOfRange)
        << mapped.status().ToString();
    EXPECT_NE(mapped.status().message().find("truncated"), std::string::npos)
        << mapped.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(MappedSnapshotTest, MissingCorpusOrDictionaryIsRejectedAtMap) {
  // A well-formed file whose only section is the dictionary.
  std::string path = TempPath("no_corpus.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  const std::string bytes = ReadFileBytes(path);
  const auto sections = testing_snapshot::Sections(bytes);
  const auto& dict = sections[1];
  ASSERT_EQ(dict.kind, static_cast<uint32_t>(SectionKind::kDictionary));
  std::string only_dict = bytes.substr(0, 16);
  testing_snapshot::SetSectionCount(&only_dict, 0);
  testing_snapshot::AppendSection(
      &only_dict, dict.kind,
      bytes.substr(dict.header_offset + 16, dict.payload_size));
  WriteFileBytes(path, only_dict);
  auto mapped = MappedSnapshot::Map(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(mapped.status().message().find("lacks a corpus or dictionary"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(MappedSnapshotTest, CorruptSectionDetectedOnFirstLazyTouch) {
  std::string path = TempPath("mmap_corrupt.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  std::string bytes = ReadFileBytes(path);
  // Flip one byte inside the first section's payload (header is 16 bytes,
  // first section header another 16). The section headers stay intact, so
  // Map() succeeds — the damage must surface at first payload touch.
  bytes[33] = static_cast<char>(bytes[33] ^ 0x5A);
  WriteFileBytes(path, bytes);
  auto mapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto payload = (*mapped)->Payload(0);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(payload.status().message().find("CRC"), std::string::npos);
  // The verdict is sticky: a re-touch stays an error, and Decode() (which
  // touches every section) reports it too.
  EXPECT_FALSE((*mapped)->Payload(0).ok());
  auto decoded = (*mapped)->Decode();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(MappedSnapshotTest, UnlinkedWhileMappedKeepsServing) {
  std::string path = TempPath("mmap_unlink.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  auto mapped = MappedSnapshot::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // The mapping holds the pages, not the directory entry: decoding after
  // the file is gone must still see every byte.
  ASSERT_EQ(std::remove(path.c_str()), 0);
  auto decoded = (*mapped)->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->corpus.size(), GetFixture().gc.corpus.size());
  ASSERT_EQ(decoded->pipelines.size(), 1u);
}

TEST(MappedSnapshotTest, DirectoryLayoutReadsIdentically) {
  // Files from earlier writers carry a pad section, a directory section,
  // and an uncounted footer after the content. The reader skips the
  // reserved kinds and the trailing bytes, and decodes them to the
  // snapshot the current layout holds (re-serialized bytes identical).
  std::string path = TempPath("mmap_new.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  const std::string current = ReadFileBytes(path);
  std::string old_path = TempPath("mmap_directory.snap");
  WriteFileBytes(old_path, testing_snapshot::WithDirectoryLayout(current));
  auto mapped = MappedSnapshot::Map(old_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->num_sections(), 5u);
  auto decoded = (*mapped)->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  std::string out = TempPath("mmap_directory_rt.snap");
  ASSERT_TRUE(WriteSnapshotFile(*decoded, out).ok());
  EXPECT_EQ(ReadFileBytes(out), current);
  std::remove(path.c_str());
  std::remove(old_path.c_str());
  std::remove(out.c_str());
}

TEST(StoreTest, PerUnitAlignStatsRoundTrip) {
  const match::PipelineResult& original = GetFixture().result;
  ASSERT_FALSE(original.per_type.empty());
  ASSERT_GT(original.per_type[0].alignment.stats.groups, 0u);
  util::BinaryWriter w;
  match::EncodePipelineResult(original, &w);
  util::BinaryReader r(w.buffer());
  auto decoded = match::DecodePipelineResult(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->stats.type_pairs, original.stats.type_pairs);
  EXPECT_EQ(decoded->stats.align.groups, original.stats.align.groups);
  ASSERT_EQ(decoded->per_type.size(), original.per_type.size());
  for (size_t i = 0; i < original.per_type.size(); ++i) {
    const auto& a = original.per_type[i].alignment.stats;
    const auto& b = decoded->per_type[i].alignment.stats;
    EXPECT_EQ(a.groups, b.groups);
    EXPECT_EQ(a.pairs_total, b.pairs_total);
    EXPECT_EQ(a.pairs_generated, b.pairs_generated);
    EXPECT_EQ(a.pairs_pruned, b.pairs_pruned);
    EXPECT_EQ(a.postings_visited, b.postings_visited);
  }
}

// Rewrites the pipeline section of a written snapshot with its payload cut
// short by `cut` trailing bytes — size and CRC fields updated to match, so
// the file is exactly what an older writer (without the appended stats, or
// with fewer of them) would have produced.
std::string CutPipelinePayload(std::string bytes, size_t cut) {
  size_t pos = 16;
  while (pos + 16 <= bytes.size()) {
    uint32_t kind;
    uint64_t size;
    std::memcpy(&kind, bytes.data() + pos, 4);
    std::memcpy(&size, bytes.data() + pos + 4, 8);
    if (static_cast<SectionKind>(kind) == SectionKind::kPipeline) {
      EXPECT_LT(cut, size);
      uint64_t new_size = size - cut;
      std::string payload = bytes.substr(pos + 16, new_size);
      uint32_t crc = Crc32(payload);
      std::memcpy(bytes.data() + pos + 4, &new_size, 8);
      std::memcpy(bytes.data() + pos + 12, &crc, 4);
      bytes.erase(pos + 16 + new_size, cut);
      return bytes;
    }
    pos += 16 + size;
  }
  ADD_FAILURE() << "no pipeline section found";
  return bytes;
}

// The trailing stats of a pipeline payload (aggregate PipelineStats plus
// the per-unit AlignStats block) are an optional region: a snapshot whose
// payload stops anywhere inside it must load cleanly with the missing
// stats defaulted, never error (forward compatibility with files written
// before each append).
TEST(StoreTest, TruncatedAppendedStatsLoadWithStatsAbsent) {
  const match::PipelineResult& original = GetFixture().result;
  const size_t n = original.per_type.size();
  ASSERT_GT(n, 0u);
  ASSERT_GT(original.stats.align.groups, 0u);
  const size_t per_unit_block = 8 + n * 5 * 8;  // count + 5 counters each
  const size_t aggregate = 14 * 8;              // PipelineStats fields

  std::string path = TempPath("oldstats.snap");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshot(), path).ok());
  const std::string bytes = ReadFileBytes(path);

  struct Case {
    const char* name;
    size_t cut;
    bool aggregate_present;
  } cases[] = {
      // Payload ends right before the aggregate stats (a v1 writer).
      {"no stats at all", per_unit_block + aggregate, false},
      // Payload ends mid-way through the aggregate stats.
      {"inside aggregate stats", per_unit_block + aggregate / 2, false},
      // Aggregate complete, per-unit block absent (an intermediate writer).
      {"no per-unit block", per_unit_block, true},
      // Payload ends mid-way through the per-unit block.
      {"inside per-unit block", per_unit_block / 2, true},
  };
  for (const Case& c : cases) {
    WriteFileBytes(path, CutPipelinePayload(bytes, c.cut));
    auto loaded = ReadSnapshotFile(path);
    ASSERT_TRUE(loaded.ok()) << c.name << ": " << loaded.status().ToString();
    const auto& result = loaded->pipelines.at(LanguagePair("pt", "en"));
    // Alignment content is intact either way.
    ASSERT_EQ(result.per_type.size(), n) << c.name;
    EXPECT_EQ(result.per_type[0].alignment.matches.Clusters(),
              original.per_type[0].alignment.matches.Clusters());
    if (c.aggregate_present) {
      EXPECT_EQ(result.stats.align.groups, original.stats.align.groups)
          << c.name;
    } else {
      EXPECT_EQ(result.stats.align.groups, 0u) << c.name;
      EXPECT_EQ(result.stats.type_pairs, 0u) << c.name;
    }
    // The per-unit stats are absent (defaulted) in every truncated case.
    EXPECT_EQ(result.per_type[0].alignment.stats.groups, 0u) << c.name;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace store
}  // namespace wikimatch
