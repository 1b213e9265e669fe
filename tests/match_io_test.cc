// Tests for match/dictionary serialization.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>

#include "match/match_io.h"

namespace wikimatch {
namespace match {
namespace {

eval::AttrKey A(const std::string& lang, const std::string& name) {
  return eval::AttrKey{lang, name};
}

TEST(MatchIoTest, MatchSetsRoundTrip) {
  TypeMatchSets original;
  original["film"].AddCluster(
      {A("en", "directed by"), A("pt", "direção")});
  original["film"].AddCluster(
      {A("en", "born"), A("pt", "nascimento"),
       A("pt", "data de nascimento")});
  original["actor"].AddPair(A("en", "spouse"), A("pt", "cônjuge"));

  auto loaded = ReadMatchSets(WriteMatchSets(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_TRUE(loaded->at("film").AreMatched(A("en", "directed by"),
                                            A("pt", "direção")));
  EXPECT_TRUE(loaded->at("film").AreMatched(A("pt", "nascimento"),
                                            A("pt", "data de nascimento")));
  EXPECT_FALSE(loaded->at("film").AreMatched(A("en", "directed by"),
                                             A("en", "born")));
  EXPECT_TRUE(loaded->at("actor").AreMatched(A("en", "spouse"),
                                             A("pt", "cônjuge")));
}

TEST(MatchIoTest, EmptyAndComments) {
  auto loaded = ReadMatchSets("# only a comment\n\n");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(MatchIoTest, MalformedRowIsError) {
  auto loaded = ReadMatchSets("film\ten\tonly three fields\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos);
}

TEST(MatchIoTest, FileRoundTrip) {
  TypeMatchSets original;
  original["film"].AddPair(A("en", "genre"), A("vi", "thể loại"));
  std::string path = ::testing::TempDir() + "/matches.tsv";
  ASSERT_TRUE(SaveMatchSets(original, path).ok());
  auto loaded = LoadMatchSets(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->at("film").AreMatched(A("en", "genre"),
                                            A("vi", "thể loại")));
  std::remove(path.c_str());
  EXPECT_FALSE(LoadMatchSets(path).ok());
}

// A directory given as `--matches` opens but cannot be read: an IoError
// naming the path, not an abort from sizing a buffer by seeking.
TEST(MatchIoTest, DirectoryIsIoError) {
  const std::string dir = ::testing::TempDir();
  auto loaded = LoadMatchSets(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find(dir), std::string::npos)
      << loaded.status().ToString();
}

// /dev/full accepts the open and the buffered write; the flush at close
// fails. That is an IoError naming the path, not a silent success.
TEST(MatchIoTest, SaveToFullDeviceIsIoError) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  TypeMatchSets original;
  original["film"].AddPair(A("en", "genre"), A("vi", "thể loại"));
  util::Status saved = SaveMatchSets(original, "/dev/full");
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), util::StatusCode::kIoError);
  EXPECT_NE(saved.message().find("/dev/full"), std::string::npos)
      << saved.ToString();
}

// A pipe reports no size; it must be read to EOF.
TEST(MatchIoTest, PipeLoads) {
  TypeMatchSets original;
  original["film"].AddPair(A("en", "genre"), A("vi", "thể loại"));
  const std::string tsv = WriteMatchSets(original);
  ASSERT_LT(tsv.size(), 4096u);  // fits the pipe buffer: no writer thread
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], tsv.data(), tsv.size()),
            static_cast<ssize_t>(tsv.size()));
  ::close(fds[1]);
  auto loaded = LoadMatchSets("/dev/fd/" + std::to_string(fds[0]));
  ::close(fds[0]);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->at("film").AreMatched(A("en", "genre"),
                                            A("vi", "thể loại")));
}

TEST(MatchIoTest, DictionaryRoundTrip) {
  TranslationDictionary original;
  original.Add("pt", "o último imperador", "en", "the last emperor");
  original.Add("vi", "hoàng đế cuối cùng", "en", "the last emperor");
  auto loaded = ReadDictionary(WriteDictionary(original));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(
      loaded->TranslateOrKeep("pt", "o último imperador", "en"),
      "the last emperor");
}

TEST(MatchIoTest, DictionaryMalformedRow) {
  EXPECT_FALSE(ReadDictionary("pt\tonly\ttwo\n").ok());
}

}  // namespace
}  // namespace match
}  // namespace wikimatch
