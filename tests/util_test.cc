// Unit and property tests for the util substrate: Status/Result, the
// deterministic RNG, string helpers, the UTF-8 codec, and whole-file I/O.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <set>

#include "util/file_io.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/utf8.h"

namespace wikimatch {
namespace util {
namespace {

// ------------------------------------------------------------------ Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::IoError("disk").WithContext("reading dump");
  EXPECT_EQ(s.message(), "reading dump: disk");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    WIKIMATCH_RETURN_NOT_OK(Status::InvalidArgument("bad"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kInvalidArgument);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

// ------------------------------------------------------------------ Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto outer = [&](bool fail) -> Status {
    WIKIMATCH_ASSIGN_OR_RETURN(int v, inner(fail));
    EXPECT_EQ(v, 7);
    return Status::OK();
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_EQ(outer(true).code(), StatusCode::kInternal);
}

// --------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All values hit.
}

TEST(RngTest, NextBoolEdgeProbabilities) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    size_t pick = rng.NextWeighted({0.0, 1.0, 0.0});
    EXPECT_EQ(pick, 1u);
  }
}

TEST(RngTest, WeightedDistribution) {
  Rng rng(21);
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) counts[rng.NextWeighted({3.0, 1.0})]++;
  EXPECT_NEAR(static_cast<double>(counts[0]) / 10000.0, 0.75, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(31);
  Rng child1 = parent.Fork(1);
  Rng parent2(31);
  Rng child2 = parent2.Fork(1);
  EXPECT_EQ(child1.NextU64(), child2.NextU64());  // Reproducible.
  Rng child3 = parent.Fork(2);
  EXPECT_NE(child1.NextU64(), child3.NextU64());
}

TEST(ZipfSamplerTest, RankZeroMostProbable) {
  ZipfSampler zipf(10, 1.0);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(9));
  double total = 0.0;
  for (uint64_t r = 0; r < 10; ++r) total += zipf.Pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, SamplesInRange) {
  ZipfSampler zipf(5, 1.2);
  Rng rng(37);
  int counts[5] = {0};
  for (int i = 0; i < 5000; ++i) counts[zipf.Sample(&rng)]++;
  EXPECT_GT(counts[0], counts[4]);
}

// Parameterized property: NextZipf always lands in [0, n).
class ZipfRangeTest : public ::testing::TestWithParam<uint64_t> {};
TEST_P(ZipfRangeTest, InRange) {
  Rng rng(41 + GetParam());
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.NextZipf(GetParam(), 1.0), GetParam());
  }
}
INSTANTIATE_TEST_SUITE_P(Sizes, ZipfRangeTest,
                         ::testing::Values(1, 2, 7, 40, 1000));

// ------------------------------------------------------------ string_util

TEST(StringUtilTest, SplitBasics) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a::b", "::"), (std::vector<std::string>{"a", "b"}));
}

TEST(StringUtilTest, JoinInvertsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("x"), "x");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(AsciiToLower("MiXeD 123"), "mixed 123");
  EXPECT_TRUE(EqualsIgnoreAsciiCase("AbC", "aBc"));
  EXPECT_FALSE(EqualsIgnoreAsciiCase("abc", "abd"));
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("infobox film", "infobox"));
  EXPECT_FALSE(StartsWith("info", "infobox"));
  EXPECT_TRUE(EndsWith("produção", "ção"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a_b_c", "_", " "), "a b c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

TEST(StringUtilTest, CollapseWhitespace) {
  EXPECT_EQ(CollapseWhitespace("  a \t b\n\nc  "), "a b c");
  EXPECT_EQ(CollapseWhitespace(""), "");
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 0.125), "0.12");
}

// -------------------------------------------------------------------- UTF-8

TEST(Utf8Test, AsciiRoundTrip) {
  std::string s = "hello world 123";
  EXPECT_EQ(EncodeUtf8(DecodeUtf8(s)), s);
  EXPECT_EQ(Utf8Length(s), s.size());
}

TEST(Utf8Test, MultiByteRoundTrip) {
  // Portuguese and Vietnamese sample covering 2- and 3-byte sequences.
  std::string s = "direção đạo diễn ngôn ngữ";
  EXPECT_TRUE(IsValidUtf8(s));
  EXPECT_EQ(EncodeUtf8(DecodeUtf8(s)), s);
  EXPECT_LT(Utf8Length(s), s.size());
}

TEST(Utf8Test, FourByteSequence) {
  std::string s = "\xF0\x9F\x98\x80";  // U+1F600
  auto cps = DecodeUtf8(s);
  ASSERT_EQ(cps.size(), 1u);
  EXPECT_EQ(cps[0], 0x1F600u);
  EXPECT_EQ(EncodeUtf8(cps), s);
}

TEST(Utf8Test, InvalidBytesBecomeReplacement) {
  std::string s = "a\xFF\x62";
  auto cps = DecodeUtf8(s);
  ASSERT_EQ(cps.size(), 3u);
  EXPECT_EQ(cps[1], kReplacementChar);
  EXPECT_FALSE(IsValidUtf8(s));
}

TEST(Utf8Test, TruncatedSequence) {
  std::string s = "\xC3";  // Lead byte with no continuation.
  auto cps = DecodeUtf8(s);
  ASSERT_EQ(cps.size(), 1u);
  EXPECT_EQ(cps[0], kReplacementChar);
}

TEST(Utf8Test, OverlongEncodingRejected) {
  std::string s = "\xC0\xAF";  // Overlong '/'.
  EXPECT_FALSE(IsValidUtf8(s));
}

TEST(Utf8Test, SurrogateRejected) {
  std::string s = "\xED\xA0\x80";  // U+D800.
  EXPECT_FALSE(IsValidUtf8(s));
}

TEST(Utf8Test, LiteralReplacementCharIsValid) {
  std::string s = "\xEF\xBF\xBD";  // U+FFFD itself.
  EXPECT_TRUE(IsValidUtf8(s));
}

TEST(Utf8Test, EncodeInvalidCodePointYieldsReplacement) {
  std::string out;
  AppendUtf8(0x110000, &out);
  EXPECT_EQ(out, "\xEF\xBF\xBD");
}

// Property: round-trip over all BMP boundaries.
class Utf8RoundTripTest : public ::testing::TestWithParam<char32_t> {};
TEST_P(Utf8RoundTripTest, EncodeDecode) {
  std::string out;
  AppendUtf8(GetParam(), &out);
  size_t pos = 0;
  char32_t back = DecodeUtf8Char(out, &pos);
  EXPECT_EQ(back, GetParam());
  EXPECT_EQ(pos, out.size());
}
INSTANTIATE_TEST_SUITE_P(Boundaries, Utf8RoundTripTest,
                         ::testing::Values(0x1u, 0x7Fu, 0x80u, 0x7FFu, 0x800u,
                                           0xFFFFu, 0x10000u, 0x10FFFFu));

// ----------------------------------------------------------------- file I/O

// A directory opens but cannot be read: an IoError naming the path, not an
// abort from sizing a buffer by seeking.
TEST(FileIoTest, ReadingADirectoryIsIoError) {
  const std::string dir = ::testing::TempDir();
  auto read = ReadFile(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find(dir), std::string::npos)
      << read.status().ToString();
}

// A pipe reports no size; it must be read to EOF.
TEST(FileIoTest, ReadsAPipeToEof) {
  const std::string content = "en\tgenre\nvi\tthể loại\n";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], content.data(), content.size()),
            static_cast<ssize_t>(content.size()));
  ::close(fds[1]);
  auto read = ReadFile("/dev/fd/" + std::to_string(fds[0]));
  ::close(fds[0]);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, content);
}

// /dev/full accepts the open and the buffered write; the flush at close
// fails. That is an IoError naming the path, not a silent success.
TEST(FileIoTest, WritingToAFullDeviceIsIoError) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  Status written = WriteFile("/dev/full", "en\tgenre\n");
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kIoError);
  EXPECT_NE(written.message().find("/dev/full"), std::string::npos)
      << written.ToString();
}

}  // namespace
}  // namespace util
}  // namespace wikimatch
