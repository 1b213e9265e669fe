// Unit tests for the evaluation module: MatchSet semantics (transitive vs
// pairwise), the paper's weighted precision/recall (validated against the
// worked Example 4 of Section 4), macro scores, MAP, cumulative gain, and
// schema overlap.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eval/match_set.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "match/serialize.h"
#include "match_set_oracle.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace wikimatch {
namespace eval {
namespace {

AttrKey A(const std::string& lang, const std::string& name) {
  return AttrKey{lang, name};
}

// ---------------------------------------------------------------- MatchSet

TEST(MatchSetTest, TransitiveMergesClusters) {
  MatchSet m;
  m.AddPair(A("en", "a"), A("pt", "b"));
  m.AddPair(A("pt", "b"), A("pt", "c"));
  EXPECT_TRUE(m.AreMatched(A("en", "a"), A("pt", "c")));
  EXPECT_EQ(m.NumClusters(), 1u);
  EXPECT_EQ(m.ClusterOf(A("en", "a")).size(), 3u);
}

TEST(MatchSetTest, PairwiseDoesNotClose) {
  MatchSet m(/*transitive=*/false);
  m.AddPair(A("pt", "a1"), A("en", "b"));
  m.AddPair(A("pt", "a2"), A("en", "b"));
  EXPECT_TRUE(m.AreMatched(A("pt", "a1"), A("en", "b")));
  EXPECT_TRUE(m.AreMatched(A("pt", "a2"), A("en", "b")));
  // No fabricated a1~a2 relation.
  EXPECT_FALSE(m.AreMatched(A("pt", "a1"), A("pt", "a2")));
  // But connected components still form one cluster for reporting.
  EXPECT_EQ(m.Clusters().size(), 1u);
}

TEST(MatchSetTest, AddClusterPairwiseRecordsAllPairs) {
  MatchSet m(false);
  m.AddCluster({A("en", "x"), A("pt", "y"), A("pt", "z")});
  EXPECT_TRUE(m.AreMatched(A("en", "x"), A("pt", "z")));
  EXPECT_TRUE(m.AreMatched(A("pt", "y"), A("pt", "z")));
}

TEST(MatchSetTest, CrossLanguagePairsFiltersByLanguage) {
  MatchSet m;
  m.AddCluster({A("en", "died"), A("pt", "falecimento"), A("pt", "morte")});
  auto pairs = m.CrossLanguagePairs("pt", "en");
  ASSERT_EQ(pairs.size(), 2u);
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(a.language, "pt");
    EXPECT_EQ(b.language, "en");
    EXPECT_EQ(b.name, "died");
  }
}

TEST(MatchSetTest, ContainsAndEmpty) {
  MatchSet m;
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.Contains(A("en", "a")));
  m.AddPair(A("en", "a"), A("pt", "b"));
  EXPECT_FALSE(m.empty());
  EXPECT_TRUE(m.Contains(A("en", "a")));
}

TEST(MatchSetTest, CorrespondentsExcludeSelfAndOtherLanguages) {
  MatchSet m;
  m.AddCluster({A("en", "born"), A("pt", "nascimento"),
                A("pt", "data de nascimento"), A("vi", "sinh")});
  auto pt = m.CorrespondentsOf(A("en", "born"), "pt");
  EXPECT_EQ(pt.size(), 2u);
  auto en = m.CorrespondentsOf(A("en", "born"), "en");
  EXPECT_TRUE(en.empty());
}

TEST(MatchSetTest, DeterministicClusters) {
  MatchSet m1;
  MatchSet m2;
  // Insert in different orders; clusters must come out identical.
  m1.AddPair(A("en", "a"), A("pt", "b"));
  m1.AddPair(A("en", "c"), A("pt", "d"));
  m2.AddPair(A("en", "c"), A("pt", "d"));
  m2.AddPair(A("en", "a"), A("pt", "b"));
  EXPECT_EQ(m1.Clusters(), m2.Clusters());
}

// Every lookup of `m` agrees with the union-find reference `ref` on every
// key of `universe`, and both encode to the same bytes.
void ExpectSameAsOracle(const MatchSet& m,
                        const match_set_oracle::MatchSet& ref,
                        const std::vector<AttrKey>& universe,
                        const std::vector<std::string>& langs,
                        const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(m.NumClusters(), ref.NumClusters());
  ASSERT_EQ(m.Clusters(), ref.Clusters());
  for (const AttrKey& a : universe) {
    ASSERT_EQ(m.Contains(a), ref.Contains(a)) << a.language << ":" << a.name;
    ASSERT_EQ(m.ClusterOf(a), ref.ClusterOf(a)) << a.language << ":" << a.name;
    for (const std::string& lang : langs) {
      ASSERT_EQ(m.CorrespondentsOf(a, lang), ref.CorrespondentsOf(a, lang));
    }
    for (const AttrKey& b : universe) {
      ASSERT_EQ(m.AreMatched(a, b), ref.AreMatched(a, b))
          << a.language << ":" << a.name << " " << b.language << ":"
          << b.name;
    }
  }
  for (const std::string& lang_a : langs) {
    for (const std::string& lang_b : langs) {
      ASSERT_EQ(m.CrossLanguagePairs(lang_a, lang_b),
                ref.CrossLanguagePairs(lang_a, lang_b));
      ASSERT_EQ(m.AttributesWithCorrespondents(lang_a, lang_b),
                ref.AttributesWithCorrespondents(lang_a, lang_b));
    }
  }
  util::BinaryWriter w;
  match::EncodeMatchSet(m, &w);
  const std::string bytes = w.TakeBuffer();
  ASSERT_EQ(bytes, ref.Encode());
  util::BinaryReader r(bytes);
  auto decoded = match::DecodeMatchSet(&r);
  ASSERT_TRUE(decoded.ok());
  util::BinaryWriter again;
  match::EncodeMatchSet(*decoded, &again);
  ASSERT_EQ(again.TakeBuffer(), bytes);
}

// Random AddPair/AddCluster sequences over three languages, checked
// against the union-find reference after every step.
TEST(MatchSetTest, TransitiveLookupsMatchUnionFindReference) {
  const std::vector<std::string> langs = {"en", "pt", "vi"};
  const std::vector<std::string> names = {"", "a", "ab", "b", "born",
                                          "data de nascimento", "z"};
  std::vector<AttrKey> universe;
  for (const auto& lang : langs) {
    for (const auto& name : names) universe.push_back(A(lang, name));
  }
  universe.push_back(A("de", "a"));  // a language no step adds
  util::Rng rng(29);
  auto random_key = [&] {
    return universe[rng.NextBounded(universe.size() - 1)];
  };
  for (int trial = 0; trial < 60; ++trial) {
    MatchSet m;
    match_set_oracle::MatchSet ref;
    const int steps = static_cast<int>(rng.NextBounded(25));
    for (int step = 0; step < steps; ++step) {
      if (rng.NextBool(0.6)) {
        const AttrKey a = random_key();
        const AttrKey b = rng.NextBool(0.1) ? a : random_key();
        m.AddPair(a, b);
        ref.AddPair(a, b);
      } else {
        std::vector<AttrKey> cluster(rng.NextBounded(6));
        for (AttrKey& key : cluster) key = random_key();
        m.AddCluster(cluster);
        ref.AddCluster(cluster);
      }
      ExpectSameAsOracle(m, ref, universe, langs,
                         "trial " + std::to_string(trial) + " step " +
                             std::to_string(step));
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(m.empty(), ref.NumClusters() == 0);
  }
}

// Const lookups on one shared set make no writes: four threads read a set
// no thread has read before (run under TSan by tools/check.sh).
TEST(MatchSetTest, ConcurrentConstLookupsOnAFreshSet) {
  MatchSet m;
  std::vector<AttrKey> keys;
  for (int i = 0; i < 40; ++i) {
    keys.push_back(A(i % 2 == 0 ? "en" : "pt", std::to_string(i)));
  }
  // A chain of unions, so a lazy union-find would hold deep paths.
  for (size_t i = keys.size() - 1; i > 0; --i) {
    m.AddPair(keys[i], keys[i - 1]);
  }
  m.AddPair(A("vi", "alone"), A("vi", "other"));
  const std::set<AttrKey> want(keys.begin(), keys.end());
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (const AttrKey& key : keys) {
          if (m.ClusterOf(key) != want) ++failures[t];
          if (!m.AreMatched(key, keys[0])) ++failures[t];
          if (m.AreMatched(key, A("vi", "alone"))) ++failures[t];
          if (!m.Contains(key)) ++failures[t];
          if (m.CorrespondentsOf(key, "vi").size() != 0) ++failures[t];
        }
        if (m.NumClusters() != 2) ++failures[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures, std::vector<int>(4, 0));
}

// -------------------------------------------------------- Weighted scores

// The paper's Example 4, verbatim: S_T = {a1, a2}, S'_T = {a'1, a'2, a'3},
// frequencies (0.6, 0.4) and (0.5, 0.3, 0.2),
// G = {{a1~a'1~a'2}, {a2~a'3}}, M = {{a1~a'1}, {a2~a'3}}.
// Expected: Precision = 1, Recall = 0.775.
TEST(WeightedPrfTest, PaperExample4) {
  MatchSet truth;
  truth.AddCluster({A("L", "a1"), A("L2", "b1"), A("L2", "b2")});
  truth.AddCluster({A("L", "a2"), A("L2", "b3")});
  MatchSet derived;
  derived.AddPair(A("L", "a1"), A("L2", "b1"));
  derived.AddPair(A("L", "a2"), A("L2", "b3"));
  AttrFrequencies freq = {
      {A("L", "a1"), 0.6},  {A("L", "a2"), 0.4},  {A("L2", "b1"), 0.5},
      {A("L2", "b2"), 0.3}, {A("L2", "b3"), 0.2},
  };
  Prf prf = WeightedPrf(derived, truth, freq, "L", "L2");
  EXPECT_NEAR(prf.precision, 1.0, 1e-9);
  EXPECT_NEAR(prf.recall, 0.775, 1e-9);
  EXPECT_NEAR(prf.f1, 2 * 1.0 * 0.775 / 1.775, 1e-9);
}

TEST(WeightedPrfTest, EmptyDerivedGivesZero) {
  MatchSet truth;
  truth.AddPair(A("pt", "a"), A("en", "b"));
  MatchSet derived;
  Prf prf = WeightedPrf(derived, truth, {}, "pt", "en");
  EXPECT_EQ(prf.precision, 0.0);
  EXPECT_EQ(prf.recall, 0.0);
  EXPECT_EQ(prf.f1, 0.0);
}

TEST(WeightedPrfTest, PerfectDerivationScoresOne) {
  MatchSet truth;
  truth.AddPair(A("pt", "a"), A("en", "b"));
  truth.AddPair(A("pt", "c"), A("en", "d"));
  Prf prf = WeightedPrf(truth, truth, {}, "pt", "en");
  EXPECT_NEAR(prf.precision, 1.0, 1e-9);
  EXPECT_NEAR(prf.recall, 1.0, 1e-9);
}

TEST(WeightedPrfTest, WrongMatchHurtsPrecisionNotRecallWeighting) {
  MatchSet truth;
  truth.AddPair(A("pt", "a"), A("en", "b"));
  MatchSet derived;
  derived.AddPair(A("pt", "a"), A("en", "wrong"));
  Prf prf = WeightedPrf(derived, truth, {}, "pt", "en");
  EXPECT_EQ(prf.precision, 0.0);
  EXPECT_EQ(prf.recall, 0.0);
}

TEST(WeightedPrfTest, FrequencyWeightingFavorsFrequentAttributes) {
  MatchSet truth;
  truth.AddPair(A("pt", "common"), A("en", "c"));
  truth.AddPair(A("pt", "rare"), A("en", "r"));
  MatchSet derived;
  derived.AddPair(A("pt", "common"), A("en", "c"));  // only the common one
  AttrFrequencies freq = {{A("pt", "common"), 99.0}, {A("pt", "rare"), 1.0}};
  Prf weighted = WeightedPrf(derived, truth, freq, "pt", "en");
  EXPECT_NEAR(weighted.recall, 0.99, 1e-9);
  Prf unweighted = WeightedPrf(derived, truth, {}, "pt", "en");
  EXPECT_NEAR(unweighted.recall, 0.5, 1e-9);
}

// ------------------------------------------------------------ Macro scores

TEST(MacroPrfTest, CountsDistinctPairs) {
  MatchSet truth;
  truth.AddCluster({A("pt", "a"), A("en", "b"), A("en", "b2")});
  MatchSet derived;
  derived.AddPair(A("pt", "a"), A("en", "b"));
  derived.AddPair(A("pt", "x"), A("en", "y"));  // wrong
  Prf prf = MacroPrf(derived, truth, "pt", "en");
  EXPECT_NEAR(prf.precision, 0.5, 1e-9);  // 1 of 2 derived pairs correct
  EXPECT_NEAR(prf.recall, 0.5, 1e-9);     // 1 of 2 truth pairs found
}

TEST(AveragePrfTest, ElementWiseMean) {
  Prf a = Prf::Of(1.0, 0.5);
  Prf b = Prf::Of(0.5, 1.0);
  Prf avg = AveragePrf({a, b});
  EXPECT_NEAR(avg.precision, 0.75, 1e-9);
  EXPECT_NEAR(avg.recall, 0.75, 1e-9);
  EXPECT_TRUE(AveragePrf({}).f1 == 0.0);
}

// --------------------------------------------------------------------- MAP

TEST(MapTest, PerfectOrderingIsOne) {
  MatchSet truth;
  truth.AddPair(A("pt", "a"), A("en", "b"));
  std::vector<std::pair<AttrKey, AttrKey>> ranked = {
      {A("pt", "a"), A("en", "b")},
      {A("pt", "a"), A("en", "x")},
  };
  EXPECT_NEAR(MeanAveragePrecision(ranked, truth, "pt"), 1.0, 1e-9);
}

TEST(MapTest, CorrectAtRankTwoIsHalf) {
  MatchSet truth;
  truth.AddPair(A("pt", "a"), A("en", "b"));
  std::vector<std::pair<AttrKey, AttrKey>> ranked = {
      {A("pt", "a"), A("en", "x")},
      {A("pt", "a"), A("en", "b")},
  };
  EXPECT_NEAR(MeanAveragePrecision(ranked, truth, "pt"), 0.5, 1e-9);
}

TEST(MapTest, AveragesAcrossAttributes) {
  MatchSet truth;
  truth.AddPair(A("pt", "a"), A("en", "b"));
  truth.AddPair(A("pt", "c"), A("en", "d"));
  std::vector<std::pair<AttrKey, AttrKey>> ranked = {
      {A("pt", "a"), A("en", "b")},  // AP(a) = 1
      {A("pt", "c"), A("en", "x")},
      {A("pt", "c"), A("en", "d")},  // AP(c) = 1/2
  };
  EXPECT_NEAR(MeanAveragePrecision(ranked, truth, "pt"), 0.75, 1e-9);
}

TEST(MapTest, AttributesWithNoCorrectMatchAreSkipped) {
  MatchSet truth;
  truth.AddPair(A("pt", "a"), A("en", "b"));
  std::vector<std::pair<AttrKey, AttrKey>> ranked = {
      {A("pt", "a"), A("en", "b")},
      {A("pt", "nomatch"), A("en", "x")},
  };
  EXPECT_NEAR(MeanAveragePrecision(ranked, truth, "pt"), 1.0, 1e-9);
}

// ------------------------------------------------------------------- CG

TEST(CumulativeGainTest, PrefixSums) {
  auto cg = CumulativeGain({3.0, 0.0, 2.0});
  ASSERT_EQ(cg.size(), 3u);
  EXPECT_EQ(cg[0], 3.0);
  EXPECT_EQ(cg[1], 3.0);
  EXPECT_EQ(cg[2], 5.0);
}

TEST(CumulativeGainTest, EmptyInput) {
  EXPECT_TRUE(CumulativeGain({}).empty());
}

// --------------------------------------------------------------- Overlap

TEST(SchemaOverlapTest, IdenticalMatchedSchemasOverlapFully) {
  MatchSet truth;
  truth.AddPair(A("pt", "a"), A("en", "a'"));
  truth.AddPair(A("pt", "b"), A("en", "b'"));
  double overlap = SchemaOverlap({"a", "b"}, {"a'", "b'"}, "pt", "en", truth);
  EXPECT_NEAR(overlap, 1.0, 1e-9);
}

TEST(SchemaOverlapTest, DisjointSchemasOverlapZero) {
  MatchSet truth;
  truth.AddPair(A("pt", "a"), A("en", "a'"));
  double overlap = SchemaOverlap({"x"}, {"y"}, "pt", "en", truth);
  EXPECT_EQ(overlap, 0.0);
}

TEST(SchemaOverlapTest, PartialOverlap) {
  MatchSet truth;
  truth.AddPair(A("pt", "a"), A("en", "a'"));
  // pt side: {a, b}; en side: {a'}; intersection = (1 + 1)/2 = 1;
  // union = 3 - 1 = 2.
  double overlap = SchemaOverlap({"a", "b"}, {"a'"}, "pt", "en", truth);
  EXPECT_NEAR(overlap, 0.5, 1e-9);
}

TEST(SchemaOverlapTest, EmptySchemas) {
  MatchSet truth;
  EXPECT_EQ(SchemaOverlap({}, {}, "pt", "en", truth), 0.0);
}

// ----------------------------------------------------------------- Table

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"x", "1.00"});
  t.AddRow({"longer", "2"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 2     |"), std::string::npos);
}

TEST(TableTest, NumFormatsFixedDecimals) {
  EXPECT_EQ(Table::Num(0.5), "0.50");
  EXPECT_EQ(Table::Num(1.0 / 3.0, 3), "0.333");
}

TEST(TableTest, MissingAndExtraCells) {
  Table t({"a", "b"});
  t.AddRow({"only"});
  t.AddRow({"x", "y", "dropped"});
  std::string s = t.ToString();
  EXPECT_EQ(s.find("dropped"), std::string::npos);
}

}  // namespace
}  // namespace eval
}  // namespace wikimatch
