// Unit tests for the query module: the c-query parser, the evaluator
// (including hyperlink joins) and its differential test against the
// reference scan in query_oracle.h, the match-driven translator with
// relaxation, and the case-study machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "query/c_query.h"
#include "query/case_study.h"
#include "query/evaluator.h"
#include "query/translator.h"
#include "query_oracle.h"
#include "synth/generator.h"
#include "text/normalize.h"
#include "util/rng.h"
#include "wiki/wikitext_parser.h"

namespace wikimatch {
namespace query {
namespace {

// ------------------------------------------------------------------ Parser

TEST(CQueryParserTest, SimpleQuery) {
  auto q = ParseCQuery("actor(born=\"brazil\", website=?)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->parts.size(), 1u);
  EXPECT_EQ(q->parts[0].type, "actor");
  ASSERT_EQ(q->parts[0].constraints.size(), 2u);
  EXPECT_EQ(q->parts[0].constraints[0].value, "brazil");
  EXPECT_TRUE(q->parts[0].constraints[1].is_projection);
}

TEST(CQueryParserTest, Conjunction) {
  auto q = ParseCQuery(
      "actor(born=\"brazil\") and film(award=\"oscar\")");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->parts.size(), 2u);
  EXPECT_EQ(q->parts[1].type, "film");
}

TEST(CQueryParserTest, AttributeAlternation) {
  auto q = ParseCQuery(
      "diretor(nascimento|data de nascimento >= 1970)");
  ASSERT_TRUE(q.ok());
  const Constraint& c = q->parts[0].constraints[0];
  ASSERT_EQ(c.attributes.size(), 2u);
  EXPECT_EQ(c.attributes[0], "nascimento");
  EXPECT_EQ(c.attributes[1], "data de nascimento");
  EXPECT_EQ(c.op, Op::kGe);
  EXPECT_EQ(c.number, 1970.0);
}

TEST(CQueryParserTest, NumericOperators) {
  for (const auto& [text, op] :
       std::vector<std::pair<std::string, Op>>{{"<", Op::kLt},
                                               {">", Op::kGt},
                                               {"<=", Op::kLe},
                                               {">=", Op::kGe}}) {
    auto q = ParseCQuery("filme(receita " + text + " 10000000)");
    ASSERT_TRUE(q.ok()) << text;
    EXPECT_EQ(q->parts[0].constraints[0].op, op);
    EXPECT_TRUE(q->parts[0].constraints[0].is_numeric);
  }
}

TEST(CQueryParserTest, UnicodeAttributeNames) {
  auto q = ParseCQuery("phim(đạo diễn=?, thể loại=\"rock\")");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->parts[0].constraints[0].attributes[0], "đạo diễn");
}

TEST(CQueryParserTest, Errors) {
  EXPECT_FALSE(ParseCQuery("").ok());
  EXPECT_FALSE(ParseCQuery("actor").ok());
  EXPECT_FALSE(ParseCQuery("actor(born=)").ok());
  EXPECT_FALSE(ParseCQuery("actor(born=\"x) ").ok());
  EXPECT_FALSE(ParseCQuery("actor(born<abc)").ok());
  EXPECT_FALSE(ParseCQuery("actor(born<?)").ok());
  EXPECT_FALSE(ParseCQuery("actor(born=1) garbage").ok());
}

TEST(CQueryParserTest, ToStringRoundTrips) {
  auto q = ParseCQuery("actor(born>=1970, website=?) and film(name=\"x\")");
  ASSERT_TRUE(q.ok());
  auto q2 = ParseCQuery(q->ToString());
  ASSERT_TRUE(q2.ok()) << q->ToString();
  EXPECT_EQ(q2->parts.size(), 2u);
  EXPECT_EQ(q2->ToString(), q->ToString());
}

// --------------------------------------------------------------- Evaluator

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wiki::WikitextParser parser;
    auto add = [&](const std::string& title, const std::string& lang,
                   const std::string& text) {
      auto article = parser.ParseArticle(title, lang, text);
      ASSERT_TRUE(article.ok());
      ASSERT_TRUE(corpus_.AddArticle(std::move(article).ValueOrDie()).ok());
    };
    add("Actor One", "en",
        "{{Infobox actor\n| born = june 4 1950, [[Brazil]]\n"
        "| occupation = [[politician]]\n}}\n");
    add("Actor Two", "en",
        "{{Infobox actor\n| born = may 1 1980, [[France]]\n"
        "| occupation = [[actor work|acting]]\n}}\n");
    add("Film One", "en",
        "{{Infobox film\n| starring = [[Actor One]], [[Actor Two]]\n"
        "| gross = US$ 50000000\n}}\n");
    add("Film Two", "en",
        "{{Infobox film\n| starring = [[Actor Two]]\n"
        "| gross = US$ 1000\n}}\n");
    corpus_.Finalize();
  }

  std::vector<Answer> Run(const std::string& text) {
    auto q = ParseCQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    QueryEvaluator evaluator(&corpus_, "en");
    auto answers = evaluator.Run(*q);
    EXPECT_TRUE(answers.ok()) << answers.status().ToString();
    return std::move(answers).ValueOrDie();
  }

  wiki::Corpus corpus_;
};

TEST_F(EvaluatorTest, EqualityOnLinkedValue) {
  auto answers = Run("actor(born=\"brazil\")");
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(corpus_.Get(answers[0].article).title, "actor one");
}

TEST_F(EvaluatorTest, NumericComparisonUsesLargestNumber) {
  // born = "june 4 1950": the year, not the day, must drive comparisons.
  EXPECT_EQ(Run("actor(born<1975)").size(), 1u);
  EXPECT_EQ(Run("actor(born<1700)").size(), 0u);
  EXPECT_EQ(Run("actor(born>1975)").size(), 1u);
}

TEST_F(EvaluatorTest, ProjectionRequiresPresence) {
  auto answers = Run("actor(occupation=?)");
  EXPECT_EQ(answers.size(), 2u);
  ASSERT_FALSE(answers[0].projections.empty());
}

TEST_F(EvaluatorTest, JoinThroughHyperlinks) {
  // Films starring an actor who is a politician: Film One only.
  auto answers =
      Run("film(gross=?) and actor(occupation=\"politician\")");
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(corpus_.Get(answers[0].article).title, "film one");
}

TEST_F(EvaluatorTest, JoinWithUnsatisfiableSecondaryIsEmpty) {
  EXPECT_EQ(Run("film(gross=?) and actor(occupation=\"astronaut\")").size(),
            0u);
}

TEST_F(EvaluatorTest, UnknownTypeIsNotFound) {
  auto q = ParseCQuery("martian(name=?)");
  ASSERT_TRUE(q.ok());
  QueryEvaluator evaluator(&corpus_, "en");
  EXPECT_FALSE(evaluator.Run(*q).ok());
}

TEST_F(EvaluatorTest, TopKTruncates) {
  auto q = ParseCQuery("actor(born=?)");
  ASSERT_TRUE(q.ok());
  QueryEvaluator evaluator(&corpus_, "en");
  EvaluatorOptions options;
  options.top_k = 1;
  auto answers = evaluator.Run(*q, options);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);
}

// ------------------------------------------------------------ QueryOracle
//
// The indexed evaluator must answer exactly like the reference per-article
// scan (query_oracle.h): the same status code and message, and the same
// ids, scores and projections in the same order.

constexpr size_t kAll = std::numeric_limits<size_t>::max();

// Returns the number of answers (0 on an error status).
size_t ExpectSameAsOracle(const QueryEvaluator& indexed,
                          const query_oracle::QueryEvaluator& oracle,
                          const CQuery& q, size_t top_k,
                          const std::string& label) {
  EvaluatorOptions options;
  options.top_k = top_k;
  auto got = indexed.Run(q, options);
  auto want = oracle.Run(q, options);
  EXPECT_EQ(got.ok(), want.ok()) << label;
  if (!got.ok() || !want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << label;
    EXPECT_EQ(got.status().message(), want.status().message()) << label;
    return 0;
  }
  EXPECT_EQ(got->size(), want->size()) << label;
  for (size_t i = 0; i < std::min(got->size(), want->size()); ++i) {
    EXPECT_EQ((*got)[i].article, (*want)[i].article) << label << " #" << i;
    EXPECT_EQ((*got)[i].score, (*want)[i].score) << label << " #" << i;
    EXPECT_EQ((*got)[i].projections, (*want)[i].projections)
        << label << " #" << i;
  }
  return want->size();
}

Constraint Eq(const std::string& attr, const std::string& value) {
  Constraint c;
  c.attributes = {attr};
  c.value = value;
  return c;
}

Constraint Projection(std::vector<std::string> attrs) {
  Constraint c;
  c.attributes = std::move(attrs);
  c.is_projection = true;
  return c;
}

Constraint Numeric(const std::string& attr, Op op, double number) {
  Constraint c;
  c.attributes = {attr};
  c.op = op;
  c.number = number;
  c.is_numeric = true;
  return c;
}

CQuery Single(const std::string& type, std::vector<Constraint> constraints) {
  CQuery q;
  q.parts.push_back(TypeQuery{type, std::move(constraints)});
  return q;
}

// Equality constants that exercise one value: each searchable string whole,
// a middle substring and a short prefix of each, and constants that
// straddle two adjacent strings (which match only where they also occur
// inside one string).
std::vector<std::string> ConstantsOf(const wiki::AttributeValue& value) {
  std::vector<std::string> strings = {text::NormalizeValue(value.text)};
  for (const auto& link : value.links) {
    strings.push_back(text::NormalizeValue(link.anchor));
    strings.push_back(link.target);
  }
  std::vector<std::string> out;
  for (size_t i = 0; i < strings.size(); ++i) {
    const std::string& s = strings[i];
    if (s.empty()) continue;
    out.push_back(s);
    out.push_back(s.substr(s.size() / 3, std::max<size_t>(1, s.size() / 3)));
    out.push_back(s.substr(0, std::min<size_t>(3, s.size())));
    if (i + 1 < strings.size() && !strings[i + 1].empty()) {
      out.push_back(s.substr(s.size() - std::min<size_t>(3, s.size())) +
                    strings[i + 1].substr(0, 3));
    }
  }
  return out;
}

class QueryOracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(0.05));
    auto g = generator.Generate();
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    gc_ = new synth::GeneratedCorpus(std::move(g).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete gc_;
    gc_ = nullptr;
  }
  static const wiki::Corpus& corpus() { return gc_->corpus; }
  static synth::GeneratedCorpus* gc_;
};

synth::GeneratedCorpus* QueryOracleTest::gc_ = nullptr;

TEST_F(QueryOracleTest, EveryTypeAndAttributeMatchesOracle) {
  size_t queries = 0;
  size_t answered = 0;
  for (const std::string lang : {"en", "pt", "vi"}) {
    QueryEvaluator indexed(&corpus(), lang);
    query_oracle::QueryEvaluator oracle(&corpus(), lang);
    for (const std::string& type : corpus().TypesIn(lang)) {
      const auto& ids = corpus().ArticlesOfType(lang, type);
      // Up to five values per attribute, spread over the type's articles;
      // later duplicates of a name are included, and their constants must
      // not match through the first value.
      std::map<std::string, std::vector<const wiki::AttributeValue*>> values;
      for (size_t k = 0; k < ids.size(); k += 1 + ids.size() / 7) {
        for (const auto& [name, value] :
             corpus().Get(ids[k]).infobox->attributes) {
          auto& list = values[name];
          if (list.size() < 5) list.push_back(&value);
        }
      }
      for (const auto& [name, list] : values) {
        const std::string label = lang + ":" + type + "." + name;
        std::set<std::string> constants;
        for (const wiki::AttributeValue* value : list) {
          for (auto& c : ConstantsOf(*value)) constants.insert(std::move(c));
        }
        for (const std::string& constant : constants) {
          answered += ExpectSameAsOracle(indexed, oracle,
                                         Single(type, {Eq(name, constant)}),
                                         kAll, label + "=" + constant) > 0;
          ++queries;
        }
        ExpectSameAsOracle(indexed, oracle, Single(type, {Projection({name})}),
                           kAll, label + "=?");
        for (Op op : {Op::kLt, Op::kGt, Op::kLe, Op::kGe}) {
          ExpectSameAsOracle(indexed, oracle,
                             Single(type, {Numeric(name, op, 1990)}), kAll,
                             label + " op 1990");
        }
        queries += 5;
      }
    }
  }
  EXPECT_GT(queries, 2000u);
  // Most constants are drawn from values that hold them.
  EXPECT_GT(answered, queries / 2);
}

// A corpus written by hand: values whose strings abut in the column blob,
// NUL bytes, repeated attributes, and numbers strtod reads unusually.
class QueryOracleEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Add("a", {{"x", "abc def", {{"xyz", "def"}}},
              {"n", "0x1A", {}},
              {"x", "second value", {}}});
    Add("b", {{"x", std::string("nul\0byte", 8), {}},
              {"n", "1e999", {}},
              {"y", "", {}}});
    Add("c", {{"x", "  Mixed   CASE  ", {{"Target Title", " Anchor  Text "}}},
              {"n", "4 de junho de 1975", {}}});
    Add("d", {{"n", "-5 and 7.5e2", {}}, {"y", "no digits", {}}});
    Add("e", {{"n", ".5", {}}, {"x", "", {{"", ""}}}});
    // Column z, for the search's edge cases: repeated bytes, and the
    // column blob's last string ("tail end", the text of "i").
    Add("f", {{"z", "aaaa", {}}});
    Add("g", {{"z", "abcab ababa", {{"Q", "q"}}}});
    Add("h", {{"z", "x", {}}});
    Add("i", {{"z", "tail end", {}}});
    corpus_.Finalize();
  }

  struct Cell {
    std::string name;
    std::string text;
    std::vector<wiki::Hyperlink> links;  // {target, anchor}
  };

  void Add(const std::string& title, const std::vector<Cell>& cells) {
    wiki::Article article;
    article.title = title;
    article.language = "en";
    article.infobox.emplace();
    article.infobox->template_type = "thing";
    for (const auto& cell : cells) {
      wiki::AttributeValue value;
      value.text = cell.text;
      value.links = cell.links;
      article.infobox->attributes.emplace_back(cell.name, std::move(value));
    }
    ASSERT_TRUE(corpus_.AddArticle(std::move(article)).ok());
  }

  std::vector<std::string> Titles(const CQuery& q) {
    QueryEvaluator indexed(&corpus_, "en");
    query_oracle::QueryEvaluator oracle(&corpus_, "en");
    ExpectSameAsOracle(indexed, oracle, q, kAll, q.ToString());
    std::vector<std::string> out;
    auto answers = indexed.Run(q, {kAll});
    if (!answers.ok()) return out;
    for (const auto& a : *answers) out.push_back(corpus_.Get(a.article).title);
    return out;
  }

  wiki::Corpus corpus_;
};

TEST_F(QueryOracleEdgeTest, ConstantSpanningTwoStringsDoesNotMatch) {
  // Row "a".x holds "abc def" | "def" | "xyz" back to back.
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "defdef")})),
            std::vector<std::string>{});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "efx")})),
            std::vector<std::string>{});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "fxyz")})),
            std::vector<std::string>{});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "def")})),
            std::vector<std::string>{"a"});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "xyz")})),
            std::vector<std::string>{"a"});
  // "c".x: "mixed case" | "anchor text" | "Target Title" (targets are not
  // normalized).
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "caseanchor")})),
            std::vector<std::string>{});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "target title")})),
            std::vector<std::string>{});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "Target Title")})),
            std::vector<std::string>{"c"});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "mixed case")})),
            std::vector<std::string>{"c"});
}

// Anchors and targets the text does not contain are searched too.
TEST_F(QueryOracleEdgeTest, AnchorsAndTargetsOutsideTheTextMatch) {
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "anchor text")})),
            std::vector<std::string>{"c"});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "chor")})),
            std::vector<std::string>{"c"});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "Target")})),
            std::vector<std::string>{"c"});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "yz")})),
            std::vector<std::string>{"a"});
}

TEST_F(QueryOracleEdgeTest, SearchEdgeCases) {
  // A one-byte constant.
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "x")})),
            std::vector<std::string>{"h"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "b")})),
            std::vector<std::string>{"g"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "q")})),
            std::vector<std::string>{"g"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "aq")})),
            std::vector<std::string>{});
  // First and last bytes that repeat, inside and across strings.
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "aa")})),
            std::vector<std::string>{"f"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "aaa")})),
            std::vector<std::string>{"f"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "aaaaa")})),
            std::vector<std::string>{});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "aba")})),
            std::vector<std::string>{"g"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "abab")})),
            std::vector<std::string>{"g"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "abba")})),
            std::vector<std::string>{});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "ax")})),
            std::vector<std::string>{});
  // A constant that ends exactly at the end of the column blob.
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "end")})),
            std::vector<std::string>{"i"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "d")})),
            std::vector<std::string>{"i"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "endx")})),
            std::vector<std::string>{});
  // A constant equal to a whole string.
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "aaaa")})),
            std::vector<std::string>{"f"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "tail end")})),
            std::vector<std::string>{"i"});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "abcab ababa")})),
            std::vector<std::string>{"g"});
  // A constant longer than every string (and than the whole column).
  EXPECT_EQ(Titles(Single("thing", {Eq("z", "abcab ababa tail end")})),
            std::vector<std::string>{});
  EXPECT_EQ(Titles(Single("thing", {Eq("z", std::string(64, 'a'))})),
            std::vector<std::string>{});
}

TEST_F(QueryOracleEdgeTest, OnlyTheFirstOfRepeatedAttributesCounts) {
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "second")})),
            std::vector<std::string>{});
}

TEST_F(QueryOracleEdgeTest, EmptyConstantMeansPresent) {
  EXPECT_EQ(Titles(Single("thing", {Eq("x", "")})),
            (std::vector<std::string>{"a", "b", "c", "e"}));
  EXPECT_EQ(Titles(Single("thing", {Eq("y", "")})),
            (std::vector<std::string>{"b", "d"}));
}

TEST_F(QueryOracleEdgeTest, ConstantWithNul) {
  EXPECT_EQ(Titles(Single("thing", {Eq("x", std::string("l\0b", 3))})),
            std::vector<std::string>{"b"});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", std::string("\0", 1))})),
            std::vector<std::string>{"b"});
  EXPECT_EQ(Titles(Single("thing", {Eq("x", std::string("c\0", 2))})),
            std::vector<std::string>{});
}

TEST_F(QueryOracleEdgeTest, NumericOperators) {
  // Largest numbers: a 26 (hex), b inf, c 1975, d 750, e 5 (no sign or
  // leading dot is read).
  for (Op op : {Op::kLt, Op::kGt, Op::kLe, Op::kGe}) {
    for (double constant : {-10.0, 0.5, 26.0, 750.0, 1975.0, 1e308,
                            std::numeric_limits<double>::infinity()}) {
      Titles(Single("thing", {Numeric("n", op, constant)}));
      Titles(Single("thing", {Numeric("y", op, constant)}));
    }
  }
  EXPECT_EQ(Titles(Single("thing", {Numeric("n", Op::kLe, 26)})),
            (std::vector<std::string>{"a", "e"}));
  EXPECT_EQ(Titles(Single("thing", {Numeric("n", Op::kGt, 1e308)})),
            std::vector<std::string>{"b"});
  EXPECT_EQ(Titles(Single("thing", {Numeric("y", Op::kGe, -1e308)})),
            std::vector<std::string>{});
}

TEST_F(QueryOracleEdgeTest, EmptyQueryAndUnknownTypes) {
  Titles(CQuery{});
  Titles(Single("nothing", {Projection({"x"})}));
  CQuery join = Single("thing", {Projection({"x"})});
  join.parts.push_back(TypeQuery{"nothing", {Projection({"x"})}});
  EXPECT_EQ(Titles(join), std::vector<std::string>{});
}

TEST_F(QueryOracleTest, ProjectionsAlternationsAndJoins) {
  QueryEvaluator indexed(&corpus(), "en");
  query_oracle::QueryEvaluator oracle(&corpus(), "en");
  const std::vector<std::string> texts = {
      "film(starring=?, directed by|director=?)",
      "film(director|directed by=?, starring=?, gross > 1000000)",
      "film(released < 1990, running time=?)",
      "film(starring=?) and actor(born=?)",
      "film(gross=?) and actor(occupation=?)",
      "film(starring=?) and actor(born < 1960)",
      "film(name=?) and actor(born > 1950) and film(gross=?)",
      "actor(born=?) and film(starring=?)",
      "film(starring=?) and nonexistent(x=?)",
      "nonexistent(x=?) and film(starring=?)",
      "film(nonexistent=?)",
      "film(starring|nonexistent=?, nonexistent|starring=?)",
  };
  for (const auto& text : texts) {
    auto q = ParseCQuery(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    for (size_t top_k : {size_t{0}, size_t{1}, size_t{20}, kAll}) {
      ExpectSameAsOracle(indexed, oracle, *q, top_k, text);
    }
  }
  // Joins whose secondary part is constrained by values of real articles.
  const auto& actors = corpus().ArticlesOfType("en", "actor");
  ASSERT_FALSE(actors.empty());
  for (size_t k = 0; k < actors.size(); k += 1 + actors.size() / 10) {
    for (const auto& [name, value] :
         corpus().Get(actors[k]).infobox->attributes) {
      for (const std::string& constant : ConstantsOf(value)) {
        CQuery q = Single("film", {Projection({"starring"})});
        q.parts.push_back(TypeQuery{"actor", {Eq(name, constant)}});
        ExpectSameAsOracle(indexed, oracle, q, kAll, q.ToString());
      }
    }
  }
}

TEST_F(QueryOracleTest, MutatedQueryTextsMatchOracle) {
  std::vector<QueryEvaluator> indexed;
  std::vector<query_oracle::QueryEvaluator> oracles;
  const std::vector<std::string> langs = {"en", "pt", "vi"};
  for (const auto& lang : langs) {
    indexed.emplace_back(&corpus(), lang);
    oracles.emplace_back(&corpus(), lang);
  }
  // Seeds: the case-study workload rendered in every language,
  std::vector<std::pair<size_t, std::string>> seeds;
  for (const auto& cq : BuildCaseQueries(*gc_)) {
    for (size_t l = 0; l < langs.size(); ++l) {
      auto rendered = RenderSurfaceQuery(cq, *gc_, langs[l]);
      if (rendered.ok()) seeds.emplace_back(l, rendered->ToString());
    }
  }
  // and broad projections over each type's leading attributes.
  for (size_t l = 0; l < langs.size(); ++l) {
    for (const std::string& type : corpus().TypesIn(langs[l])) {
      const wiki::Infobox& box =
          *corpus().Get(corpus().ArticlesOfType(langs[l], type)[0]).infobox;
      if (box.attributes.size() < 2) continue;
      seeds.emplace_back(l, type + "(" + box.attributes[0].first + "=?, " +
                                box.attributes[1].first + "=?)");
    }
  }
  ASSERT_GE(seeds.size(), 40u);
  util::Rng rng(20111);
  size_t parsed = 0;
  size_t answered = 0;
  for (int round = 0; round < 500; ++round) {
    const auto& [l, seed] = seeds[rng.NextBounded(seeds.size())];
    std::string text = seed;
    const int edits = 1 + static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const size_t pos = rng.NextBounded(text.size());
      switch (rng.NextBounded(6)) {
        case 0:
          text.erase(pos, 1);
          break;
        case 1:
          text.insert(pos, text.substr(pos, rng.NextBounded(6) + 1));
          break;
        case 2:
          text[pos] = "()|=<>?,\" 0123456789"[rng.NextBounded(20)];
          break;
        case 3:
          text[pos] = static_cast<char>(rng.NextBounded(256));
          break;
        case 4:  // the parser normalizes case and spacing away
          text[pos] = static_cast<char>(
              std::toupper(static_cast<unsigned char>(text[pos])));
          break;
        case 5:
          text.insert(pos, "  ");
          break;
      }
    }
    auto q = ParseCQuery(text);
    if (!q.ok()) continue;
    ++parsed;
    ExpectSameAsOracle(indexed[l], oracles[l], *q, 20, text);
    answered += ExpectSameAsOracle(indexed[l], oracles[l], *q, kAll, text) > 0;
  }
  // Most edits land in a type or attribute name, which empties the answer;
  // 351 texts parse and 45 have answers.
  EXPECT_GE(parsed, 250u);
  EXPECT_GE(answered, 30u);
}

// -------------------------------------------------------------- Translator

class TranslatorTest : public ::testing::Test {
 protected:
  TranslatorTest() {
    matches_.AddPair({"pt", "nascimento"}, {"en", "born"});
    matches_.AddPair({"pt", "data de nascimento"}, {"en", "born"});
    matches_.AddPair({"pt", "ocupação"}, {"en", "occupation"});
    attribute_matches_["actor"] = &matches_;
    type_matches_.push_back({"ator", "actor", 10, 1.0});
    dictionary_.Add("pt", "brasil", "en", "brazil");
  }

  QueryTranslator MakeTranslator() {
    return QueryTranslator("pt", "en", type_matches_, attribute_matches_,
                           &dictionary_);
  }

  eval::MatchSet matches_;
  std::map<std::string, const eval::MatchSet*> attribute_matches_;
  std::vector<match::TypeMatch> type_matches_;
  match::TranslationDictionary dictionary_;
};

TEST_F(TranslatorTest, TranslatesTypeAttributesAndValues) {
  auto q = ParseCQuery("ator(nascimento=\"brasil\", ocupação=?)");
  ASSERT_TRUE(q.ok());
  TranslationReport report;
  auto translated = MakeTranslator().Translate(*q, &report);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();
  EXPECT_EQ(translated->parts[0].type, "actor");
  EXPECT_EQ(translated->parts[0].constraints[0].attributes[0], "born");
  EXPECT_EQ(translated->parts[0].constraints[0].value, "brazil");
  EXPECT_EQ(report.constraints_translated, 2u);
  EXPECT_EQ(report.constraints_relaxed, 0u);
}

TEST_F(TranslatorTest, AlternationMergesCorrespondents) {
  auto q = ParseCQuery("ator(nascimento|data de nascimento < 1975)");
  ASSERT_TRUE(q.ok());
  auto translated = MakeTranslator().Translate(*q);
  ASSERT_TRUE(translated.ok());
  // Both alternatives map to "born"; duplicates are tolerable but at least
  // one "born" must be present.
  const auto& attrs = translated->parts[0].constraints[0].attributes;
  EXPECT_NE(std::find(attrs.begin(), attrs.end(), "born"), attrs.end());
}

TEST_F(TranslatorTest, RelaxesUntranslatableConstraint) {
  auto q = ParseCQuery("ator(sem correspondencia=\"x\", ocupação=?)");
  ASSERT_TRUE(q.ok());
  TranslationReport report;
  auto translated = MakeTranslator().Translate(*q, &report);
  ASSERT_TRUE(translated.ok());
  EXPECT_EQ(translated->parts[0].constraints.size(), 1u);
  EXPECT_EQ(report.constraints_relaxed, 1u);
}

TEST_F(TranslatorTest, DropsUnmappedType) {
  auto q = ParseCQuery("livro(nome=?) and ator(ocupação=?)");
  ASSERT_TRUE(q.ok());
  TranslationReport report;
  auto translated = MakeTranslator().Translate(*q, &report);
  ASSERT_TRUE(translated.ok());
  ASSERT_EQ(translated->parts.size(), 1u);
  EXPECT_EQ(translated->parts[0].type, "actor");
  EXPECT_EQ(report.parts_dropped, 1u);
}

TEST_F(TranslatorTest, FullyUntranslatableQueryFails) {
  auto q = ParseCQuery("livro(nome=?)");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(MakeTranslator().Translate(*q).ok());
}

// -------------------------------------------------------------- CaseStudy

class CaseStudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(55));
    auto g = generator.Generate();
    ASSERT_TRUE(g.ok());
    gc_ = new synth::GeneratedCorpus(std::move(g).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete gc_;
    gc_ = nullptr;
  }
  static synth::GeneratedCorpus* gc_;
};

synth::GeneratedCorpus* CaseStudyTest::gc_ = nullptr;

TEST_F(CaseStudyTest, BuildsQueriesForAvailableTypes) {
  auto queries = BuildCaseQueries(*gc_);
  // Tiny corpus has film + actor: at least the film/actor patterns apply.
  EXPECT_GE(queries.size(), 4u);
  for (const auto& q : queries) {
    EXPECT_FALSE(q.constraints.empty());
    EXPECT_TRUE(q.type == "film" || q.type == "actor") << q.type;
  }
}

TEST_F(CaseStudyTest, SurfaceQueriesRenderPerLanguage) {
  auto queries = BuildCaseQueries(*gc_);
  ASSERT_FALSE(queries.empty());
  auto en = RenderSurfaceQuery(queries[0], *gc_, "en");
  auto pt = RenderSurfaceQuery(queries[0], *gc_, "pt");
  ASSERT_TRUE(en.ok());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(en->parts[0].type, "film");
  EXPECT_EQ(pt->parts[0].type, "filme");
  EXPECT_FALSE(pt->parts[0].constraints.empty());
}

TEST_F(CaseStudyTest, UnknownTypeFailsToRender) {
  CaseQuery cq;
  cq.type = "nonexistent";
  EXPECT_FALSE(RenderSurfaceQuery(cq, *gc_, "en").ok());
}

TEST_F(CaseStudyTest, OracleJudgesFactsNotSurface) {
  auto queries = BuildCaseQueries(*gc_);
  ASSERT_FALSE(queries.empty());
  RelevanceOracle oracle(gc_);
  // A support article title is not an entity: judged 0.
  EXPECT_EQ(oracle.Judge(queries[0], "en",
                         gc_->supports.places[0].titles.at("en")),
            0.0);
  // Entities of the wrong type score 0 too.
  for (const auto& rec : gc_->entities) {
    if (rec.type != queries[0].type) {
      EXPECT_EQ(oracle.Judge(queries[0], "en", rec.titles.at("en")), 0.0);
      break;
    }
  }
}

TEST_F(CaseStudyTest, JoinQueryRendersAndJudges) {
  auto queries = BuildCaseQueries(*gc_);
  const CaseQuery* join = nullptr;
  for (const auto& q : queries) {
    if (!q.join_type.empty()) join = &q;
  }
  ASSERT_NE(join, nullptr) << "workload must contain a join query";
  EXPECT_EQ(join->type, "film");
  EXPECT_EQ(join->join_type, "actor");
  auto rendered = RenderSurfaceQuery(*join, *gc_, "en");
  ASSERT_TRUE(rendered.ok());
  ASSERT_EQ(rendered->parts.size(), 2u);
  EXPECT_EQ(rendered->parts[1].type, "actor");
  // The join query must be answerable end-to-end.
  QueryEvaluator evaluator(&gc_->corpus, "en");
  auto answers = evaluator.Run(*rendered);
  ASSERT_TRUE(answers.ok());
  RelevanceOracle oracle(gc_);
  double best = 0.0;
  for (const auto& a : *answers) {
    best = std::max(best, oracle.Judge(*join, "en",
                                       gc_->corpus.Get(a.article).title));
  }
  EXPECT_EQ(best, 4.0);
}

TEST_F(CaseStudyTest, CrossrefFactsPointAtActorEntities) {
  bool found = false;
  for (const auto& rec : gc_->entities) {
    if (rec.type != "film") continue;
    auto fact_it = rec.facts.find("starring");
    if (fact_it == rec.facts.end()) continue;
    if (fact_it->second.crossref_type.empty()) continue;
    found = true;
    EXPECT_EQ(fact_it->second.crossref_type, "actor");
    for (int ref : fact_it->second.refs) {
      ASSERT_GE(ref, 0);
      ASSERT_LT(static_cast<size_t>(ref), gc_->entities.size());
      EXPECT_EQ(gc_->entities[static_cast<size_t>(ref)].type, "actor");
    }
    break;
  }
  EXPECT_TRUE(found);
}

TEST_F(CaseStudyTest, OracleScaleIsZeroToFour) {
  auto queries = BuildCaseQueries(*gc_);
  RelevanceOracle oracle(gc_);
  for (const auto& q : queries) {
    for (const auto& rec : gc_->entities) {
      if (!rec.titles.count("en")) continue;
      double score = oracle.Judge(q, "en", rec.titles.at("en"));
      EXPECT_GE(score, 0.0);
      EXPECT_LE(score, 4.0);
    }
  }
}

}  // namespace
}  // namespace query
}  // namespace wikimatch
