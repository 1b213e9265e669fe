// Unit tests for the wiki substrate: wikitext/infobox parsing (including
// the tricky nesting cases), the XML dump reader, and the Corpus store.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "util/binary_io.h"
#include "wiki/corpus.h"
#include "wiki/dump_reader.h"
#include "wiki/serialize.h"
#include "wiki/wikitext_parser.h"

namespace wikimatch {
namespace wiki {
namespace {

// ----------------------------------------------------------------- Parser

const char kFilmArticle[] = R"(
{{Infobox film
| name = The Last Emperor
| directed by = [[Bernardo Bertolucci]]
| starring = {{ubl|[[John Lone]]|[[Joan Chen]]|[[Peter O'Toole|O'Toole]]}}
| music by = [[Ryuichi Sakamoto]], [[David Byrne]]
| release date = [[november 18]] 1987
| running time = 160 minutes <!-- theatrical -->
| country = [[Italy]], [[United Kingdom|UK]]
| budget = US$ 23000000<ref>Box Office Mojo</ref>
| language = english
}}

'''The Last Emperor''' is a 1987 film.<ref name="a">Some citation</ref>

[[category:1987 films]]
[[Category:Films directed by Bernardo Bertolucci]]
[[pt:O Último Imperador]]
[[vi:Hoàng đế cuối cùng]]
)";

class ParserTest : public ::testing::Test {
 protected:
  WikitextParser parser_;

  Article Parse(const std::string& text, const std::string& title = "Test",
                const std::string& lang = "en") {
    auto result = parser_.ParseArticle(title, lang, text);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).ValueOrDie();
  }
};

TEST_F(ParserTest, ExtractsInfoboxType) {
  Article a = Parse(kFilmArticle, "The Last Emperor");
  ASSERT_TRUE(a.infobox.has_value());
  EXPECT_EQ(a.infobox->template_type, "film");
  EXPECT_EQ(a.infobox->template_name, "infobox film");
}

TEST_F(ParserTest, ExtractsAttributeValuePairs) {
  Article a = Parse(kFilmArticle);
  const Infobox& box = a.infobox.value();
  EXPECT_EQ(box.attributes.size(), 9u);
  const AttributeValue* director = box.Find("directed by");
  ASSERT_NE(director, nullptr);
  EXPECT_EQ(director->text, "Bernardo Bertolucci");
  ASSERT_EQ(director->links.size(), 1u);
  EXPECT_EQ(director->links[0].target, "bernardo bertolucci");
}

TEST_F(ParserTest, FlattensNestedTemplates) {
  Article a = Parse(kFilmArticle);
  const AttributeValue* starring = a.infobox->Find("starring");
  ASSERT_NE(starring, nullptr);
  ASSERT_EQ(starring->links.size(), 3u);
  EXPECT_EQ(starring->links[2].target, "peter o'toole");
  EXPECT_EQ(starring->links[2].anchor, "O'Toole");
  EXPECT_NE(starring->text.find("John Lone"), std::string::npos);
}

TEST_F(ParserTest, PipedLinkAnchors) {
  Article a = Parse(kFilmArticle);
  const AttributeValue* country = a.infobox->Find("country");
  ASSERT_NE(country, nullptr);
  ASSERT_EQ(country->links.size(), 2u);
  EXPECT_EQ(country->links[1].target, "united kingdom");
  EXPECT_EQ(country->links[1].anchor, "UK");
  EXPECT_EQ(country->text, "Italy, UK");
}

TEST_F(ParserTest, StripsCommentsAndRefs) {
  Article a = Parse(kFilmArticle);
  const AttributeValue* runtime = a.infobox->Find("running time");
  ASSERT_NE(runtime, nullptr);
  EXPECT_EQ(runtime->text, "160 minutes");
  const AttributeValue* budget = a.infobox->Find("budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_EQ(budget->text, "US$ 23000000");
}

TEST_F(ParserTest, CollectsCategories) {
  Article a = Parse(kFilmArticle);
  ASSERT_EQ(a.categories.size(), 2u);
  EXPECT_EQ(a.categories[0], "1987 films");
}

TEST_F(ParserTest, CollectsCrossLanguageLinks) {
  Article a = Parse(kFilmArticle);
  ASSERT_EQ(a.cross_language_links.size(), 2u);
  EXPECT_EQ(a.cross_language_links.at("pt"), "o último imperador");
  EXPECT_EQ(a.cross_language_links.at("vi"), "hoàng đế cuối cùng");
}

TEST_F(ParserTest, PortugueseInfoTemplate) {
  Article a = Parse(
      "{{Info filme\n| direção = [[Bernardo Bertolucci]]\n"
      "| gênero = [[drama]]\n}}\n[[en:The Last Emperor]]\n",
      "O Último Imperador", "pt");
  ASSERT_TRUE(a.infobox.has_value());
  EXPECT_EQ(a.infobox->template_type, "filme");
  EXPECT_NE(a.infobox->Find("direção"), nullptr);
  EXPECT_NE(a.infobox->Find("gênero"), nullptr);
}

TEST_F(ParserTest, VietnameseInfoboxTemplate) {
  Article a = Parse(
      "{{Hộp thông tin phim\n| đạo diễn = [[Trần Anh Hùng]]\n}}\n",
      "Mùi đu đủ xanh", "vi");
  ASSERT_TRUE(a.infobox.has_value());
  EXPECT_EQ(a.infobox->template_type, "phim");
  EXPECT_NE(a.infobox->Find("đạo diễn"), nullptr);
}

TEST_F(ParserTest, SkipsNonInfoboxTemplates) {
  Article a = Parse(
      "{{Other template|x=1}}\n{{Infobox book\n| author = [[X Y]]\n}}\n");
  ASSERT_TRUE(a.infobox.has_value());
  EXPECT_EQ(a.infobox->template_type, "book");
}

TEST_F(ParserTest, NoInfobox) {
  Article a = Parse("Just '''prose''' and a [[link]].\n");
  EXPECT_FALSE(a.infobox.has_value());
}

TEST_F(ParserTest, EmptyValuedAttributesDropped) {
  Article a = Parse("{{Infobox film\n| name = X\n| budget = \n}}\n");
  ASSERT_TRUE(a.infobox.has_value());
  EXPECT_EQ(a.infobox->attributes.size(), 1u);
}

TEST_F(ParserTest, UnbalancedBracesDegradeGracefully) {
  Article a = Parse("{{Infobox film\n| name = X\n");  // Never closed.
  EXPECT_FALSE(a.infobox.has_value());
}

TEST_F(ParserTest, PipeInsideLinkIsNotASeparator) {
  Article a = Parse(
      "{{Infobox film\n| starring = [[A|The A]] and [[B|The B]]\n}}\n");
  ASSERT_TRUE(a.infobox.has_value());
  ASSERT_EQ(a.infobox->attributes.size(), 1u);
  EXPECT_EQ(a.infobox->Find("starring")->links.size(), 2u);
}

TEST_F(ParserTest, RejectsEmptyTitleOrLanguage) {
  EXPECT_FALSE(parser_.ParseArticle("", "en", "x").ok());
  EXPECT_FALSE(parser_.ParseArticle("T", "", "x").ok());
}

TEST_F(ParserTest, SchemaDeduplicatesAttributes) {
  Article a = Parse(
      "{{Infobox film\n| name = A\n| name = B\n| budget = 1\n}}\n");
  EXPECT_EQ(a.infobox->Schema(),
            (std::vector<std::string>{"name", "budget"}));
}

TEST(StripTest, Comments) {
  EXPECT_EQ(WikitextParser::StripComments("a<!-- x -->b"), "ab");
  EXPECT_EQ(WikitextParser::StripComments("a<!-- unterminated"), "a");
  EXPECT_EQ(WikitextParser::StripComments("plain"), "plain");
}

TEST(StripTest, Refs) {
  EXPECT_EQ(WikitextParser::StripRefs("a<ref>x</ref>b"), "ab");
  EXPECT_EQ(WikitextParser::StripRefs("a<ref name=\"n\"/>b"), "ab");
  EXPECT_EQ(WikitextParser::StripRefs("a<ref name=n>x</ref>b"), "ab");
}

TEST(FindTemplateTest, NestingAware) {
  std::string s = "x {{a {{b}} c}} y {{d}}";
  size_t begin = 0;
  size_t end = 0;
  ASSERT_TRUE(FindTemplate(s, 0, &begin, &end));
  EXPECT_EQ(s.substr(begin, end - begin), "{{a {{b}} c}}");
  ASSERT_TRUE(FindTemplate(s, end, &begin, &end));
  EXPECT_EQ(s.substr(begin, end - begin), "{{d}}");
  EXPECT_FALSE(FindTemplate(s, end, &begin, &end));
}

// ------------------------------------------------------------- DumpReader

TEST(XmlEscapeTest, RoundTrip) {
  std::string nasty = "a <b> & \"c\" 'd' ção";
  EXPECT_EQ(XmlUnescape(XmlEscape(nasty)), nasty);
}

TEST(XmlUnescapeTest, NumericEntities) {
  EXPECT_EQ(XmlUnescape("&#65;&#x42;"), "AB");
  EXPECT_EQ(XmlUnescape("&#231;"), "ç");
  EXPECT_EQ(XmlUnescape("&unknown;"), "&unknown;");
}

// A run of bare '&' must unescape in linear time: an entity is looked for
// only within 12 bytes of its '&'.
TEST(XmlUnescapeTest, LinearOnBareAmpersands) {
  const std::string s(size_t{1} << 20, '&');
  const auto start = std::chrono::steady_clock::now();
  const std::string out = XmlUnescape(s);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(out, s);
  EXPECT_LT(seconds, 5.0) << "1 MiB of '&' took " << seconds << " s";
}

TEST(DumpReaderTest, ParsesPages) {
  std::string xml =
      "<mediawiki><page><title>A &amp; B</title><ns>0</ns>"
      "<revision><text xml:space=\"preserve\">{{Infobox film}}</text>"
      "</revision></page>"
      "<page><title>Redirect</title><ns>0</ns><redirect/>"
      "<revision><text>#REDIRECT [[A]]</text></revision></page>"
      "</mediawiki>";
  auto pages = ParseDump(xml);
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ(pages->size(), 2u);
  EXPECT_EQ((*pages)[0].title, "A & B");
  EXPECT_EQ((*pages)[0].text, "{{Infobox film}}");
  EXPECT_FALSE((*pages)[0].is_redirect);
  EXPECT_TRUE((*pages)[1].is_redirect);
}

TEST(DumpReaderTest, WriteThenParseRoundTrip) {
  std::vector<DumpPage> pages = {
      {"Página <especial>", 0, false, "{{Info filme\n| direção = [[X]]\n}}"},
      {"Other", 0, true, "#REDIRECT [[Página]]"},
  };
  auto parsed = ParseDump(WriteDump(pages, "pt"));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].title, pages[0].title);
  EXPECT_EQ((*parsed)[0].text, pages[0].text);
  EXPECT_TRUE((*parsed)[1].is_redirect);
}

TEST(DumpReaderTest, ErrorsOnUnterminatedPage) {
  EXPECT_FALSE(ParseDump("<page><title>X</title>").ok());
  EXPECT_FALSE(ParseDump("<page>no title</page>").ok());
}

TEST(DumpReaderTest, MissingFile) {
  EXPECT_FALSE(ReadDumpFile("/nonexistent/path.xml").ok());
}

// Parsing must be linear in the input. A reader that searched for each
// page's fields up to the end of the document took 55 s on this input in
// an optimized build on a 4-vCPU VM; a linear one takes under 0.1 s
// there, which leaves a wide margin under sanitizers and unoptimized
// builds.
TEST(DumpReaderTest, ParseIsLinearInTheInput) {
  std::vector<DumpPage> pages;
  for (int i = 0; i < 20000; ++i) {
    const std::string n = std::to_string(i);
    std::string text = "{{Infobox film\n| name = Film " + n +
                       "\n| budget = US$ " + n + "000 & \"more\"\n}}\n" +
                       "'''Film " + n + "''' is a <b>film</b>.\n" +
                       "[[category:films]]\n";
    text.append(40, 'x');
    pages.push_back(DumpPage{"Film " + n, i % 7 == 0 ? 10 : 0, i % 50 == 0,
                             std::move(text)});
  }
  const std::string xml = WriteDump(pages, "en");
  ASSERT_GT(xml.size(), size_t{6} << 20);

  const auto start = std::chrono::steady_clock::now();
  auto parsed = ParseDump(xml);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), pages.size());
  for (size_t i = 0; i < pages.size(); i += 997) {
    EXPECT_EQ((*parsed)[i].title, pages[i].title);
    EXPECT_EQ((*parsed)[i].ns, pages[i].ns);
    EXPECT_EQ((*parsed)[i].is_redirect, pages[i].is_redirect);
    EXPECT_EQ((*parsed)[i].text, pages[i].text);
  }
  EXPECT_LT(seconds, 5.0) << xml.size() << " bytes took " << seconds << " s";
}

TEST(DumpReaderTest, DirectoryIsIoError) {
  const std::string dir = ::testing::TempDir();
  auto pages = ReadDumpFile(dir);
  ASSERT_FALSE(pages.ok());
  EXPECT_EQ(pages.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(pages.status().message().find(dir), std::string::npos)
      << pages.status().ToString();
}

// A dump given as a pipe (`--dump en=<(zcat enwiki.xml.gz)`) reports no
// size; it must be read to EOF and parse like the same bytes in a file.
TEST(DumpReaderTest, PipeParsesLikeRegularFile) {
  const std::string xml = WriteDump(
      {{"A & B", 0, false, "{{Infobox film\n| name = A\n}}"},
       {"Old", 0, true, "#REDIRECT [[A & B]]"},
       {"Template:X", 10, false, "<b>x</b>"}},
      "en");
  ASSERT_LT(xml.size(), 4096u);  // fits the pipe buffer: no writer thread

  const std::string path = ::testing::TempDir() + "/wiki_test." +
                           std::to_string(::getpid()) + ".xml";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(xml.data(), 1, xml.size(), f), xml.size());
  ASSERT_EQ(std::fclose(f), 0);
  auto from_file = ReadDumpFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_EQ(from_file->size(), 3u);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], xml.data(), xml.size()),
            static_cast<ssize_t>(xml.size()));
  ::close(fds[1]);
  auto from_pipe = ReadDumpFile("/dev/fd/" + std::to_string(fds[0]));
  ::close(fds[0]);
  ASSERT_TRUE(from_pipe.ok()) << from_pipe.status().ToString();
  ASSERT_EQ(from_pipe->size(), from_file->size());
  for (size_t i = 0; i < from_file->size(); ++i) {
    EXPECT_EQ((*from_pipe)[i].title, (*from_file)[i].title);
    EXPECT_EQ((*from_pipe)[i].ns, (*from_file)[i].ns);
    EXPECT_EQ((*from_pipe)[i].is_redirect, (*from_file)[i].is_redirect);
    EXPECT_EQ((*from_pipe)[i].text, (*from_file)[i].text);
  }
}

// ----------------------------------------------------------------- Corpus

class CorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WikitextParser parser;
    auto add = [&](const std::string& title, const std::string& lang,
                   const std::string& text) {
      auto article = parser.ParseArticle(title, lang, text);
      ASSERT_TRUE(article.ok());
      auto id = corpus_.AddArticle(std::move(article).ValueOrDie());
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    };
    add("Film One", "en",
        "{{Infobox film\n| directed by = [[Person A]]\n}}\n"
        "[[pt:Filme Um]]\n");
    // The pt article has no backlink: Finalize must symmetrize.
    add("Filme Um", "pt", "{{Info filme\n| direção = [[Pessoa A]]\n}}\n");
    add("Person A", "en", "'''Person A'''\n[[pt:Pessoa A]]\n");
    add("Pessoa A", "pt", "'''Pessoa A'''\n[[en:Person A]]\n");
    corpus_.Finalize();
  }

  Corpus corpus_;
};

TEST_F(CorpusTest, Indexes) {
  EXPECT_EQ(corpus_.size(), 4u);
  EXPECT_EQ(corpus_.ArticlesInLanguage("en").size(), 2u);
  EXPECT_EQ(corpus_.InfoboxCount("en"), 1u);
  EXPECT_EQ(corpus_.Languages(), (std::vector<std::string>{"en", "pt"}));
  EXPECT_EQ(corpus_.TypesIn("pt"), (std::vector<std::string>{"filme"}));
  EXPECT_EQ(corpus_.ArticlesOfType("en", "film").size(), 1u);
}

TEST_F(CorpusTest, TitleLookup) {
  EXPECT_NE(corpus_.FindByTitle("en", "film one"), kInvalidArticle);
  EXPECT_EQ(corpus_.FindByTitle("en", "missing"), kInvalidArticle);
}

TEST_F(CorpusTest, SymmetrizesCrossLanguageLinks) {
  ArticleId pt = corpus_.FindByTitle("pt", "filme um");
  ASSERT_NE(pt, kInvalidArticle);
  // The pt article did not declare the link; Finalize added it.
  ArticleId en = corpus_.CrossLanguageTarget(pt, "en");
  ASSERT_NE(en, kInvalidArticle);
  EXPECT_EQ(corpus_.Get(en).title, "film one");
  EXPECT_TRUE(corpus_.SameEntity(pt, en));
  EXPECT_TRUE(corpus_.SameEntity(en, pt));
}

TEST_F(CorpusTest, SameEntityNegativeCases) {
  ArticleId film = corpus_.FindByTitle("en", "film one");
  ArticleId person = corpus_.FindByTitle("en", "person a");
  EXPECT_FALSE(corpus_.SameEntity(film, person));
  ArticleId pessoa = corpus_.FindByTitle("pt", "pessoa a");
  EXPECT_FALSE(corpus_.SameEntity(film, pessoa));
}

TEST_F(CorpusTest, DuplicateAdditionFails) {
  Article dup;
  dup.title = "film one";
  dup.language = "en";
  EXPECT_EQ(corpus_.AddArticle(dup).status().code(),
            util::StatusCode::kAlreadyExists);
}

TEST(CorpusIngestTest, IngestDumpKeepsRedirectsSkipsOtherNamespaces) {
  std::vector<DumpPage> pages = {
      {"Good", 0, false, "{{Infobox film\n| name = g\n}}"},
      {"Redirected", 0, true, "#REDIRECT [[Good]]"},
      {"Talk:Good", 1, false, "discussion"},
  };
  Corpus corpus;
  WikitextParser parser;
  auto added = corpus.IngestDump(pages, "en", parser);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 2u);  // Redirect pages are kept; Talk: is skipped.
  corpus.Finalize();
  // The redirect resolves to the real article...
  ArticleId via_redirect = corpus.FindByTitle("en", "redirected");
  ASSERT_NE(via_redirect, kInvalidArticle);
  EXPECT_EQ(corpus.Get(via_redirect).title, "good");
  // ...but FindExactTitle sees the redirect page itself.
  ArticleId exact = corpus.FindExactTitle("en", "redirected");
  ASSERT_NE(exact, kInvalidArticle);
  EXPECT_TRUE(corpus.Get(exact).IsRedirect());
  EXPECT_EQ(corpus.Get(exact).redirect_to, "good");
}

TEST(CorpusRedirectTest, CyclesTerminate) {
  Corpus corpus;
  WikitextParser parser;
  auto a = parser.ParseArticle("A", "en", "#REDIRECT [[B]]");
  auto b = parser.ParseArticle("B", "en", "#REDIRECT [[A]]");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(corpus.AddArticle(std::move(a).ValueOrDie()).ok());
  ASSERT_TRUE(corpus.AddArticle(std::move(b).ValueOrDie()).ok());
  corpus.Finalize();
  EXPECT_EQ(corpus.FindByTitle("en", "a"), kInvalidArticle);
}

// A redirect page's cross-language links induce no backlink. The backlink
// would name the redirect, which resolves to another article, so a second
// Finalize — the one decoding re-runs — would add a link to that article
// and the round trip would change the bytes.
TEST(CorpusRedirectTest, RedirectLinksAreNotSymmetrized) {
  // Built by hand: the parser gives a redirect page no links.
  Corpus corpus;
  auto add = [&](const std::string& title, const std::string& lang,
                 const std::string& redirect_to,
                 std::map<std::string, std::string> links) {
    Article article;
    article.title = title;
    article.language = lang;
    article.redirect_to = redirect_to;
    article.cross_language_links = std::move(links);
    ASSERT_TRUE(corpus.AddArticle(std::move(article)).ok());
  };
  add("filme", "pt", "", {});
  add("film", "en", "", {});
  add("movie", "en", "film", {{"pt", "filme"}});
  FinalizeReport report;
  corpus.Finalize(&report);
  EXPECT_TRUE(report.backlinks_added.empty());
  EXPECT_TRUE(corpus.Get(0).cross_language_links.empty());

  util::BinaryWriter w;
  EncodeCorpus(corpus, &w);
  util::BinaryReader r(w.buffer());
  auto decoded = DecodeCorpus(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  util::BinaryWriter again;
  EncodeCorpus(*decoded, &again);
  EXPECT_EQ(again.buffer(), w.buffer());
}

TEST(ParserRedirectTest, ParsesRedirectTarget) {
  WikitextParser parser;
  auto article =
      parser.ParseArticle("USA", "en", "  #redirect [[United States|US]]\n");
  ASSERT_TRUE(article.ok());
  EXPECT_TRUE(article->IsRedirect());
  EXPECT_EQ(article->redirect_to, "united states");
  EXPECT_FALSE(article->infobox.has_value());
}

// ------------------------------------------------ Corpus index property

// Seeded random sequences of every corpus mutation, checked after each step
// against a model article list and a (language, title) -> id map rebuilt
// from it. Titles come from a small pool, so duplicate additions, redirect
// chains, redirect cycles and re-added keys are common.
class CorpusIndexPropertyTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static constexpr int kTitles = 12;
  const std::vector<std::string> kLanguages = {"en", "pt", "vi"};

  std::string PoolTitle(int k) const {
    // Non-ASCII, empty and embedded-NUL titles are keys like any other.
    switch (k) {
      case 0: return "";
      case 1: return "são paulo";
      case 2: return std::string("a\0b", 3);
      default: return "t" + std::to_string(k);
    }
  }

  Article RandomArticle() {
    Article a;
    a.language = kLanguages[rng_() % kLanguages.size()];
    a.title = PoolTitle(static_cast<int>(rng_() % kTitles));
    if (rng_() % 3 == 0) {
      a.redirect_to = PoolTitle(static_cast<int>(rng_() % kTitles));
    } else if (rng_() % 2 == 0) {
      Infobox box;
      box.template_type = "film";
      box.template_name = "Infobox film";
      AttributeValue value;
      value.raw = value.text = "v" + std::to_string(rng_() % 5);
      box.attributes.emplace_back("name", value);
      a.infobox = std::move(box);
    }
    if (rng_() % 2 == 0) {
      const std::string& other = kLanguages[rng_() % kLanguages.size()];
      if (other != a.language) {
        a.cross_language_links[other] =
            PoolTitle(static_cast<int>(rng_() % kTitles));
      }
    }
    return a;
  }

  void RebuildOracle() {
    oracle_.clear();
    for (size_t i = 0; i < model_.size(); ++i) {
      const auto key = std::make_pair(model_[i].language, model_[i].title);
      ASSERT_TRUE(oracle_.emplace(key, static_cast<ArticleId>(i)).second)
          << "model holds a duplicate key";
    }
  }

  ArticleId OracleExact(const std::string& language,
                        const std::string& title) const {
    auto it = oracle_.find({language, title});
    return it == oracle_.end() ? kInvalidArticle : it->second;
  }

  // FindByTitle's contract: follow up to four redirects, and never answer
  // with a redirect page.
  ArticleId OracleByTitle(const std::string& language,
                          const std::string& title) const {
    ArticleId id = OracleExact(language, title);
    for (int hop = 0; hop < 4 && id != kInvalidArticle; ++hop) {
      if (model_[id].redirect_to.empty()) return id;
      id = OracleExact(language, model_[id].redirect_to);
    }
    return id != kInvalidArticle && model_[id].redirect_to.empty()
               ? id
               : kInvalidArticle;
  }

  void CheckLookups(const Corpus& corpus, const std::string& where) {
    ASSERT_EQ(corpus.size(), model_.size()) << where;
    for (size_t i = 0; i < model_.size(); ++i) {
      ASSERT_EQ(corpus.Get(static_cast<ArticleId>(i)).title, model_[i].title)
          << where << " id " << i;
      ASSERT_EQ(corpus.Get(static_cast<ArticleId>(i)).language,
                model_[i].language)
          << where << " id " << i;
    }
    std::vector<std::string> languages = kLanguages;
    languages.push_back("xx");  // never present
    for (const std::string& language : languages) {
      for (int k = 0; k <= kTitles; ++k) {
        const std::string title = k < kTitles ? PoolTitle(k) : "missing";
        ASSERT_EQ(corpus.FindExactTitle(language, title),
                  OracleExact(language, title))
            << where << " exact " << language << ":" << title;
        ASSERT_EQ(corpus.FindByTitle(language, title),
                  OracleByTitle(language, title))
            << where << " by title " << language << ":" << title;
      }
    }
  }

  std::mt19937 rng_{GetParam()};
  std::vector<Article> model_;
  std::map<std::pair<std::string, std::string>, ArticleId> oracle_;
};

TEST_P(CorpusIndexPropertyTest, LookupsMatchOracleAfterEveryMutation) {
  Corpus corpus;
  for (int step = 0; step < 400; ++step) {
    const std::string where =
        "seed " + std::to_string(GetParam()) + " step " + std::to_string(step);
    switch (rng_() % 4) {
      case 0:
      case 1: {  // AddArticle, duplicates included
        Article a = RandomArticle();
        const bool present =
            OracleExact(a.language, a.title) != kInvalidArticle;
        auto id = corpus.AddArticle(a);
        if (present) {
          ASSERT_EQ(id.status().code(), util::StatusCode::kAlreadyExists)
              << where;
        } else {
          ASSERT_TRUE(id.ok()) << where;
          ASSERT_EQ(*id, model_.size()) << where;
          model_.push_back(std::move(a));
        }
        break;
      }
      case 2: {  // ReplaceArticle, same key and a foreign key
        if (model_.empty()) break;
        const ArticleId id = static_cast<ArticleId>(rng_() % model_.size());
        Article a = RandomArticle();
        if (rng_() % 2 == 0) {
          a.language = model_[id].language;
          a.title = model_[id].title;
        }
        const bool same_key = a.language == model_[id].language &&
                              a.title == model_[id].title;
        EXPECT_EQ(corpus.ReplaceArticle(id, a).ok(), same_key) << where;
        if (same_key) model_[id] = std::move(a);
        break;
      }
      case 3: {  // EraseArticles, with repeated ids
        if (model_.empty()) break;
        std::vector<ArticleId> ids;
        for (size_t n = rng_() % 4; n > 0; --n) {
          ids.push_back(static_cast<ArticleId>(rng_() % model_.size()));
        }
        std::vector<ArticleId> unique = ids;
        std::sort(unique.begin(), unique.end());
        unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
        for (auto it = unique.rbegin(); it != unique.rend(); ++it) {
          model_.erase(model_.begin() + *it);
        }
        corpus.EraseArticles(ids);
        break;
      }
    }
    RebuildOracle();
    CheckLookups(corpus, where);
    if (step % 40 == 39) {
      // Finalize only adds links and entity types; keys stay put.
      corpus.Finalize();
      util::BinaryWriter w;
      EncodeCorpus(corpus, &w);
      util::BinaryReader r(w.buffer());
      auto decoded = DecodeCorpus(&r);
      ASSERT_TRUE(decoded.ok()) << where << decoded.status().ToString();
      CheckLookups(*decoded, where + " decoded");
      util::BinaryWriter again;
      EncodeCorpus(*decoded, &again);
      ASSERT_EQ(again.buffer(), w.buffer()) << where;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusIndexPropertyTest,
                         ::testing::Range<uint32_t>(1, 21));

}  // namespace
}  // namespace wiki
}  // namespace wikimatch
