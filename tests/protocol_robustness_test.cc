// Adversarial-input tests for the line protocol shared by the stdin loop
// and the TCP server: LineSplitter reassembly under byte-at-a-time and
// pipelined delivery, oversized-line skipping and resynchronization,
// embedded NUL bytes, partial UTF-8 sequences, and unterminated final
// lines, and a fixed-seed mutation of every verb's declared arguments.
// Whatever a hostile or broken client sends, the parser must answer with
// exactly one error line or one normal response — never crash, hang, or
// desynchronize from the line framing.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <fstream>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>
#include <system_error>
#include <vector>

#include "match/pipeline.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "store/snapshot.h"
#include "synth/generator.h"
#include "util/rng.h"
#include "util/status.h"

namespace wikimatch {
namespace serve {
namespace {

using Next = LineSplitter::Next;

// One tiny service shared by the dispatch-level tests, loaded from a
// per-pid snapshot file (ctest runs each TEST as its own process).
MatchService* GetService() {
  static MatchService* service = [] {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny());
    auto gc = std::move(generator.Generate()).ValueOrDie();
    match::MatchPipeline pipeline(&gc.corpus);
    auto result = std::move(pipeline.Run("pt", "en")).ValueOrDie();
    store::Snapshot snapshot;
    snapshot.corpus = gc.corpus;
    snapshot.dictionary = pipeline.dictionary();
    snapshot.pipelines.emplace(store::LanguagePair("pt", "en"),
                               std::move(result));
    const std::string path = ::testing::TempDir() + "/protocol_robustness." +
                             std::to_string(::getpid()) + ".snap";
    util::Status written = store::WriteSnapshotFile(snapshot, path);
    if (!written.ok()) ADD_FAILURE() << written.ToString();
    return std::move(MatchService::Load(path)).ValueOrDie().release();
  }();
  return service;
}

// ------------------------------------------------------------ line splitter

TEST(LineSplitterTest, ReassemblesByteAtATime) {
  LineSplitter splitter;
  const std::string input = "health\n";
  std::string line;
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(splitter.Pop(&line), Next::kNeedMore);
    splitter.Append(&input[i], 1);
  }
  ASSERT_EQ(splitter.Pop(&line), Next::kLine);
  EXPECT_EQ(line, "health");
  EXPECT_EQ(splitter.Pop(&line), Next::kNeedMore);
  EXPECT_EQ(splitter.buffered(), 0u);
}

TEST(LineSplitterTest, SplitsAPipelinedBurstAndStripsCr) {
  LineSplitter splitter;
  const std::string burst = "pairs\r\nhealth\nversion\r\npartial";
  splitter.Append(burst.data(), burst.size());
  std::string line;
  ASSERT_EQ(splitter.Pop(&line), Next::kLine);
  EXPECT_EQ(line, "pairs");
  ASSERT_EQ(splitter.Pop(&line), Next::kLine);
  EXPECT_EQ(line, "health");
  ASSERT_EQ(splitter.Pop(&line), Next::kLine);
  EXPECT_EQ(line, "version");
  EXPECT_EQ(splitter.Pop(&line), Next::kNeedMore);
  EXPECT_EQ(splitter.buffered(), 7u);  // "partial" awaits its newline
}

TEST(LineSplitterTest, OversizedLineIsReportedOnceAndSkipped) {
  LineSplitter splitter(/*max_line_bytes=*/8);
  const std::string input = "waytoolongforus\nhealth\n";
  splitter.Append(input.data(), input.size());
  std::string line;
  EXPECT_EQ(splitter.Pop(&line), Next::kOversized);
  // Resynchronized at the next newline: framing survives the bad line.
  ASSERT_EQ(splitter.Pop(&line), Next::kLine);
  EXPECT_EQ(line, "health");
}

TEST(LineSplitterTest, OversizedLineSpanningAppendsDoesNotBuffer) {
  LineSplitter splitter(/*max_line_bytes=*/8);
  std::string chunk(64, 'x');
  splitter.Append(chunk.data(), chunk.size());
  std::string line;
  EXPECT_EQ(splitter.Pop(&line), Next::kOversized);
  // While skipping to the next newline, junk must not accumulate — this
  // is what bounds memory against a client streaming an endless line.
  for (int i = 0; i < 100; ++i) {
    splitter.Append(chunk.data(), chunk.size());
    EXPECT_EQ(splitter.Pop(&line), Next::kNeedMore);
    EXPECT_EQ(splitter.buffered(), 0u);
  }
  const std::string tail = "junk\nversion\n";
  splitter.Append(tail.data(), tail.size());
  ASSERT_EQ(splitter.Pop(&line), Next::kLine);
  EXPECT_EQ(line, "version");
}

TEST(LineSplitterTest, FinishServesTheUnterminatedTail) {
  LineSplitter splitter;
  const std::string input = "health";
  splitter.Append(input.data(), input.size());
  std::string line;
  EXPECT_EQ(splitter.Pop(&line), Next::kNeedMore);
  ASSERT_TRUE(splitter.Finish(&line));
  EXPECT_EQ(line, "health");
}

TEST(LineSplitterTest, FinishStripsACrOnlyTail) {
  LineSplitter splitter;
  const std::string input = "health\r";
  splitter.Append(input.data(), input.size());
  std::string line;
  ASSERT_TRUE(splitter.Finish(&line));
  EXPECT_EQ(line, "health");
}

TEST(LineSplitterTest, FinishOnEmptyOrSkippedInputYieldsNothing) {
  LineSplitter empty;
  std::string line;
  EXPECT_FALSE(empty.Finish(&line));

  // An oversized line cut off by EOF is garbage, not a request.
  LineSplitter skipping(/*max_line_bytes=*/8);
  std::string chunk(64, 'x');
  skipping.Append(chunk.data(), chunk.size());
  EXPECT_EQ(skipping.Pop(&line), Next::kOversized);
  skipping.Append(chunk.data(), chunk.size());
  EXPECT_FALSE(skipping.Finish(&line));
}

// --------------------------------------------------------- request dispatch

TEST(ProtocolRobustnessTest, BlankAndQuitLines) {
  LineOutcome blank = HandleRequestLine(GetService(), "");
  EXPECT_TRUE(blank.response.empty());
  EXPECT_FALSE(blank.quit);
  // quit is an ordinary verb: answered, and only then the session ends.
  for (const char* quit : {"quit", "exit", "quit\r", "quit ", "\"quit\""}) {
    LineOutcome outcome = HandleRequestLine(GetService(), quit);
    EXPECT_TRUE(outcome.quit) << quit;
    EXPECT_EQ(outcome.response, "ok 1\nbye\n") << quit;
  }
  LineOutcome surplus = HandleRequestLine(GetService(), "quit now");
  EXPECT_FALSE(surplus.quit);
  EXPECT_EQ(surplus.response, "err InvalidArgument: usage: quit\n");
}

TEST(ProtocolRobustnessTest, EmbeddedNulIsAProtocolError) {
  std::string line = "health";
  line += '\0';
  line += "version";
  LineOutcome outcome = HandleRequestLine(GetService(), line);
  EXPECT_EQ(outcome.response,
            "err InvalidArgument: request contains a NUL byte\n");
  EXPECT_TRUE(outcome.protocol_error);
  EXPECT_FALSE(outcome.quit);
}

TEST(ProtocolRobustnessTest, OversizedLineIsAProtocolError) {
  // The stdin path has no LineSplitter in front of it (ServeLoop keeps the
  // cap plus a byte and a CR of a line), so the dispatcher itself must
  // enforce the cap.
  std::string line = "alignments pt:en " + std::string(kMaxRequestBytes, 'a');
  LineOutcome outcome = HandleRequestLine(GetService(), line);
  EXPECT_EQ(outcome.response, "err OutOfRange: request line exceeds " +
                                  std::to_string(kMaxRequestBytes) +
                                  " bytes\n");
  EXPECT_TRUE(outcome.protocol_error);
}

// Serves `size` bytes of 'a', then `tail`, one 64 KiB block at a time:
// a request line far larger than the cap that never exists whole on the
// producing side.
class LongLineBuf : public std::streambuf {
 public:
  LongLineBuf(size_t size, std::string tail)
      : remaining_(size), tail_(std::move(tail)), block_(64 * 1024, 'a') {}

 protected:
  int_type underflow() override {
    if (remaining_ > 0) {
      const size_t n = std::min(remaining_, block_.size());
      remaining_ -= n;
      setg(block_.data(), block_.data(), block_.data() + n);
    } else if (!tail_served_ && !tail_.empty()) {
      tail_served_ = true;
      setg(tail_.data(), tail_.data(), tail_.data() + tail_.size());
    } else {
      return traits_type::eof();
    }
    return traits_type::to_int_type(*gptr());
  }

 private:
  size_t remaining_;
  std::string tail_;
  std::string block_;
  bool tail_served_ = false;
};

// Peak resident set of this process (VmHWM), in KiB; -1 if unreadable.
long PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(ProtocolRobustnessTest, ServeLoopBoundsAnOversizedStdinLine) {
  MatchService* service = GetService();
  ASSERT_EQ(service->Handle("health").rfind("ok 1\n", 0), 0u);
  // A CR ends the answered line, as telnet sends it.
  LongLineBuf buf(size_t{256} << 20, "\nhealth\r\n");
  std::istream in(&buf);
  std::ostringstream out;
  const long before = PeakRssKb();
  ASSERT_GT(before, 0);
  EXPECT_EQ(ServeLoop(in, out, service), 2u);
  const long grown_kb = PeakRssKb() - before;
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("err OutOfRange: request line exceeds " +
                           std::to_string(kMaxRequestBytes) + " bytes\n",
                       0),
            0u)
      << text.substr(0, 200);
  EXPECT_NE(text.find("ok 1\nhealthy generation="), std::string::npos)
      << text.substr(0, 200);
  // Holding the line (twice, as a getline plus a copy would) is 256-512
  // MiB; the bounded read keeps one cap-sized buffer.
  EXPECT_LT(grown_kb, 32 * 1024);
}

TEST(ProtocolRobustnessTest, PartialUtf8IsAnsweredNotCrashed) {
  // A request cut mid-multibyte-sequence (e.g. a client flushed early).
  // The service may answer ok or err; it must not crash or hang.
  const std::string truncated = "attr pt:en film pt recei\xC3";
  LineOutcome outcome = HandleRequestLine(GetService(), truncated);
  EXPECT_FALSE(outcome.response.empty());
  EXPECT_EQ(outcome.response.back(), '\n');
  // Lone continuation bytes and overlong-looking prefixes too.
  for (const char* bad : {"\x80", "\xC3", "\xE2\x82", "\xF0\x9F\x92"}) {
    LineOutcome o = HandleRequestLine(GetService(),
                                      std::string("types pt:en ") + bad);
    EXPECT_FALSE(o.response.empty());
    EXPECT_EQ(o.response.back(), '\n');
  }
}

TEST(ProtocolRobustnessTest, SyncVerbsSurviveAdversarialInputs) {
  // Oversized sync request: same protocol error as any other verb.
  std::string oversized = "sync pt:en " + std::string(kMaxRequestBytes, 'f');
  LineOutcome outcome = HandleRequestLine(GetService(), oversized);
  EXPECT_EQ(outcome.response.compare(0, 16, "err OutOfRange: "), 0)
      << outcome.response;
  // NUL smuggled into a sync request.
  std::string nul = "sync-status";
  nul += '\0';
  outcome = HandleRequestLine(GetService(), nul);
  EXPECT_NE(outcome.response.find("NUL"), std::string::npos)
      << outcome.response;
  // Malformed and unterminated sync lines through the full loop: this
  // snapshot has no sync report, so the verb answers with normal errors —
  // never a crash, a hang, or a framing desync. The final line has no
  // terminator and must still be served.
  std::istringstream in(
      "sync-status\n"
      "sync pt:en\n"
      "sync zz:qq film\n"
      "sync pt:en film");
  std::ostringstream out;
  size_t served = ServeLoop(in, out, GetService());
  EXPECT_EQ(served, 4u);
  std::string text = out.str();
  EXPECT_NE(text.find("sync_generation=0 cells=0 updates=0"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("err InvalidArgument: usage: sync <src>:<tgt> <type_b>"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("err NotFound: no pipeline for pair zz:qq"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("err NotFound: no sync report in snapshot"),
            std::string::npos)
      << text;
}

TEST(ProtocolRobustnessTest, EveryTableVerbIsDocumentedAndDispatched) {
  // `help` renders the table, so every verb must appear in it...
  std::string help = GetService()->Handle("help");
  for (const VerbSpec& spec : ProtocolVerbs()) {
    EXPECT_NE(help.find(spec.verb), std::string::npos)
        << "verb missing from help: " << spec.verb;
  }
  // ...and every table verb must reach its handler: bare invocation may
  // earn a usage/argument err against this tiny snapshot, but never the
  // unknown-request rejection.
  for (const VerbSpec& spec : ProtocolVerbs()) {
    std::string response = GetService()->Handle(spec.verb);
    EXPECT_EQ(response.find("unknown request"), std::string::npos)
        << spec.verb << " -> " << response;
  }
  // Garbage stays rejected by the single gate.
  EXPECT_NE(GetService()->Handle("frobnicate").find("unknown request"),
            std::string::npos);
}

// ------------------------------------------------------- argument mutation

// Whether `response` is exactly one answer: "ok <n>" and then n lines, or
// one "err <Class>: <message>" line whose class util::StatusCodeToString
// names.
::testing::AssertionResult IsOneAnswer(const std::string& response) {
  if (response.empty() || response.back() != '\n') {
    return ::testing::AssertionFailure() << "unterminated: " << response;
  }
  const size_t lines = std::count(response.begin(), response.end(), '\n');
  if (response.compare(0, 3, "ok ") == 0) {
    const char* first = response.data() + 3;
    const char* last = response.data() + response.find('\n');
    size_t n = 0;
    auto [stop, ec] = std::from_chars(first, last, n);
    if (ec == std::errc() && stop == last && lines == n + 1) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "malformed ok block: " << response;
  }
  if (response.compare(0, 4, "err ") == 0 && lines == 1) {
    const std::string cls = response.substr(4, response.find(": ") - 4);
    for (util::StatusCode code :
         {util::StatusCode::kInvalidArgument, util::StatusCode::kNotFound,
          util::StatusCode::kAlreadyExists, util::StatusCode::kOutOfRange,
          util::StatusCode::kParseError, util::StatusCode::kIoError,
          util::StatusCode::kNotImplemented, util::StatusCode::kInternal}) {
      if (cls == util::StatusCodeToString(code)) {
        return ::testing::AssertionSuccess();
      }
    }
    return ::testing::AssertionFailure() << "unknown error class: "
                                         << response;
  }
  return ::testing::AssertionFailure() << "not one answer: " << response;
}

using Tokens = std::vector<std::string>;

// A valid request for `spec`: its verb, the pair token of a pair row, and
// a sample value for each declared argument.
Tokens ValidTokens(const VerbSpec& spec) {
  static const std::map<std::string, std::string> kSamples = {
      {"<type_b>", "film"},
      {"<lang>", "en"},
      {"<attribute>", "directed by"},
      {"<c-query>", "filme(elenco=?)"},
      {"[<path>]", "/nonexistent/mutated.snap"},  // reload never finds it
  };
  Tokens tokens = {spec.verb};
  if (spec.scope == VerbScope::kPair) tokens.push_back("pt:en");
  for (const ArgSpec& arg : spec.args) tokens.push_back(kSamples.at(arg.name));
  return tokens;
}

// One mutation of the token at `i` (i < tokens->size()).
using Edit = void (*)(Tokens* tokens, size_t i);
const Edit kEdits[] = {
    // drop it
    [](Tokens* t, size_t i) { t->erase(t->begin() + i); },
    // add a surplus argument after it
    [](Tokens* t, size_t i) { t->insert(t->begin() + i + 1, "surplus"); },
    // quote it
    [](Tokens* t, size_t i) { (*t)[i] = '"' + (*t)[i] + '"'; },
    // unquote it
    [](Tokens* t, size_t i) {
      std::string& token = (*t)[i];
      if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
        token = token.substr(1, token.size() - 2);
      }
    },
    // add empty quotes after it, or put them in its place
    [](Tokens* t, size_t i) { t->insert(t->begin() + i + 1, "\"\""); },
    [](Tokens* t, size_t i) { (*t)[i] = "\"\""; },
    // leave a quote unterminated
    [](Tokens* t, size_t i) { (*t)[i] = '"' + (*t)[i]; },
    // a 4 KiB token
    [](Tokens* t, size_t i) { (*t)[i] = std::string(4096, 'x'); },
    // invalid UTF-8
    [](Tokens* t, size_t i) { (*t)[i] = "\xff\xfe\xc3"; },
};

// Runs of blanks between, before and after the tokens.
const char* const kBlanks[] = {" ", "  ", "\t", " \t\t "};

std::string Join(const Tokens& tokens, const char* blank, const char* edge) {
  std::string line = edge;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) line += blank;
    line += tokens[i];
  }
  return line + edge;
}

// Sends `line` and checks its answer: one whole answer, from the service
// (no protocol error), and the session ends exactly on a bare, possibly
// quoted `quit` or `exit`. An empty line is skipped unanswered.
void ExpectOneAnswer(const std::string& line) {
  LineOutcome outcome = HandleRequestLine(GetService(), line);
  if (line.empty()) {
    EXPECT_TRUE(outcome.response.empty());
    return;
  }
  EXPECT_TRUE(IsOneAnswer(outcome.response)) << "request: " << line;
  EXPECT_FALSE(outcome.protocol_error) << line;
  const size_t first = line.find_first_not_of(" \t");
  const size_t last = line.find_last_not_of(" \t");
  const std::string bare =
      first == std::string::npos ? "" : line.substr(first, last - first + 1);
  const bool quit = bare == "quit" || bare == "exit" || bare == "\"quit\"" ||
                    bare == "\"exit\"";
  EXPECT_EQ(outcome.quit, quit) << line;
}

TEST(ProtocolRobustnessTest, MutatedArgumentsGetExactlyOneAnswer) {
  std::vector<Tokens> valid;
  for (const VerbSpec& spec : ProtocolVerbs()) {
    valid.push_back(ValidTokens(spec));
  }
  valid.push_back({"exit"});
  // Every single edit of every token, plain and with every token quoted,
  // under every run of blanks.
  for (const auto& plain : valid) {
    Tokens quoted = plain;
    for (std::string& token : quoted) token = '"' + token + '"';
    for (const auto& base : {plain, quoted}) {
      for (const char* blank : kBlanks) {
        ExpectOneAnswer(Join(base, blank, ""));
        ExpectOneAnswer(Join(base, blank, blank));
      }
      for (Edit edit : kEdits) {
        for (size_t i = 0; i < base.size(); ++i) {
          Tokens tokens = base;
          edit(&tokens, i);
          ExpectOneAnswer(Join(tokens, " ", ""));
        }
      }
    }
  }
  // Random stacks of up to four edits, from a fixed seed.
  util::Rng rng(20261018);
  for (int round = 0; round < 2000; ++round) {
    Tokens tokens = valid[rng.NextBounded(valid.size())];
    const size_t edits = 1 + rng.NextBounded(4);
    for (size_t e = 0; e < edits && !tokens.empty(); ++e) {
      kEdits[rng.NextBounded(std::size(kEdits))](
          &tokens, rng.NextBounded(tokens.size()));
    }
    ExpectOneAnswer(Join(tokens, kBlanks[rng.NextBounded(std::size(kBlanks))],
                         kBlanks[rng.NextBounded(std::size(kBlanks))]));
  }
}

// -------------------------------------------------------------- serve loop

TEST(ProtocolRobustnessTest, ServeLoopSurvivesAdversarialStream) {
  std::string oversized(2 * kMaxRequestBytes, 'x');
  std::istringstream in("health\n" + oversized + "\nversion\nfinal");
  std::ostringstream out;
  size_t served = ServeLoop(in, out, GetService());
  // Every line gets exactly one answer: health, a protocol error for the
  // oversized line, version, and an err for the unterminated "final".
  EXPECT_EQ(served, 4u);
  std::string text = out.str();
  EXPECT_NE(text.find("healthy"), std::string::npos) << text;
  EXPECT_NE(text.find("err OutOfRange: request line exceeds"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wikimatch "), std::string::npos) << text;
  EXPECT_NE(text.find("err InvalidArgument: unknown request 'final'"),
            std::string::npos)
      << text;
}

TEST(ProtocolRobustnessTest, ServeLoopHonorsTheStopFlag) {
  std::istringstream in("health\nversion\n");
  std::ostringstream out;
  std::atomic<bool> stop{true};  // flag raised before the first read
  size_t served = ServeLoop(in, out, GetService(), &stop);
  EXPECT_EQ(served, 0u);
  EXPECT_TRUE(out.str().empty());
}

}  // namespace
}  // namespace serve
}  // namespace wikimatch
