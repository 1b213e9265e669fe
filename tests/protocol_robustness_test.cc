// Adversarial-input tests for the line protocol shared by the stdin loop
// and the TCP server: LineSplitter reassembly under byte-at-a-time and
// pipelined delivery, oversized-line skipping and resynchronization,
// embedded NUL bytes, partial UTF-8 sequences, and unterminated final
// lines. Whatever a hostile or broken client sends, the parser must
// answer with a protocol error or a normal response — never crash, hang,
// or desynchronize from the line framing.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>

#include "match/pipeline.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "store/snapshot.h"
#include "synth/generator.h"

namespace wikimatch {
namespace serve {
namespace {

using Next = LineSplitter::Next;

// One tiny service shared by the dispatch-level tests.
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
    return MatchService::Create(std::move(snapshot)).release();
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
  EXPECT_TRUE(HandleRequestLine(GetService(), "quit").quit);
  EXPECT_TRUE(HandleRequestLine(GetService(), "exit").quit);
  EXPECT_TRUE(HandleRequestLine(GetService(), "quit\r").quit);
}

TEST(ProtocolRobustnessTest, EmbeddedNulIsAProtocolError) {
  std::string line = "health";
  line += '\0';
  line += "version";
  LineOutcome outcome = HandleRequestLine(GetService(), line);
  EXPECT_EQ(outcome.response.compare(0, 12, "err protocol"), 0)
      << outcome.response;
  EXPECT_NE(outcome.response.find("NUL"), std::string::npos)
      << outcome.response;
  EXPECT_FALSE(outcome.quit);
}

TEST(ProtocolRobustnessTest, OversizedLineIsAProtocolError) {
  // The stdin path has no LineSplitter in front of it (std::getline is
  // unbounded), so the dispatcher itself must enforce the cap.
  std::string line = "alignments pt:en " + std::string(kMaxRequestBytes, 'a');
  LineOutcome outcome = HandleRequestLine(GetService(), line);
  EXPECT_EQ(outcome.response.compare(0, 12, "err protocol"), 0)
      << outcome.response;
  EXPECT_NE(outcome.response.find("exceeds"), std::string::npos)
      << outcome.response;
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
  EXPECT_EQ(outcome.response.compare(0, 12, "err protocol"), 0)
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
  EXPECT_NE(text.find("err usage: sync <src>:<tgt> <type_b>"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("err no pipeline for pair zz:qq"), std::string::npos)
      << text;
  EXPECT_NE(text.find("err no sync report in snapshot"), std::string::npos)
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
  EXPECT_NE(text.find("err protocol: request line exceeds"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wikimatch "), std::string::npos) << text;
  EXPECT_NE(text.find("err unknown request 'final'"), std::string::npos)
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
