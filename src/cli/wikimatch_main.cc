// wikimatch — command-line front end. The verbs and options are the
// kVerbs and kOptions tables below; usage text is rendered from them.

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "ingest/delta.h"
#include "ingest/incremental_matcher.h"
#include "match/pipeline.h"
#include "query/c_query.h"
#include "query/evaluator.h"
#include "query/translator.h"
#include "net/server.h"
#include "net/shutdown.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "store/snapshot.h"
#include "sync/sync_engine.h"
#include "synth/generator.h"
#include "text/normalize.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "wiki/corpus.h"
#include "wiki/dump_reader.h"
#include "wiki/wikitext_parser.h"

using namespace wikimatch;

namespace {

using StringPairs = std::vector<std::pair<std::string, std::string>>;
struct VerbSpec;

// Every option's value after parsing. A verb reads only the fields of the
// options its row in kVerbs accepts; the others keep these defaults.
struct Args {
  StringPairs dumps;    // lang, path
  StringPairs removes;  // lang, title
  StringPairs pairs;    // src, tgt
  std::string positional;
  std::string lang;
  std::string tsv_path;
  std::string out_path;
  std::string snapshot_path;
  double t_sim = match::MatcherConfig{}.t_sim;
  double t_lsi = match::MatcherConfig{}.t_lsi;
  double synth_scale = 0.0;  // > 0: build-snapshot generates its corpus
  size_t num_threads = 0;    // 0 = every core
  size_t cache_capacity = 4096;
  int listen_port = -1;       // serve: < 0 = stdin mode, else TCP port
  size_t net_threads = 0;     // serve --listen: 0 = one per core
  size_t max_conns = 1024;    // serve --listen: shed accepts past this
  bool translate = false;
  bool print_stats = false;
  const VerbSpec* verb = nullptr;
};

// Parses all of `text` as a finite, non-negative number. A sign, blanks,
// trailing characters and out-of-range values are all rejected, so
// "-1" never wraps to SIZE_MAX and "2x" is not read as 2.
template <typename T>
bool ParseNonNegative(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  T value{};
  auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || stop != end || text == end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value) || value < 0) return false;
  }
  *out = value;
  return true;
}

// Option parsers, one per kind of value, each storing into `Field`.
template <auto Field>
bool Text(const char* value, Args* args) {
  args->*Field = value;
  return true;
}
template <auto Field>
bool Number(const char* value, Args* args) {
  return ParseNonNegative(value, &(args->*Field));
}
template <auto Field>
bool Switch(const char*, Args* args) {
  args->*Field = true;
  return true;
}
// Appends the value split at its first `Sep`; false when there is none.
template <auto Field, char Sep>
bool Split(const char* value, Args* args) {
  const char* at = std::strchr(value, Sep);
  if (at == nullptr) return false;
  (args->*Field).emplace_back(std::string(value, at), std::string(at + 1));
  return true;
}

// Command-line options, one row each in kOptions.
enum Opt {
  kDump, kRemove, kSynth, kSnapshot, kPair, kLang, kTranslate, kTsim,
  kTlsi, kThreads, kStats, kTsv, kOut,
  kCacheCapacity, kListen, kNetThreads, kMaxConns, kNumOpts
};
using OptSet = uint32_t;

constexpr OptSet Set(std::initializer_list<Opt> opts) {
  OptSet set = 0;
  for (Opt opt : opts) set |= OptSet{1} << opt;
  return set;
}

// One option: its flag, the name of its value ("" for a switch, which is
// stored with a null value), its help line, and how a value is stored
// (false when the value is malformed).
struct OptionSpec {
  Opt id;
  const char* flag;
  const char* value;
  const char* help;
  bool (*store)(const char* value, Args* args);
};

constexpr OptionSpec kOptions[] = {
    {kDump, "--dump", "<lang>=<path>",
     "add a MediaWiki XML dump (for apply-delta, an edit batch to upsert)",
     Split<&Args::dumps, '='>},
    {kRemove, "--remove", "<lang>:<title>", "delete an article",
     Split<&Args::removes, ':'>},
    {kSynth, "--synth", "<scale>",
     "generate the corpus at this scale (> 0) instead of reading dumps",
     [](const char* v, Args* a) {
       return ParseNonNegative(v, &a->synth_scale) && a->synth_scale > 0.0;
     }},
    {kSnapshot, "--snapshot", "<path>", "snapshot to read",
     Text<&Args::snapshot_path>},
    {kPair, "--pair", "<src>:<tgt>", "language pair, e.g. pt:en",
     Split<&Args::pairs, ':'>},
    {kLang, "--lang", "<code>", "query language", Text<&Args::lang>},
    {kTranslate, "--translate", "",
     "translate the query into the pair's target language first",
     Switch<&Args::translate>},
    {kTsim, "--tsim", "<v>", "WikiMatch similarity threshold Tsim",
     Number<&Args::t_sim>},
    {kTlsi, "--tlsi", "<v>", "WikiMatch LSI threshold TLSI",
     Number<&Args::t_lsi>},
    {kThreads, "--threads", "<n>",
     "pool workers aligning type pairs, or syncing (default: every core)",
     Number<&Args::num_threads>},
    {kStats, "--stats", "",
     "print pipeline phase timings and join counters to stderr",
     Switch<&Args::print_stats>},
    {kTsv, "--tsv", "<path>", "write the cross-language matches as TSV",
     Text<&Args::tsv_path>},
    {kOut, "--out", "<path>", "snapshot to write", Text<&Args::out_path>},
    {kCacheCapacity, "--cache-capacity", "<n>", "LRU result-cache entries",
     Number<&Args::cache_capacity>},
    {kListen, "--listen", "<port>",
     "serve over TCP instead of stdin (0 picks an ephemeral port)",
     [](const char* v, Args* a) {
       size_t port = 0;
       if (!ParseNonNegative(v, &port) || port > 65535) return false;
       a->listen_port = static_cast<int>(port);
       return true;
     }},
    {kNetThreads, "--net-threads", "<n>",
     "event-loop threads for TCP serving (default: one per core)",
     Number<&Args::net_threads>},
    {kMaxConns, "--max-conns", "<n>", "shed TCP connections past this cap",
     Number<&Args::max_conns>},
};
static_assert(std::size(kOptions) == kNumOpts);

// One verb: its positional argument ("" for none, "[...]" when optional),
// a one-line help, the options it reads, those of them that may repeat,
// groups of options of which at least one must be given, options it reads
// only beside a prerequisite option, options of which at most one may be
// given, and its body.
struct VerbSpec {
  const char* verb;
  const char* positional;
  const char* help;
  OptSet options;
  OptSet repeatable;
  OptSet required[3];
  OptSet dependent;
  OptSet prerequisite;
  OptSet exclusive;
  int (*run)(const Args& args);
};

// The flags of `set`, in table order, joined by `sep`.
std::string Flags(OptSet set, const char* sep) {
  std::string out;
  for (const OptionSpec& opt : kOptions) {
    if ((set & Set({opt.id})) == 0) continue;
    if (!out.empty()) out += sep;
    out += opt.flag;
  }
  return out;
}

void PrintOption(const OptionSpec& opt, bool repeatable) {
  std::string synopsis = std::string(opt.flag) + " " + opt.value;
  std::fprintf(stderr, "  %-26s %s%s\n", synopsis.c_str(), opt.help,
               repeatable ? " (repeatable)" : "");
}

void PrintVerbUsage(const VerbSpec& verb) {
  std::fprintf(stderr, "usage: wikimatch %s%s%s%s\n  %s\n", verb.verb,
               verb.options != 0 ? " [options]" : "",
               verb.positional[0] != '\0' ? " " : "", verb.positional,
               verb.help);
  std::string needs;
  for (OptSet group : verb.required) {
    if (group == 0) continue;
    if (!needs.empty()) needs += "; ";
    needs += Flags(group, " or ");
  }
  if (!needs.empty()) std::fprintf(stderr, "  needs %s\n", needs.c_str());
  if (verb.dependent != 0) {
    std::fprintf(stderr, "  %s only with %s\n",
                 Flags(verb.dependent, ", ").c_str(),
                 Flags(verb.prerequisite, " or ").c_str());
  }
  if (verb.exclusive != 0) {
    std::fprintf(stderr, "  at most one of %s\n",
                 Flags(verb.exclusive, ", ").c_str());
  }
  for (const OptionSpec& opt : kOptions) {
    if ((verb.options & Set({opt.id})) != 0) {
      PrintOption(opt, (verb.repeatable & Set({opt.id})) != 0);
    }
  }
}

// Prints `problem` and `verb`'s usage; returns the usage exit code.
int UsageError(const VerbSpec& verb, const std::string& problem) {
  std::fprintf(stderr, "wikimatch %s: %s\n", verb.verb, problem.c_str());
  PrintVerbUsage(verb);
  return 2;
}

// Parses argv[2..] against `verb`, storing each option as it is read. An
// option the verb does not read, a second copy of a single-valued option
// or positional, a stray positional, a bad value, a missing required
// argument, an option without its prerequisite and two exclusive options
// are usage errors: false after saying which.
bool ParseArgs(const VerbSpec& verb, int argc, char** argv, Args* args) {
  auto fail = [&](const std::string& problem) {
    UsageError(verb, problem);
    return false;
  };
  OptSet given = 0;
  bool has_positional = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg[0] != '-') {
      if (verb.positional[0] == '\0' || has_positional) {
        return fail("unexpected argument '" + arg + "'");
      }
      args->positional = arg;
      has_positional = true;
      continue;
    }
    const OptionSpec* opt = nullptr;
    for (const OptionSpec& candidate : kOptions) {
      if (arg == candidate.flag) opt = &candidate;
    }
    if (opt == nullptr) return fail("unknown option " + arg);
    const OptSet bit = Set({opt->id});
    if ((verb.options & bit) == 0) return fail("unexpected option " + arg);
    if ((given & bit) != 0 && (verb.repeatable & bit) == 0) {
      return fail(arg + " given twice");
    }
    given |= bit;
    const char* value = nullptr;
    if (opt->value[0] != '\0') {
      if (i + 1 == argc) return fail(arg + " needs a value " + opt->value);
      value = argv[++i];
    }
    if (!opt->store(value, args)) {
      return fail("invalid value for " + arg + ": '" + value + "'");
    }
  }
  for (OptSet group : verb.required) {
    if (group != 0 && (given & group) == 0) {
      return fail("missing " + Flags(group, " or "));
    }
  }
  if ((given & verb.dependent) != 0 && (given & verb.prerequisite) == 0) {
    return fail(Flags(given & verb.dependent, ", ") + " given without " +
                Flags(verb.prerequisite, " or "));
  }
  if (std::popcount(given & verb.exclusive) > 1) {
    return fail(Flags(given & verb.exclusive, " and ") +
                " exclude each other");
  }
  if (verb.positional[0] != '\0' && verb.positional[0] != '[' &&
      !has_positional) {
    return fail(std::string("missing ") + verb.positional);
  }
  return true;
}

// Prints `status` to stderr if it is an error; true then.
bool Failed(const util::Status& status) {
  if (status.ok()) return false;
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return true;
}

// The worker count of every parallel step: --threads, else every core.
size_t Threads(const Args& args) {
  return args.num_threads > 0 ? args.num_threads : util::DefaultThreads();
}

// The pipeline configuration of every verb that aligns: the thresholds
// and the thread count. Output does not depend on the thread count.
match::PipelineOptions MakePipelineOptions(const Args& args) {
  match::PipelineOptions options;
  options.matcher.t_sim = args.t_sim;
  options.matcher.t_lsi = args.t_lsi;
  options.num_threads = Threads(args);
  return options;
}

// Prints one match cluster as "en:starring ~ pt:elenco".
void PrintCluster(const std::set<eval::AttrKey>& cluster) {
  std::string line;
  for (const auto& attr : cluster) {
    if (!line.empty()) line += " ~ ";
    line += attr.language + ":" + attr.name;
  }
  std::printf("%s\n", line.c_str());
}

// Loads all --dump files into a finalized corpus.
util::Result<wiki::Corpus> LoadCorpus(const Args& args) {
  wiki::Corpus corpus;
  wiki::WikitextParser parser;
  for (const auto& [lang, path] : args.dumps) {
    auto pages = wiki::ReadDumpFile(path);
    if (!pages.ok()) return pages.status().WithContext(path);
    auto added = corpus.IngestDump(*pages, lang, parser);
    if (!added.ok()) return added.status().WithContext(path);
    std::fprintf(stderr, "loaded %zu %s articles from %s\n", *added,
                 lang.c_str(), path.c_str());
  }
  corpus.Finalize();
  return corpus;
}

int RunMatch(const Args& args, bool types_only) {
  const auto& [lang_a, lang_b] = args.pairs.front();
  auto corpus = LoadCorpus(args);
  if (Failed(corpus.status())) return 1;
  match::MatchPipeline pipeline(&*corpus);
  auto result = pipeline.Run(lang_a, lang_b, MakePipelineOptions(args));
  if (Failed(result.status())) return 1;
  if (args.print_stats) {
    std::fprintf(stderr, "pipeline %s:%s %s\n", lang_a.c_str(),
                 lang_b.c_str(), result->stats.ToString().c_str());
  }

  std::printf("# entity-type mapping (%s -> %s)\n", lang_a.c_str(),
              lang_b.c_str());
  for (const auto& tm : result->type_matches) {
    std::printf("%s\t%s\t%zu votes\t%.2f\n", tm.type_a.c_str(),
                tm.type_b.c_str(), tm.votes, tm.confidence);
  }
  if (types_only) return 0;

  std::string tsv = "type_a\ttype_b\tlang_a\tattr_a\tlang_b\tattr_b\n";
  for (const auto& tr : result->per_type) {
    std::printf("\n# %s / %s (%zu dual infoboxes)\n", tr.type_a.c_str(),
                tr.type_b.c_str(), tr.num_duals);
    for (const auto& cluster : tr.alignment.matches.Clusters()) {
      PrintCluster(cluster);
    }
    if (args.tsv_path.empty()) continue;
    for (const auto& [a, b] :
         tr.alignment.matches.CrossLanguagePairs(lang_a, lang_b)) {
      tsv += tr.type_a + "\t" + tr.type_b + "\t" + a.language + "\t" +
             a.name + "\t" + b.language + "\t" + b.name + "\n";
    }
  }
  if (!args.tsv_path.empty() && Failed(util::WriteFile(args.tsv_path, tsv))) {
    return 1;
  }
  return 0;
}

int RunQuery(const Args& args) {
  if (args.translate && args.pairs.empty()) {
    return UsageError(*args.verb, Flags(Set({kTranslate}), "") + " needs " +
                                      Flags(Set({kPair}), ""));
  }
  auto corpus = LoadCorpus(args);
  if (Failed(corpus.status())) return 1;
  auto parsed = query::ParseCQuery(args.positional);
  if (!parsed.ok()) {
    std::fprintf(stderr, "query: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  query::CQuery q = std::move(parsed).ValueOrDie();
  std::string eval_lang = args.lang;

  if (args.translate) {
    const auto& [lang_a, lang_b] = args.pairs.front();
    match::MatchPipeline pipeline(&*corpus);
    auto result = pipeline.Run(lang_a, lang_b, MakePipelineOptions(args));
    if (Failed(result.status())) return 1;
    std::map<std::string, const eval::MatchSet*> per_type;
    for (const auto& tr : result->per_type) {
      per_type.emplace(tr.type_b, &tr.alignment.matches);
    }
    query::QueryTranslator translator(lang_a, lang_b, result->type_matches,
                                      per_type, &pipeline.dictionary());
    query::TranslationReport report;
    auto translated = translator.Translate(q, &report);
    if (!translated.ok()) {
      std::fprintf(stderr, "translation: %s\n",
                   translated.status().ToString().c_str());
      return 1;
    }
    q = std::move(translated).ValueOrDie();
    eval_lang = lang_b;
    std::printf("# translated query: %s (%zu translated, %zu relaxed)\n",
                q.ToString().c_str(), report.constraints_translated,
                report.constraints_relaxed);
  }

  query::QueryEvaluator evaluator(&*corpus, eval_lang);
  auto answers = evaluator.Run(q);
  if (Failed(answers.status())) return 1;
  for (size_t i = 0; i < answers->size(); ++i) {
    const auto& answer = (*answers)[i];
    std::printf("%2zu. %s", i + 1,
                corpus->Get(answer.article).title.c_str());
    for (const auto& projection : answer.projections) {
      std::printf("\t%s", projection.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int RunBuildSnapshot(const Args& args) {
  wiki::Corpus corpus;
  if (args.synth_scale > 0.0) {
    std::fprintf(stderr, "generating synthetic corpus (scale %.2f)...\n",
                 args.synth_scale);
    synth::CorpusGenerator generator(
        synth::GeneratorOptions::Paper(args.synth_scale));
    auto gc = generator.Generate();
    if (Failed(gc.status())) return 1;
    corpus = std::move(gc->corpus);
  } else {
    auto loaded = LoadCorpus(args);
    if (Failed(loaded.status())) return 1;
    corpus = std::move(loaded).ValueOrDie();
  }

  match::MatchPipeline pipeline(&corpus);
  const match::PipelineOptions options = MakePipelineOptions(args);
  auto writer = store::SnapshotWriter::Open(args.out_path);
  if (Failed(writer.status())) return 1;
  auto status = writer->WriteCorpus(corpus);
  if (status.ok()) status = writer->WriteDictionary(pipeline.dictionary());
  if (Failed(status)) return 1;
  for (const auto& [lang_a, lang_b] : args.pairs) {
    auto result = pipeline.Run(lang_a, lang_b, options);
    if (!result.ok()) {
      std::fprintf(stderr, "pair %s:%s: %s\n", lang_a.c_str(),
                   lang_b.c_str(), result.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "pair %s:%s: %zu type matches, %zu aligned types\n",
                 lang_a.c_str(), lang_b.c_str(),
                 result->type_matches.size(), result->per_type.size());
    if (args.print_stats) {
      std::fprintf(stderr, "pipeline %s:%s %s\n", lang_a.c_str(),
                   lang_b.c_str(), result->stats.ToString().c_str());
    }
    status = writer->WritePipeline(lang_a, lang_b, *result);
    if (Failed(status)) return 1;
  }
  // Stamp the options fingerprint so a later apply-delta can refuse to
  // reuse unit results computed under different thresholds.
  store::SnapshotMeta meta;
  meta.options = store::OptionsFingerprint::From(options);
  status = writer->WriteMeta(meta);
  if (status.ok()) status = writer->Finish();
  if (Failed(status)) return 1;
  std::fprintf(stderr, "wrote snapshot %s (%zu articles, %zu dictionary "
               "entries, %zu pairs)\n",
               args.out_path.c_str(), static_cast<size_t>(corpus.size()),
               pipeline.dictionary().size(), args.pairs.size());
  return 0;
}

// Parses every --dump file and classifies its articles against the
// snapshot corpus: pages whose (language, title) already exist become
// updates, the rest become additions. --remove entries become deletions.
util::Result<ingest::DeltaBatch> BuildDeltaBatch(const Args& args,
                                                 const wiki::Corpus& corpus) {
  ingest::DeltaBatch batch;
  wiki::WikitextParser parser;
  for (const auto& [lang, path] : args.dumps) {
    auto pages = wiki::ReadDumpFile(path);
    if (!pages.ok()) return pages.status().WithContext(path);
    size_t updated = 0, added = 0;
    for (const auto& page : *pages) {
      if (page.ns != 0) continue;
      auto parsed = parser.ParseArticle(page.title, lang, page.text);
      if (!parsed.ok()) {
        WIKIMATCH_LOG(Warning) << "skipping page '" << page.title
                               << "': " << parsed.status().ToString();
        continue;
      }
      wiki::Article article = std::move(parsed).ValueOrDie();
      if (corpus.FindExactTitle(lang, article.title) !=
          wiki::kInvalidArticle) {
        batch.updated.push_back(std::move(article));
        ++updated;
      } else {
        batch.added.push_back(std::move(article));
        ++added;
      }
    }
    std::fprintf(stderr, "delta %s: %zu updated, %zu added from %s\n",
                 lang.c_str(), updated, added, path.c_str());
  }
  for (const auto& [lang, title] : args.removes) {
    // Corpus titles are stored in NormalizeTitle form; accept raw input.
    batch.removed.emplace_back(lang, text::NormalizeTitle(title));
  }
  return batch;
}

// The hub language shared by every pipeline pair (the <tgt> of --pair);
// empty when the snapshot's pairs disagree, which sync cannot serve.
std::string HubLanguage(
    const std::map<store::LanguagePair, match::PipelineResult>& pipelines) {
  std::string hub;
  for (const auto& [pair, result] : pipelines) {
    if (hub.empty()) {
      hub = pair.second;
    } else if (hub != pair.second) {
      return "";
    }
  }
  return hub;
}

int RunSync(const Args& args) {
  auto snapshot = store::ReadSnapshotFile(args.snapshot_path);
  if (Failed(snapshot.status())) return 1;
  std::string hub = HubLanguage(snapshot->pipelines);
  if (hub.empty()) {
    std::fprintf(stderr, "sync needs at least one pipeline pair and a "
                 "single shared hub language\n");
    return 1;
  }
  sync::SyncEngine engine(&snapshot->corpus, &snapshot->dictionary, hub);
  auto scopes = sync::SyncEngine::ScopesFromPipelines(snapshot->pipelines);
  sync::SyncReport report = engine.Run(scopes, Threads(args));
  report.generation = snapshot->meta.generation;
  snapshot->sync_report = std::move(report);
  const std::string& out =
      args.out_path.empty() ? args.snapshot_path : args.out_path;
  auto status = store::WriteSnapshotFile(*snapshot, out);
  if (Failed(status)) return 1;
  const sync::SyncReport& written = snapshot->sync_report;
  std::fprintf(stderr, "wrote snapshot %s (generation %llu, %zu cells, "
               "%zu updates)\n",
               out.c_str(),
               static_cast<unsigned long long>(written.generation),
               written.cells.size(), written.updates.size());
  for (const auto& [key, counts] : written.Summaries()) {
    std::fprintf(stderr,
                 "  %s %s: in_sync=%llu stale=%llu missing=%llu "
                 "conflict=%llu unverifiable=%llu\n",
                 key.first.c_str(), key.second.c_str(),
                 static_cast<unsigned long long>(counts.in_sync),
                 static_cast<unsigned long long>(counts.stale),
                 static_cast<unsigned long long>(counts.missing),
                 static_cast<unsigned long long>(counts.conflict),
                 static_cast<unsigned long long>(counts.unverifiable));
  }
  return 0;
}

int RunApplyDelta(const Args& args) {
  auto snapshot = store::ReadSnapshotFile(args.snapshot_path);
  if (Failed(snapshot.status())) return 1;
  // The matcher options must reproduce the run that built the snapshot for
  // clean units to be reusable; pass the same flags as build-snapshot.
  const match::PipelineOptions options = MakePipelineOptions(args);
  // The matcher does not carry the sync report through ToSnapshot(); keep
  // the previous report so it can be refreshed incrementally below.
  sync::SyncReport previous_sync = std::move(snapshot->sync_report);
  auto matcher_or = ingest::IncrementalMatcher::FromSnapshot(
      std::move(snapshot).ValueOrDie(), options);
  if (Failed(matcher_or.status())) return 1;
  ingest::IncrementalMatcher matcher = std::move(matcher_or).ValueOrDie();
  auto batch = BuildDeltaBatch(args, matcher.corpus());
  if (Failed(batch.status())) return 1;
  auto stats = matcher.Apply(*batch);
  if (Failed(stats.status())) return 1;
  std::fprintf(stderr, "%s\n", stats->ToString().c_str());
  store::Snapshot out = std::move(matcher).ToSnapshot();
  if (!previous_sync.empty()) {
    // Refresh the persisted sync report over just the touched articles, so
    // a snapshot that ran `wikimatch sync` stays current through deltas.
    std::set<std::pair<std::string, std::string>> dirty;
    for (const auto& article : batch->added) {
      dirty.emplace(article.language, article.title);
    }
    for (const auto& article : batch->updated) {
      dirty.emplace(article.language, article.title);
    }
    for (const auto& key : batch->removed) dirty.insert(key);
    std::string hub = HubLanguage(out.pipelines);
    if (hub.empty()) {
      std::fprintf(stderr, "cannot refresh sync report: no shared hub "
                   "language\n");
      return 1;
    }
    sync::SyncEngine engine(&out.corpus, &out.dictionary, hub);
    auto scopes = sync::SyncEngine::ScopesFromPipelines(out.pipelines);
    sync::SyncReport report = engine.Resync(scopes, previous_sync, dirty,
                                            options.num_threads);
    report.generation = out.meta.generation;
    out.sync_report = std::move(report);
    std::fprintf(stderr, "refreshed sync report: %zu cells, %zu updates, "
                 "%zu dirty articles\n",
                 out.sync_report.cells.size(), out.sync_report.updates.size(),
                 dirty.size());
  }
  auto status = store::WriteSnapshotFile(out, args.out_path);
  if (Failed(status)) return 1;
  std::fprintf(stderr, "wrote snapshot %s (generation %llu)\n",
               args.out_path.c_str(),
               static_cast<unsigned long long>(out.meta.generation));
  return 0;
}

int RunServe(const Args& args) {
  serve::ServiceOptions options;
  options.cache_capacity = args.cache_capacity;
  auto service = serve::MatchService::Load(args.snapshot_path, options);
  if (Failed(service.status())) return 1;
  // Load() maps the snapshot and defers the decode to the first data
  // request, so the banner reports only what the meta section holds.
  std::fprintf(stderr, "serving %s (mmapped, decode deferred to first "
               "request, generation %llu); one request per line, 'help' "
               "for the protocol, 'reload' to hot-swap the snapshot, "
               "'quit' or EOF to stop\n",
               args.snapshot_path.c_str(),
               static_cast<unsigned long long>((*service)->Generation()));
  // SIGINT/SIGTERM route through one flag for both transports: the TCP
  // server drains on it, the stdin loop polls it (and, with SA_RESTART
  // off, its blocking read returns early instead of eating the signal).
  net::ShutdownFlag shutdown;
  auto installed = net::InstallShutdownHandlers(&shutdown);
  if (Failed(installed)) return 1;
  if (args.listen_port >= 0) {
    net::ServerOptions options;
    options.bind_address = "0.0.0.0";
    options.port = static_cast<uint16_t>(args.listen_port);
    options.num_threads = args.net_threads;
    options.max_connections = args.max_conns;
    auto server = net::Server::Create(service->get(), options, &shutdown);
    if (Failed(server.status())) return 1;
    std::fprintf(stderr, "listening on %s:%u (%zu event-loop threads, "
                 "max %zu connections)\n", options.bind_address.c_str(),
                 static_cast<unsigned>((*server)->port()),
                 options.num_threads == 0 ? util::DefaultThreads()
                                          : options.num_threads,
                 options.max_connections);
    auto run = (*server)->Run();
    if (Failed(run)) return 1;
    net::ServerStats stats = (*server)->Stats();
    std::fprintf(stderr, "drained: served %llu requests over %llu "
                 "connections (%llu shed)\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.accepted - stats.shed),
                 static_cast<unsigned long long>(stats.shed));
    return 0;
  }
  size_t served =
      serve::ServeLoop(std::cin, std::cout, service->get(), shutdown.flag());
  std::fprintf(stderr, "served %zu requests\n", served);
  return 0;
}

int RunDemo(const Args& args) {
  double scale = 0.1;
  if (!args.positional.empty() &&
      !ParseNonNegative(args.positional.c_str(), &scale)) {
    return UsageError(*args.verb, "invalid scale '" + args.positional + "'");
  }
  std::printf("Generating demo corpus (scale %.2f)...\n", scale);
  synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(scale));
  auto gc = generator.Generate();
  if (Failed(gc.status())) return 1;
  match::MatchPipeline pipeline(&gc->corpus);
  auto result = pipeline.Run("pt", "en", MakePipelineOptions(args));
  if (Failed(result.status())) return 1;
  for (const auto& tr : result->per_type) {
    std::printf("\n# %s / %s\n", tr.type_a.c_str(), tr.type_b.c_str());
    size_t shown = 0;
    for (const auto& cluster : tr.alignment.matches.Clusters()) {
      if (shown++ >= 6) break;
      PrintCluster(cluster);
    }
  }
  return 0;
}

constexpr OptSet kAlignOpts = Set({kTsim, kTlsi, kThreads});

constexpr VerbSpec kVerbs[] = {
    {"match", "", "align one pair's infobox schemas, print match clusters",
     Set({kDump, kPair, kStats, kTsv}) | kAlignOpts,
     Set({kDump}), {Set({kDump}), Set({kPair})}, 0, 0, 0,
     [](const Args& args) { return RunMatch(args, false); }},
    {"types", "", "print one pair's cross-language entity-type mapping",
     Set({kDump, kPair, kStats}) | kAlignOpts, Set({kDump}),
     {Set({kDump}), Set({kPair})}, 0, 0, 0,
     [](const Args& args) { return RunMatch(args, true); }},
    {"query", "<c-query>", "evaluate a c-query, optionally translated",
     Set({kDump, kPair, kLang, kTranslate}) | kAlignOpts,
     Set({kDump}), {Set({kDump}), Set({kLang})},
     Set({kPair, kTsim, kTlsi}), Set({kTranslate}), 0, RunQuery},
    {"demo", "[scale]", "align a generated corpus (scale 0.1 by default)",
     0, 0, {}, 0, 0, 0, RunDemo},
    {"build-snapshot", "", "align every pair, write a binary snapshot",
     Set({kDump, kSynth, kPair, kOut, kStats}) | kAlignOpts,
     Set({kDump, kPair}), {Set({kOut}), Set({kPair}), Set({kDump, kSynth})},
     0, 0, Set({kDump, kSynth}), RunBuildSnapshot},
    {"apply-delta", "", "apply an edit batch to a snapshot (docs/INGEST.md)",
     Set({kDump, kRemove, kSnapshot, kOut}) | kAlignOpts,
     Set({kDump, kRemove}),
     {Set({kSnapshot}), Set({kOut}), Set({kDump, kRemove})}, 0, 0, 0,
     RunApplyDelta},
    {"sync", "", "store the value-sync report in a snapshot (docs/SYNC.md)",
     Set({kSnapshot, kOut, kThreads}), 0, {Set({kSnapshot})}, 0, 0, 0,
     RunSync},
    {"serve", "", "answer the line protocol (docs/SERVING.md)",
     Set({kSnapshot, kCacheCapacity, kListen, kNetThreads, kMaxConns}), 0,
     {Set({kSnapshot})}, Set({kNetThreads, kMaxConns}), Set({kListen}), 0,
     RunServe},
};

void PrintUsage() {
  std::fprintf(stderr, "usage: wikimatch <verb> [options]\n");
  for (const VerbSpec& verb : kVerbs) {
    std::string synopsis = std::string(verb.verb) + " " + verb.positional;
    std::fprintf(stderr, "  %-26s %s\n", synopsis.c_str(), verb.help);
    if (verb.options != 0) {
      std::fprintf(stderr, "  %-26s %s\n", "",
                   Flags(verb.options, " ").c_str());
    }
  }
  std::fprintf(stderr, "options (a verb rejects any it does not list):\n");
  for (const OptionSpec& opt : kOptions) PrintOption(opt, false);
}

}  // namespace

int main(int argc, char** argv) {
  const VerbSpec* verb = nullptr;
  for (const VerbSpec& candidate : kVerbs) {
    if (argc >= 2 && std::strcmp(argv[1], candidate.verb) == 0) {
      verb = &candidate;
    }
  }
  if (verb == nullptr) {
    if (argc >= 2) std::fprintf(stderr, "wikimatch: unknown verb '%s'\n",
                                argv[1]);
    PrintUsage();
    return 2;
  }
  Args args;
  args.verb = verb;
  if (!ParseArgs(*verb, argc, argv, &args)) return 2;
  util::SetLogLevel(util::LogLevel::kWarning);
  // --threads sizes the one shared pool before any parallel work touches
  // it. Without it the pool takes the lazy default (DefaultThreads():
  // WIKIMATCH_THREADS env, cgroup quota, core count).
  if (args.num_threads > 0) {
    util::ThreadPool::SetDefaultPoolSize(args.num_threads);
  }
  return verb->run(args);
}
