// wikimatch — command-line front end.
//
//   wikimatch match --dump en=enwiki.xml --dump pt=ptwiki.xml --pair pt:en
//       [--tsim 0.6] [--tlsi 0.1] [--tsv matches.tsv]
//     Ingests MediaWiki XML dumps, aligns infobox schemas for the language
//     pair, prints match clusters per entity type (optionally as TSV).
//
//   wikimatch types --dump ... --pair pt:en
//     Prints the cross-language entity-type mapping only.
//
//   wikimatch query --dump ... --lang pt [--translate pt:en] "<c-query>"
//     Evaluates a c-query; with --translate, first derives attribute
//     correspondences and rewrites the query into the target language.
//
//   wikimatch demo [scale]
//     Self-contained demonstration on a generated corpus.
//
//   wikimatch build-snapshot --dump ... --pair pt:en [--pair vi:en]
//       --out matches.snap [--threads n]
//     Runs the full pipeline for every --pair and persists corpus,
//     dictionary, and alignments as a binary snapshot (--synth <scale>
//     substitutes a generated corpus for the dumps).
//
//   wikimatch apply-delta --snapshot matches.snap --out matches2.snap
//       [--dump <lang>=<delta.xml>]... [--remove <lang>:<title>]...
//     Applies an edit batch to a matched snapshot incrementally: dump pages
//     upsert articles (existing titles update, new titles add), --remove
//     deletes, and only the type pairs the delta can influence are
//     re-aligned (docs/INGEST.md). The output snapshot carries a bumped
//     generation number; a running `serve` picks it up via `reload`.
//
//   wikimatch sync --snapshot matches.snap [--out matches2.snap]
//       [--threads n]
//     Runs the cross-language value synchronization engine (docs/SYNC.md)
//     over every aligned type in the snapshot and persists the resulting
//     SyncReport into the snapshot (section kind 5), so `serve` answers
//     `sync`/`sync-status` without recomputation. Without --out the
//     snapshot is rewritten in place. apply-delta keeps an existing report
//     current incrementally (SyncEngine::Resync over the dirty articles).
//
//   wikimatch serve --snapshot matches.snap [--cache-capacity n]
//     Answers lookup/query requests over stdin/stdout from a snapshot,
//     without re-running the matcher (protocol: docs/SERVING.md). The
//     `reload` verb hot-swaps to a rebuilt snapshot without a restart.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "ingest/delta.h"
#include "ingest/incremental_matcher.h"
#include "match/match_io.h"
#include "match/pipeline.h"
#include "match/type_matcher.h"
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
#include "util/logging.h"
#include "util/thread_pool.h"
#include "wiki/corpus.h"
#include "wiki/dump_reader.h"
#include "wiki/wikitext_parser.h"

using namespace wikimatch;

namespace {

struct Args {
  std::string command;
  std::vector<std::pair<std::string, std::string>> dumps;  // lang, path
  std::vector<std::pair<std::string, std::string>> removes;  // lang, title
  std::string pair_a;
  std::string pair_b;
  std::vector<std::pair<std::string, std::string>> pairs;  // every --pair
  std::string lang;
  std::string query_text;
  std::string tsv_path;
  std::string save_path;
  std::string matches_path;
  std::string out_path;
  std::string snapshot_path;
  double t_sim = 0.6;
  double t_lsi = 0.1;
  double scale = 0.1;
  double synth_scale = 0.0;  // build-snapshot: > 0 uses a generated corpus
  size_t num_threads = 0;    // 0 = command-specific default
  size_t align_threads = 0;  // 0 = sequential intra-pair alignment
  size_t cache_capacity = 4096;
  int listen_port = -1;       // serve: < 0 = stdin mode, else TCP port
  size_t net_threads = 0;     // serve --listen: 0 = one per core
  size_t max_conns = 1024;    // serve --listen: shed accepts past this
  bool translate = false;
  bool print_stats = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: wikimatch <match|types|query|demo|build-snapshot|"
               "apply-delta|sync|serve> [options]\n"
               "  --dump <lang>=<path>   add a MediaWiki XML dump (repeat; "
               "for apply-delta, an edit batch to upsert)\n"
               "  --remove <lang>:<title> delete an article "
               "(apply-delta, repeat)\n"
               "  --pair <a>:<b>         language pair, e.g. pt:en "
               "(repeatable for build-snapshot)\n"
               "  --lang <code>          query language\n"
               "  --translate            translate the query across --pair\n"
               "  --tsim / --tlsi <v>    WikiMatch thresholds\n"
               "  --threads <n>          pool workers cooperating on "
               "per-type alignment\n"
               "  --align-threads <n>    pool workers cooperating inside "
               "one type pair's similarity join (both knobs share one "
               "pool sized to the larger of the two — nested loops "
               "borrow workers, never spawn)\n"
               "  --stats                print pipeline phase timings and "
               "join counters to stderr\n"
               "  --tsv <path>           write matches as TSV\n"
               "  --save-matches <path>  persist match clusters (match)\n"
               "  --matches <path>       reuse persisted clusters (query)\n"
               "  --out <path>           snapshot output (build-snapshot)\n"
               "  --synth <scale>        build-snapshot from a generated "
               "corpus instead of dumps\n"
               "  --snapshot <path>      snapshot to serve / apply a delta "
               "to\n"
               "  --cache-capacity <n>   LRU result-cache entries (serve)\n"
               "  --listen <port>        serve over TCP instead of stdin "
               "(0 picks an ephemeral port)\n"
               "  --net-threads <n>      event-loop threads for --listen "
               "(default: one per core)\n"
               "  --max-conns <n>        shed connections past this cap "
               "(--listen, default 1024)\n");
}

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

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Reads the option's value into `out`; false (after saying why) when
    // it is missing or malformed.
    auto number = [&](auto* out) {
      const char* v = next();
      if (v == nullptr) return false;
      if (ParseNonNegative(v, out)) return true;
      std::fprintf(stderr, "invalid value for %s: '%s'\n", arg.c_str(), v);
      return false;
    };
    if (arg == "--dump") {
      const char* v = next();
      if (v == nullptr) return false;
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr) return false;
      args->dumps.emplace_back(std::string(v, eq), std::string(eq + 1));
    } else if (arg == "--pair") {
      const char* v = next();
      if (v == nullptr) return false;
      const char* colon = std::strchr(v, ':');
      if (colon == nullptr) return false;
      args->pairs.emplace_back(std::string(v, colon), colon + 1);
      if (args->pair_a.empty()) {
        args->pair_a = args->pairs.back().first;
        args->pair_b = args->pairs.back().second;
      }
    } else if (arg == "--remove") {
      const char* v = next();
      if (v == nullptr) return false;
      const char* colon = std::strchr(v, ':');
      if (colon == nullptr) return false;
      args->removes.emplace_back(std::string(v, colon), colon + 1);
    } else if (arg == "--lang") {
      const char* v = next();
      if (v == nullptr) return false;
      args->lang = v;
    } else if (arg == "--tsv") {
      const char* v = next();
      if (v == nullptr) return false;
      args->tsv_path = v;
    } else if (arg == "--save-matches") {
      const char* v = next();
      if (v == nullptr) return false;
      args->save_path = v;
    } else if (arg == "--matches") {
      const char* v = next();
      if (v == nullptr) return false;
      args->matches_path = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->out_path = v;
    } else if (arg == "--snapshot") {
      const char* v = next();
      if (v == nullptr) return false;
      args->snapshot_path = v;
    } else if (arg == "--synth") {
      if (!number(&args->synth_scale)) return false;
    } else if (arg == "--threads") {
      if (!number(&args->num_threads)) return false;
    } else if (arg == "--align-threads") {
      if (!number(&args->align_threads)) return false;
    } else if (arg == "--stats") {
      args->print_stats = true;
    } else if (arg == "--cache-capacity") {
      if (!number(&args->cache_capacity)) return false;
    } else if (arg == "--listen") {
      size_t port = 0;
      if (!number(&port) || port > 65535) return false;
      args->listen_port = static_cast<int>(port);
    } else if (arg == "--net-threads") {
      if (!number(&args->net_threads)) return false;
    } else if (arg == "--max-conns") {
      if (!number(&args->max_conns)) return false;
    } else if (arg == "--tsim") {
      if (!number(&args->t_sim)) return false;
    } else if (arg == "--tlsi") {
      if (!number(&args->t_lsi)) return false;
    } else if (arg == "--translate") {
      args->translate = true;
    } else if (arg[0] != '-') {
      if (args->command == "demo") {
        if (!ParseNonNegative(arg.c_str(), &args->scale)) {
          std::fprintf(stderr, "invalid scale '%s'\n", arg.c_str());
          return false;
        }
      } else {
        args->query_text = arg;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    }
  }
  return true;
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
  if (args.dumps.empty() || args.pair_a.empty()) {
    Usage();
    return 2;
  }
  auto corpus = LoadCorpus(args);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  match::MatchPipeline pipeline(&*corpus);
  match::PipelineOptions options;
  options.matcher.t_sim = args.t_sim;
  options.matcher.t_lsi = args.t_lsi;
  if (args.num_threads > 0) options.num_threads = args.num_threads;
  if (args.align_threads > 0) {
    options.matcher.num_threads = args.align_threads;
  }
  auto result = pipeline.Run(args.pair_a, args.pair_b, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (args.print_stats) {
    std::fprintf(stderr, "pipeline %s:%s %s\n", args.pair_a.c_str(),
                 args.pair_b.c_str(), result->stats.ToString().c_str());
  }

  std::printf("# entity-type mapping (%s -> %s)\n", args.pair_a.c_str(),
              args.pair_b.c_str());
  for (const auto& tm : result->type_matches) {
    std::printf("%s\t%s\t%zu votes\t%.2f\n", tm.type_a.c_str(),
                tm.type_b.c_str(), tm.votes, tm.confidence);
  }
  if (types_only) return 0;

  std::FILE* tsv = nullptr;
  if (!args.tsv_path.empty()) {
    tsv = std::fopen(args.tsv_path.c_str(), "w");
    if (tsv == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.tsv_path.c_str());
      return 1;
    }
    std::fprintf(tsv, "type_a\ttype_b\tlang_a\tattr_a\tlang_b\tattr_b\n");
  }
  for (const auto& tr : result->per_type) {
    std::printf("\n# %s / %s (%zu dual infoboxes)\n", tr.type_a.c_str(),
                tr.type_b.c_str(), tr.num_duals);
    for (const auto& cluster : tr.alignment.matches.Clusters()) {
      std::string line;
      for (const auto& attr : cluster) {
        if (!line.empty()) line += " ~ ";
        line += attr.language + ":" + attr.name;
      }
      std::printf("%s\n", line.c_str());
    }
    if (tsv != nullptr) {
      for (const auto& [a, b] : tr.alignment.matches.CrossLanguagePairs(
               args.pair_a, args.pair_b)) {
        std::fprintf(tsv, "%s\t%s\t%s\t%s\t%s\t%s\n", tr.type_a.c_str(),
                     tr.type_b.c_str(), a.language.c_str(), a.name.c_str(),
                     b.language.c_str(), b.name.c_str());
      }
    }
  }
  if (tsv != nullptr) std::fclose(tsv);
  if (!args.save_path.empty()) {
    match::TypeMatchSets sets;
    for (const auto& tr : result->per_type) {
      sets.emplace(tr.type_b, tr.alignment.matches);
    }
    auto saved = match::SaveMatchSets(sets, args.save_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved matches to %s\n", args.save_path.c_str());
  }
  return 0;
}

int RunQuery(const Args& args) {
  if (args.dumps.empty() || args.lang.empty() || args.query_text.empty()) {
    Usage();
    return 2;
  }
  auto corpus = LoadCorpus(args);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  auto parsed = query::ParseCQuery(args.query_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "query: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  query::CQuery q = std::move(parsed).ValueOrDie();
  std::string eval_lang = args.lang;

  std::map<std::string, eval::MatchSet> per_type_storage;
  if (args.translate) {
    if (args.pair_a.empty()) {
      Usage();
      return 2;
    }
    match::MatchPipeline pipeline(&*corpus);
    std::vector<match::TypeMatch> type_matches;
    if (!args.matches_path.empty()) {
      auto loaded = match::LoadMatchSets(args.matches_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
        return 1;
      }
      per_type_storage = std::move(loaded).ValueOrDie();
      match::TypeMatcher type_matcher;
      type_matches = type_matcher.Match(*corpus, args.pair_a, args.pair_b);
    } else {
      match::PipelineOptions options;
      if (args.num_threads > 0) options.num_threads = args.num_threads;
      auto result = pipeline.Run(args.pair_a, args.pair_b, options);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      type_matches = result->type_matches;
      for (const auto& tr : result->per_type) {
        per_type_storage.emplace(tr.type_b, tr.alignment.matches);
      }
    }
    std::map<std::string, const eval::MatchSet*> per_type;
    for (const auto& [type_b, matches] : per_type_storage) {
      per_type.emplace(type_b, &matches);
    }
    query::QueryTranslator translator(args.pair_a, args.pair_b,
                                      type_matches, per_type,
                                      &pipeline.dictionary());
    query::TranslationReport report;
    auto translated = translator.Translate(q, &report);
    if (!translated.ok()) {
      std::fprintf(stderr, "translation: %s\n",
                   translated.status().ToString().c_str());
      return 1;
    }
    q = std::move(translated).ValueOrDie();
    eval_lang = args.pair_b;
    std::printf("# translated query: %s (%zu translated, %zu relaxed)\n",
                q.ToString().c_str(), report.constraints_translated,
                report.constraints_relaxed);
  }

  query::QueryEvaluator evaluator(&*corpus, eval_lang);
  auto answers = evaluator.Run(q);
  if (!answers.ok()) {
    std::fprintf(stderr, "%s\n", answers.status().ToString().c_str());
    return 1;
  }
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
  if (args.out_path.empty() || args.pairs.empty() ||
      (args.dumps.empty() && args.synth_scale <= 0.0)) {
    Usage();
    return 2;
  }
  wiki::Corpus corpus;
  if (args.synth_scale > 0.0) {
    std::fprintf(stderr, "generating synthetic corpus (scale %.2f)...\n",
                 args.synth_scale);
    synth::CorpusGenerator generator(
        synth::GeneratorOptions::Paper(args.synth_scale));
    auto gc = generator.Generate();
    if (!gc.ok()) {
      std::fprintf(stderr, "%s\n", gc.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(gc->corpus);
  } else {
    auto loaded = LoadCorpus(args);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(loaded).ValueOrDie();
  }

  match::MatchPipeline pipeline(&corpus);
  match::PipelineOptions options;
  options.matcher.t_sim = args.t_sim;
  options.matcher.t_lsi = args.t_lsi;
  // Offline builds default to every core; alignment output order stays
  // deterministic regardless (see PipelineOptions::num_threads).
  options.num_threads =
      args.num_threads > 0 ? args.num_threads : util::DefaultThreads();
  if (args.align_threads > 0) {
    options.matcher.num_threads = args.align_threads;
  }

  auto writer = store::SnapshotWriter::Open(args.out_path);
  if (!writer.ok()) {
    std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
    return 1;
  }
  auto status = writer->WriteCorpus(corpus);
  if (status.ok()) status = writer->WriteDictionary(pipeline.dictionary());
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
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
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  // Stamp the options fingerprint so a later apply-delta can refuse to
  // reuse unit results computed under different thresholds.
  store::SnapshotMeta meta;
  meta.options = store::OptionsFingerprint::From(options);
  status = writer->WriteMeta(meta);
  if (status.ok()) status = writer->Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
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
  if (args.snapshot_path.empty()) {
    Usage();
    return 2;
  }
  auto snapshot = store::ReadSnapshotFile(args.snapshot_path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  std::string hub = HubLanguage(snapshot->pipelines);
  if (hub.empty()) {
    std::fprintf(stderr, "sync needs at least one pipeline pair and a "
                 "single shared hub language\n");
    return 1;
  }
  sync::SyncEngine engine(&snapshot->corpus, &snapshot->dictionary, hub);
  auto scopes = sync::SyncEngine::ScopesFromPipelines(snapshot->pipelines);
  size_t threads =
      args.num_threads > 0 ? args.num_threads : util::DefaultThreads();
  sync::SyncReport report = engine.Run(scopes, threads);
  report.generation = snapshot->meta.generation;
  snapshot->sync_report = std::move(report);
  const std::string& out =
      args.out_path.empty() ? args.snapshot_path : args.out_path;
  auto status = store::WriteSnapshotFile(*snapshot, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
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
  if (args.snapshot_path.empty() || args.out_path.empty() ||
      (args.dumps.empty() && args.removes.empty())) {
    Usage();
    return 2;
  }
  auto snapshot = store::ReadSnapshotFile(args.snapshot_path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  // The matcher options must reproduce the run that built the snapshot for
  // clean units to be reusable; pass the same flags as build-snapshot.
  match::PipelineOptions options;
  options.matcher.t_sim = args.t_sim;
  options.matcher.t_lsi = args.t_lsi;
  options.num_threads =
      args.num_threads > 0 ? args.num_threads : util::DefaultThreads();
  if (args.align_threads > 0) {
    options.matcher.num_threads = args.align_threads;
  }
  // The matcher does not carry the sync report through ToSnapshot(); keep
  // the previous report so it can be refreshed incrementally below.
  sync::SyncReport previous_sync = std::move(snapshot->sync_report);
  auto matcher_or = ingest::IncrementalMatcher::FromSnapshot(
      std::move(snapshot).ValueOrDie(), options);
  if (!matcher_or.ok()) {
    std::fprintf(stderr, "%s\n", matcher_or.status().ToString().c_str());
    return 1;
  }
  ingest::IncrementalMatcher matcher = std::move(matcher_or).ValueOrDie();
  auto batch = BuildDeltaBatch(args, matcher.corpus());
  if (!batch.ok()) {
    std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
    return 1;
  }
  auto stats = matcher.Apply(*batch);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%s\n", stats->ToString().c_str());
  store::Snapshot out = matcher.ToSnapshot();
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
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote snapshot %s (generation %llu)\n",
               args.out_path.c_str(),
               static_cast<unsigned long long>(matcher.generation()));
  return 0;
}

int RunServe(const Args& args) {
  if (args.snapshot_path.empty()) {
    Usage();
    return 2;
  }
  serve::ServiceOptions options;
  options.cache_capacity = args.cache_capacity;
  auto service = serve::MatchService::Load(args.snapshot_path, options);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
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
  if (!installed.ok()) {
    std::fprintf(stderr, "%s\n", installed.ToString().c_str());
    return 1;
  }
  if (args.listen_port >= 0) {
    net::ServerOptions options;
    options.bind_address = "0.0.0.0";
    options.port = static_cast<uint16_t>(args.listen_port);
    options.num_threads = args.net_threads;
    options.max_connections = args.max_conns;
    auto server = net::Server::Create(service->get(), options, &shutdown);
    if (!server.ok()) {
      std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "listening on %s:%u (%zu event-loop threads, "
                 "max %zu connections)\n", options.bind_address.c_str(),
                 static_cast<unsigned>((*server)->port()),
                 options.num_threads == 0 ? util::DefaultThreads()
                                          : options.num_threads,
                 options.max_connections);
    auto run = (*server)->Run();
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.ToString().c_str());
      return 1;
    }
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
  std::printf("Generating demo corpus (scale %.2f)...\n", args.scale);
  synth::CorpusGenerator generator(
      synth::GeneratorOptions::Paper(args.scale));
  auto gc = generator.Generate();
  if (!gc.ok()) {
    std::fprintf(stderr, "%s\n", gc.status().ToString().c_str());
    return 1;
  }
  match::MatchPipeline pipeline(&gc->corpus);
  auto result = pipeline.Run("pt", "en");
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const auto& tr : result->per_type) {
    std::printf("\n# %s / %s\n", tr.type_a.c_str(), tr.type_b.c_str());
    size_t shown = 0;
    for (const auto& cluster : tr.alignment.matches.Clusters()) {
      if (shown++ >= 6) break;
      std::string line;
      for (const auto& attr : cluster) {
        if (!line.empty()) line += " ~ ";
        line += attr.language + ":" + attr.name;
      }
      std::printf("%s\n", line.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  util::SetLogLevel(util::LogLevel::kWarning);
  // The thread knobs name shares of ONE pool, not independent budgets:
  // size the shared pool to the larger knob before any parallel work
  // touches it. A run with --align-threads N therefore never has more
  // than max(N, --threads) pool workers alive, no matter how many type
  // pairs align concurrently. Unspecified knobs leave the lazy default
  // (DefaultThreads(): WIKIMATCH_THREADS env, cgroup quota, core count).
  if (size_t hint = std::max(args.num_threads, args.align_threads);
      hint > 0) {
    util::ThreadPool::SetDefaultPoolSize(hint);
  }
  if (args.command == "match") return RunMatch(args, false);
  if (args.command == "types") return RunMatch(args, true);
  if (args.command == "query") return RunQuery(args);
  if (args.command == "demo") return RunDemo(args);
  if (args.command == "build-snapshot") return RunBuildSnapshot(args);
  if (args.command == "apply-delta") return RunApplyDelta(args);
  if (args.command == "sync") return RunSync(args);
  if (args.command == "serve") return RunServe(args);
  Usage();
  return 2;
}
