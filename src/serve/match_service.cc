#include "serve/match_service.h"

#include <algorithm>
#include <ctime>
#include <sstream>
#include <string_view>

#include "serve/protocol.h"
#include "store/snapshot.h"
#include "text/normalize.h"

namespace wikimatch {
namespace serve {
namespace {

constexpr std::string_view kBlanks = " \t";
// Result-cache shards (concurrency width) and answers per query request.
constexpr size_t kCacheShards = 8;
constexpr size_t kQueryTopK = 20;

// Reads the argument after the blanks at `*pos`. A leading double quote
// runs it to the closing quote, dropping both (so it may hold blanks or be
// empty); else it runs to the next blank or, for a `rest` argument, to the
// line's last non-blank. False when no argument is left or its quote is
// unterminated; the token is then the rest of the line.
bool NextToken(std::string_view line, size_t* pos, std::string_view* token,
               bool rest = false) {
  *pos = std::min(line.find_first_not_of(kBlanks, *pos), line.size());
  const size_t start = *pos;
  *token = line.substr(start);
  if (start == line.size()) return false;
  if (line[start] == '"') {
    const size_t close = line.find('"', start + 1);
    if (close == std::string_view::npos) return false;
    *token = line.substr(start + 1, close - start - 1);
    *pos = close + 1;
    return true;
  }
  *pos = rest ? line.find_last_not_of(kBlanks) + 1
              : std::min(line.find_first_of(kBlanks, start), line.size());
  *token = line.substr(start, *pos - start);
  return true;
}

// `spec`'s verb and declared arguments, as `help` and its usage error show
// them: "attr <src>:<tgt> <type_b> <lang> <attribute>".
std::string Usage(const VerbSpec& spec) {
  std::string usage = spec.verb;
  if (spec.scope == VerbScope::kPair) usage += " <src>:<tgt>";
  for (const ArgSpec& arg : spec.args) usage += std::string(" ") + arg.name;
  return usage;
}

// The `help` response body, rendered from ProtocolVerbs().
const std::vector<std::string>& HelpLines() {
  static const std::vector<std::string> kLines = [] {
    size_t width = 0;
    for (const VerbSpec& spec : ProtocolVerbs()) {
      width = std::max(width, Usage(spec).size());
    }
    std::vector<std::string> lines;
    for (const VerbSpec& spec : ProtocolVerbs()) {
      std::string line = Usage(spec);
      line.append(width + 3 - line.size(), ' ');
      line += spec.description;
      lines.push_back(std::move(line));
    }
    lines.push_back(
        "(quote multi-word type names: alignments pt:en \"artista "
        "musical\")");
    return lines;
  }();
  return kLines;
}

std::string RenderOk(const std::vector<std::string>& lines) {
  std::string out = "ok " + std::to_string(lines.size()) + "\n";
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string ClusterLine(const std::set<eval::AttrKey>& cluster) {
  std::string line;
  for (const auto& attr : cluster) {
    if (!line.empty()) line += " ~ ";
    line += attr.language + ":" + attr.name;
  }
  return line;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

util::Result<std::unique_ptr<MatchService>> MatchService::Load(
    const std::string& path, const ServiceOptions& options) {
  auto gen = OpenGeneration(path, 1);
  if (!gen.ok()) return gen.status();
  auto service = std::unique_ptr<MatchService>(new MatchService(options));
  {
    util::MutexLock lock(service->gen_mu_);
    service->gen_ = std::move(gen).ValueOrDie();
  }
  service->loads_.store(1, std::memory_order_relaxed);
  {
    // Not yet visible to other threads, but taking the lock keeps the
    // guarded-field proof unconditional (and it is uncontended here).
    util::MutexLock lock(service->reload_mu_);
    service->source_path_ = path;
  }
  return service;
}

MatchService::MatchService(const ServiceOptions& options)
    : cache_(options.cache_capacity, kCacheShards),
      started_(Clock::now()) {}

MatchService::GenerationState::GenerationState(
    store::SnapshotMeta meta, std::shared_ptr<store::MappedSnapshot> mapped,
    uint64_t load_seq)
    : meta(std::move(meta)),
      mapped(std::move(mapped)),
      load_seq(load_seq),
      loaded_unix(static_cast<int64_t>(std::time(nullptr))),
      loaded_at(Clock::now()) {}

util::Result<const MatchService::CoreState*>
MatchService::GenerationState::Core() const {
  util::MutexLock lock(core_mu_);
  if (core_ != nullptr) return core_.get();
  if (!decode_error_.ok()) return decode_error_;
  auto decoded = mapped->Decode();
  if (!decoded.ok()) {
    decode_error_ = decoded.status();
    return decode_error_;
  }
  core_ = BuildCore(std::move(decoded).ValueOrDie());
  return core_.get();
}

const MatchService::CoreState* MatchService::GenerationState::BuiltCore()
    const {
  util::MutexLock lock(core_mu_);
  return core_.get();
}

util::Result<std::shared_ptr<const MatchService::GenerationState>>
MatchService::OpenGeneration(const std::string& path, uint64_t load_seq) {
  auto mapped = store::MappedSnapshot::Map(path);
  if (!mapped.ok()) return mapped.status();
  // Only the meta section (a few hundred bytes) is read now; a snapshot
  // without one is generation 0.
  store::Snapshot meta_only;
  auto meta = (*mapped)->PayloadOfKind(store::SectionKind::kMeta);
  if (meta.ok()) {
    WIKIMATCH_RETURN_NOT_OK(store::DecodeSnapshotSection(
        store::SectionKind::kMeta, *meta, &meta_only));
  } else if (meta.status().code() != util::StatusCode::kNotFound) {
    return meta.status();
  }
  return std::make_shared<const GenerationState>(
      std::move(meta_only.meta), std::move(mapped).ValueOrDie(), load_seq);
}

std::unique_ptr<const MatchService::CoreState> MatchService::BuildCore(
    store::Snapshot snapshot) {
  auto core = std::make_unique<CoreState>();
  core->snapshot = std::move(snapshot);
  for (auto& [pair, result] : core->snapshot.pipelines) {
    PairServing serving;
    serving.result = &result;
    for (const auto& tr : result.per_type) {
      // Pre-compress so concurrent readers never write to the lazy
      // union-find (see MatchSet::CompressPaths).
      tr.alignment.matches.CompressPaths();
      serving.per_type.emplace(tr.type_b, &tr.alignment.matches);
    }
    serving.translator = std::make_unique<query::QueryTranslator>(
        pair.first, pair.second, result.type_matches, serving.per_type,
        &core->snapshot.dictionary);
    // Indexes each target language once; the pairs into it share it.
    serving.evaluator =
        &core->evaluators
             .try_emplace(pair.second, &core->snapshot.corpus, pair.second)
             .first->second;
    core->pairs.emplace(pair, std::move(serving));
  }
  {
    // Index the persisted sync report by (pair_lang, type_b). Updates do
    // not carry the type, so the cells' (lang, title) -> key map assigns
    // each update through whichever side names the pair-language article.
    const sync::SyncReport& report = core->snapshot.sync_report;
    std::map<std::pair<std::string, std::string>,
             std::pair<std::string, std::string>>
        key_of_title;
    for (size_t i = 0; i < report.cells.size(); ++i) {
      const sync::CellVerdict& v = report.cells[i];
      std::pair<std::string, std::string> key{v.pair_lang, v.type_b};
      core->sync_cells[key].push_back(i);
      key_of_title.emplace(std::make_pair(v.pair_lang, v.pair_title), key);
    }
    for (size_t i = 0; i < report.updates.size(); ++i) {
      const sync::PropagationUpdate& u = report.updates[i];
      auto it = key_of_title.find({u.source_lang, u.source_title});
      if (it == key_of_title.end()) {
        it = key_of_title.find({u.target_lang, u.target_title});
      }
      if (it != key_of_title.end()) {
        core->sync_updates[it->second].push_back(i);
      }
    }
  }
  return core;
}

std::shared_ptr<const MatchService::GenerationState> MatchService::Current()
    const {
  util::MutexLock lock(gen_mu_);
  return gen_;
}

util::Status MatchService::Reload(const std::string& path) {
  // One writer at a time; readers are never blocked by a rebuild.
  util::MutexLock reload_lock(reload_mu_);
  std::string source = path.empty() ? source_path_ : path;
  // Build the core *before* swapping so that on any error the previous
  // generation keeps serving untouched.
  auto gen =
      OpenGeneration(source, loads_.load(std::memory_order_relaxed) + 1);
  if (!gen.ok()) return gen.status();
  auto core = (*gen)->Core();
  if (!core.ok()) return core.status();
  {
    util::MutexLock lock(gen_mu_);
    gen_ = std::move(gen).ValueOrDie();
  }
  loads_.fetch_add(1, std::memory_order_relaxed);
  source_path_ = source;
  return util::Status::OK();
}

// One request as a verb's handler sees it: the row and arguments the
// grammar read, the pinned generation, and what the verb's scope resolved.
struct MatchService::Request {
  MatchService& service;
  const VerbSpec* spec = nullptr;
  std::vector<std::string> args{};  // declared ones; "" for an absent one
  std::string pair_token{}, lang_a{}, lang_b{};  // pair verbs
  const GenerationState* gen = nullptr;
  const CoreState* core = nullptr;    // core and pair verbs
  const PairServing* pair = nullptr;  // pair verbs
  bool quit = false;                  // set by the quit row
  size_t pos = 0;                     // just past what the grammar read

  // The request grammar (VerbSpec), each token read by NextToken, in two
  // halves so that a cache hit reads no more than the verb: ReadVerb finds
  // the row, ReadArgs its pair token and declared arguments.
  util::Status ReadVerb(std::string_view line) {
    std::string_view verb;
    if (!NextToken(line, &pos, &verb) && pos == line.size()) {
      return util::Status::InvalidArgument("empty request");
    }
    spec = FindVerb(verb);
    return spec != nullptr ? util::Status::OK()
                           : util::Status::InvalidArgument(
                                 "unknown request '" + std::string(verb) +
                                 "' (try 'help' for the protocol)");
  }
  util::Status ReadArgs(std::string_view line) {
    auto usage = [this] {
      return util::Status::InvalidArgument("usage: " + Usage(*spec));
    };
    std::string_view token;
    if (spec->scope == VerbScope::kPair) {
      const bool read = NextToken(line, &pos, &token);
      const size_t colon = token.find(':');
      if (!read || colon == 0 || colon >= token.size() - 1) return usage();
      pair_token = token;
      lang_a = token.substr(0, colon);
      lang_b = token.substr(colon + 1);
    }
    for (const ArgSpec& arg : spec->args) {
      const bool read =
          NextToken(line, &pos, &token, arg.kind != ArgSpec::kToken);
      if (read ? token.empty()
               : arg.kind != ArgSpec::kOptionalRest || pos < line.size()) {
        return usage();
      }
      args.emplace_back(token);
    }
    return line.find_first_not_of(kBlanks, pos) == std::string_view::npos
               ? util::Status::OK()
               : usage();
  }
  // The pair's alignment of `type_b`, or null.
  const eval::MatchSet* Alignment(const std::string& type_b) const {
    auto it = pair->per_type.find(type_b);
    return it == pair->per_type.end() ? nullptr : it->second;
  }
  std::string NoAlignment(const std::string& type_b) const {
    return ErrorResponse(util::Status::NotFound(
        "no alignment for type " + type_b + " in pair " + pair_token));
  }
};

const std::vector<VerbSpec>& ProtocolVerbs() {
  using Request = MatchService::Request;
  static const std::vector<VerbSpec> kVerbs = {
      {"attr", {{"<type_b>"}, {"<lang>"}, {"<attribute>", ArgSpec::kRest}},
       "correspondents of the attribute in the pair's other language",
       VerbScope::kPair, true,
       [](Request& r) {
         const std::string& lang = r.args[1];
         if (lang != r.lang_a && lang != r.lang_b) {
           return ErrorResponse(util::Status::InvalidArgument(
               "language " + lang + " is not part of pair " + r.pair_token));
         }
         const eval::MatchSet* matches = r.Alignment(r.args[0]);
         if (matches == nullptr) return r.NoAlignment(r.args[0]);
         const std::string& other = lang == r.lang_a ? r.lang_b : r.lang_a;
         eval::AttrKey key{lang, text::NormalizeAttributeName(r.args[2])};
         std::vector<std::string> lines;
         for (const auto& target : matches->CorrespondentsOf(key, other)) {
           lines.push_back(target.language + ":" + target.name);
         }
         return RenderOk(lines);
       }},
      {"alignments", {{"<type_b>"}}, "all alignment clusters of the type",
       VerbScope::kPair, true,
       [](Request& r) {
         const eval::MatchSet* matches = r.Alignment(r.args[0]);
         if (matches == nullptr) return r.NoAlignment(r.args[0]);
         std::vector<std::string> lines;
         for (const auto& cluster : matches->Clusters()) {
           lines.push_back(ClusterLine(cluster));
         }
         return RenderOk(lines);
       }},
      {"query", {{"<c-query>", ArgSpec::kRest}},
       "translate the c-query from <src> and evaluate it in <tgt>",
       VerbScope::kPair, true,
       [](Request& r) {
         auto parsed = query::ParseCQuery(r.args[0]);
         if (!parsed.ok()) {
           return ErrorResponse(parsed.status().WithContext("parsing c-query"));
         }
         query::TranslationReport report;
         auto translated = r.pair->translator->Translate(*parsed, &report);
         if (!translated.ok()) {
           return ErrorResponse(
               translated.status().WithContext("translating c-query"));
         }
         query::EvaluatorOptions options;
         options.top_k = kQueryTopK;
         auto answers = r.pair->evaluator->Run(*translated, options);
         if (!answers.ok()) {
           return ErrorResponse(answers.status().WithContext(
               "evaluating translated c-query"));
         }
         std::vector<std::string> lines = {
             "translated " + std::to_string(report.constraints_translated) +
             " " + std::to_string(report.constraints_relaxed) + " " +
             translated->ToString()};
         for (const auto& answer : *answers) {
           std::string line = r.core->snapshot.corpus.Get(answer.article).title;
           for (const auto& projection : answer.projections) {
             line += '\t';
             line += projection;
           }
           lines.push_back(std::move(line));
         }
         return RenderOk(lines);
       }},
      {"sync", {{"<type_b>"}},
       "cell verdicts and propagation updates of the type (docs/SYNC.md)",
       VerbScope::kPair, true,
       [](Request& r) {
         const std::string& type_b = r.args[0];
         const auto& core = *r.core;
         const sync::SyncReport& report = core.snapshot.sync_report;
         if (report.empty()) {
           return ErrorResponse(util::Status::NotFound(
               "no sync report in snapshot (run `wikimatch sync` and "
               "reload)"));
         }
         // The report keys its rows by the pair's non-hub language, and
         // either language of the pair may be the hub: look up both.
         std::vector<std::string> lines = {"sync_generation=" +
                                           std::to_string(report.generation)};
         auto emit = [&](const std::string& pair_lang) {
           auto cit = core.sync_cells.find({pair_lang, type_b});
           if (cit != core.sync_cells.end()) {
             for (size_t idx : cit->second) {
               const sync::CellVerdict& v = report.cells[idx];
               std::ostringstream os;
               os << "cell\t" << v.pair_title << "\t" << v.hub_title << "\t"
                  << v.pair_attr << "\t" << v.hub_attr << "\t"
                  << sync::CellClassName(v.cls) << "\t" << v.score;
               lines.push_back(os.str());
             }
           }
           auto uit = core.sync_updates.find({pair_lang, type_b});
           if (uit != core.sync_updates.end()) {
             for (size_t idx : uit->second) {
               const sync::PropagationUpdate& u = report.updates[idx];
               std::ostringstream os;
               os << "update\t" << u.source_lang << "\t" << u.source_title
                  << "\t" << u.source_attr << "\t" << u.target_lang << "\t"
                  << u.target_title << "\t" << u.target_attr << "\t"
                  << u.evidence_score << "\t" << u.proposed_value;
               lines.push_back(os.str());
             }
           }
         };
         emit(r.lang_a);
         if (r.lang_b != r.lang_a) emit(r.lang_b);
         return RenderOk(lines);
       }},
      {"sync-status", {},
       "sync-report generation and per-language verdict counts",
       VerbScope::kCore, true,
       [](Request& r) {
         const sync::SyncReport& report = r.core->snapshot.sync_report;
         std::ostringstream os;
         os << "sync_generation=" << report.generation
            << " cells=" << report.cells.size()
            << " updates=" << report.updates.size();
         std::vector<std::string> lines = {os.str()};
         for (const auto& [key, counts] : report.Summaries()) {
           std::ostringstream row;
           row << key.first << "\t" << key.second
               << "\tin_sync=" << counts.in_sync << " stale=" << counts.stale
               << " missing=" << counts.missing
               << " conflict=" << counts.conflict
               << " unverifiable=" << counts.unverifiable;
           lines.push_back(row.str());
         }
         return RenderOk(lines);
       }},
      {"types", {}, "entity-type mapping of the pair",
       VerbScope::kPair, true,
       [](Request& r) {
         std::vector<std::string> lines;
         for (const auto& tm : r.pair->result->type_matches) {
           std::ostringstream os;
           os << tm.type_a << "\t" << tm.type_b << "\t" << tm.votes << "\t"
              << tm.confidence;
           lines.push_back(os.str());
         }
         return RenderOk(lines);
       }},
      {"pairs", {}, "language pairs in the snapshot", VerbScope::kCore, false,
       [](Request& r) {
         std::vector<std::string> lines;
         for (const auto& [pair, serving] : r.core->pairs) {
           lines.push_back(pair.first + ":" + pair.second);
         }
         return RenderOk(lines);
       }},
      {"stats", {}, "service and cache counters", VerbScope::kCore, false,
       [](Request& r) {
         ServiceStats stats = r.service.Stats();
         std::ostringstream os;
         os << "requests=" << stats.requests << " errors=" << stats.errors
            << " generation=" << r.gen->meta.generation
            << " loads=" << stats.loads << " loaded_unix=" << r.gen->loaded_unix
            << " uptime_s=" << stats.uptime_s
            << " generation_age_s=" << SecondsSince(r.gen->loaded_at)
            << " cache_hits=" << stats.cache.hits
            << " cache_misses=" << stats.cache.misses
            << " cache_evictions=" << stats.cache.evictions
            << " cache_entries=" << stats.cache.entries
            << " cache_capacity=" << stats.cache.capacity;
         std::vector<std::string> lines = {os.str()};
         // Build-time pipeline stats travel inside the snapshot; absent (all
         // zero) for snapshots written before they were recorded.
         for (const auto& [pair, serving] : r.core->pairs) {
           lines.push_back("pipeline " + pair.first + ":" + pair.second + " " +
                           serving.result->stats.ToString());
         }
         return RenderOk(lines);
       }},
      {"health", {}, "one-line liveness probe (load balancers, drain checks)",
       VerbScope::kMeta, false,
       [](Request& r) {
         // Deliberately cheap (no cache probe, no core): load balancers
         // poll this at high frequency, and the net server's drain logic
         // uses it as the liveness signal that the process still answers.
         std::ostringstream os;
         os << "healthy generation=" << r.gen->meta.generation
            << " load_seq=" << r.gen->load_seq
            << " uptime_s=" << SecondsSince(r.service.started_);
         return RenderOk({os.str()});
       }},
      {"version", {}, "server, protocol, and snapshot-format versions",
       VerbScope::kMeta, false,
       [](Request&) {
         std::ostringstream os;
         os << "wikimatch " << kServerVersion
            << " protocol=" << kProtocolVersion
            << " snapshot_format=" << store::kSnapshotVersion;
         return RenderOk({os.str()});
       }},
      {"generation", {}, "generation of the snapshot being served",
       VerbScope::kMeta, false,
       [](Request& r) {
         std::ostringstream os;
         os << "generation=" << r.gen->meta.generation
            << " load_seq=" << r.gen->load_seq
            << " loaded_unix=" << r.gen->loaded_unix
            << " age_s=" << SecondsSince(r.gen->loaded_at)
            << " deltas_applied=" << r.gen->meta.history.size();
         return RenderOk({os.str()});
       }},
      {"reload", {{"[<path>]", ArgSpec::kOptionalRest}},
       "hot-swap to the snapshot at <path> (default: the loaded one)",
       VerbScope::kMeta, false,
       [](Request& r) {
         util::Status status = r.service.Reload(r.args[0]);
         if (!status.ok()) return ErrorResponse(status);
         auto fresh = r.service.Current();
         std::ostringstream os;
         os << "reloaded generation=" << fresh->meta.generation
            << " load_seq=" << fresh->load_seq;
         return RenderOk({os.str()});
       }},
      {"help", {}, "this verb table", VerbScope::kMeta, false,
       [](Request&) { return RenderOk(HelpLines()); }},
      // Every transport sends this answer, then ends the session.
      {"quit", {}, "end the session", VerbScope::kMeta, false,
       [](Request& r) {
         r.quit = true;
         return RenderOk({"bye"});
       }},
  };
  return kVerbs;
}

std::string MatchService::Answer(Request& request, std::string_view line) {
  util::Status parsed = request.ReadArgs(line);
  if (!parsed.ok()) return ErrorResponse(parsed);
  if (request.spec->scope != VerbScope::kMeta) {
    auto core = request.gen->Core();
    if (!core.ok()) return ErrorResponse(core.status());
    request.core = *core;
  }
  if (request.spec->scope == VerbScope::kPair) {
    auto it = request.core->pairs.find({request.lang_a, request.lang_b});
    if (it == request.core->pairs.end()) {
      return ErrorResponse(util::Status::NotFound(
          "no pipeline for pair " + request.pair_token + " in snapshot"));
    }
    request.pair = &it->second;
  }
  return request.spec->handler(request);
}

std::string MatchService::Handle(std::string_view line, bool* quit) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Request request{*this};
  std::string response;
  util::Status verb = request.ReadVerb(line);
  if (!verb.ok()) {
    response = ErrorResponse(verb);
  } else {
    // Pin one generation for the whole request. A cache key carries its
    // load sequence so a swap instantly invalidates every older entry
    // (they become unaddressable and age out of the LRU).
    auto gen = Current();
    request.gen = gen.get();
    if (!request.spec->cacheable) {
      response = Answer(request, line);
    } else {
      std::string key = std::to_string(gen->load_seq) + '\x1f';
      key += line;
      if (cache_.Get(key, &response)) return response;
      response = Answer(request, line);
      if (response.compare(0, 3, "ok ") == 0) cache_.Put(key, response);
    }
  }
  if (quit != nullptr) *quit = request.quit;
  if (response.compare(0, 3, "err") == 0) {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

ServiceStats MatchService::Stats() const {
  auto gen = Current();
  ServiceStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.generation = gen->meta.generation;
  stats.loads = loads_.load(std::memory_order_relaxed);
  stats.loaded_unix = gen->loaded_unix;
  stats.uptime_s = SecondsSince(started_);
  stats.generation_age_s = SecondsSince(gen->loaded_at);
  stats.cache = cache_.Stats();
  return stats;
}

size_t MatchService::CorpusSize() const {
  auto gen = Current();
  const CoreState* core = gen->BuiltCore();
  return core == nullptr ? 0 : core->snapshot.corpus.size();
}

uint64_t MatchService::Generation() const { return Current()->meta.generation; }

bool MatchService::CoreLoaded() const {
  return Current()->BuiltCore() != nullptr;
}

}  // namespace serve
}  // namespace wikimatch
