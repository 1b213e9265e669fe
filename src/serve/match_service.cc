#include "serve/match_service.h"

#include <ctime>
#include <sstream>

#include "serve/protocol.h"
#include "store/snapshot.h"
#include "text/normalize.h"

namespace wikimatch {
namespace serve {
namespace {

// Splits "a:b" into its two halves; false when there is no colon.
bool SplitPairToken(const std::string& token, std::string* a,
                    std::string* b) {
  size_t colon = token.find(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == token.size()) {
    return false;
  }
  *a = token.substr(0, colon);
  *b = token.substr(colon + 1);
  return true;
}

// Reads the next whitespace-delimited token starting at `*pos`; a leading
// double quote makes the token run to the closing quote, so localized type
// names with spaces stay one field.
bool NextToken(const std::string& line, size_t* pos, std::string* token) {
  while (*pos < line.size() && line[*pos] == ' ') ++*pos;
  if (*pos >= line.size()) return false;
  if (line[*pos] == '"') {
    size_t close = line.find('"', *pos + 1);
    if (close == std::string::npos) return false;
    *token = line.substr(*pos + 1, close - *pos - 1);
    *pos = close + 1;
    return true;
  }
  size_t end = line.find(' ', *pos);
  if (end == std::string::npos) end = line.size();
  *token = line.substr(*pos, end - *pos);
  *pos = end;
  return true;
}

std::string RestOfLine(const std::string& line, size_t pos) {
  while (pos < line.size() && line[pos] == ' ') ++pos;
  size_t end = line.size();
  while (end > pos && (line[end - 1] == ' ' || line[end - 1] == '\r')) {
    --end;
  }
  return line.substr(pos, end - pos);
}

std::string RenderOk(const std::vector<std::string>& lines) {
  std::string out = "ok " + std::to_string(lines.size()) + "\n";
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string RenderErr(const std::string& message) {
  return "err " + message + "\n";
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

std::unique_ptr<MatchService> MatchService::Create(
    store::Snapshot snapshot, const ServiceOptions& options) {
  auto service = std::unique_ptr<MatchService>(new MatchService(options));
  store::SnapshotMeta meta = snapshot.meta;
  auto gen = std::make_shared<const GenerationState>(
      std::move(meta), nullptr, 1, BuildCore(std::move(snapshot)));
  {
    util::MutexLock lock(service->gen_mu_);
    service->gen_ = std::move(gen);
  }
  service->loads_.store(1, std::memory_order_relaxed);
  return service;
}

MatchService::MatchService(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_shards),
      started_(Clock::now()) {}

MatchService::GenerationState::GenerationState(
    store::SnapshotMeta meta, std::shared_ptr<store::MappedSnapshot> mapped,
    uint64_t load_seq, std::unique_ptr<const CoreState> core)
    : meta(std::move(meta)),
      mapped(std::move(mapped)),
      load_seq(load_seq),
      loaded_unix(static_cast<int64_t>(std::time(nullptr))),
      loaded_at(Clock::now()),
      core_(std::move(core)) {}

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
      std::move(meta_only.meta), std::move(mapped).ValueOrDie(), load_seq,
      nullptr);
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
  if (source.empty()) {
    return util::Status::InvalidArgument(
        "no snapshot path to reload from (service was built in memory; "
        "pass an explicit path)");
  }
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

const MatchService::PairServing* MatchService::CoreState::FindPair(
    const std::string& lang_a, const std::string& lang_b) const {
  auto it = pairs.find({lang_a, lang_b});
  return it == pairs.end() ? nullptr : &it->second;
}

util::Result<std::vector<std::string>> MatchService::TranslateAttribute(
    const std::string& lang_a, const std::string& lang_b,
    const std::string& type_b, const std::string& lang,
    const std::string& name) const {
  auto gen = Current();
  auto core = gen->Core();
  if (!core.ok()) return core.status();
  return TranslateAttribute(**core, lang_a, lang_b, type_b, lang, name);
}

util::Result<std::vector<std::string>> MatchService::ListAlignments(
    const std::string& lang_a, const std::string& lang_b,
    const std::string& type_b) const {
  auto gen = Current();
  auto core = gen->Core();
  if (!core.ok()) return core.status();
  return ListAlignments(**core, lang_a, lang_b, type_b);
}

util::Result<ServedQueryResult> MatchService::EvaluateTranslatedQuery(
    const std::string& lang_a, const std::string& lang_b,
    const std::string& query_text) const {
  auto gen = Current();
  auto core = gen->Core();
  if (!core.ok()) return core.status();
  return EvaluateTranslatedQuery(**core, lang_a, lang_b, query_text);
}

util::Result<std::vector<std::string>> MatchService::TranslateAttribute(
    const CoreState& core, const std::string& lang_a,
    const std::string& lang_b, const std::string& type_b,
    const std::string& lang, const std::string& name) const {
  const PairServing* pair = core.FindPair(lang_a, lang_b);
  if (pair == nullptr) {
    return util::Status::NotFound("no pipeline for pair " + lang_a + ":" +
                                  lang_b + " in snapshot");
  }
  if (lang != lang_a && lang != lang_b) {
    return util::Status::InvalidArgument("language " + lang +
                                         " is not part of pair " + lang_a +
                                         ":" + lang_b);
  }
  auto it = pair->per_type.find(type_b);
  if (it == pair->per_type.end()) {
    return util::Status::NotFound("no alignment for type " + type_b +
                                  " in pair " + lang_a + ":" + lang_b);
  }
  const std::string& other = lang == lang_a ? lang_b : lang_a;
  eval::AttrKey key{lang, text::NormalizeAttributeName(name)};
  std::vector<std::string> out;
  for (const auto& target : it->second->CorrespondentsOf(key, other)) {
    out.push_back(target.language + ":" + target.name);
  }
  return out;
}

util::Result<std::vector<std::string>> MatchService::ListAlignments(
    const CoreState& core, const std::string& lang_a,
    const std::string& lang_b, const std::string& type_b) const {
  const PairServing* pair = core.FindPair(lang_a, lang_b);
  if (pair == nullptr) {
    return util::Status::NotFound("no pipeline for pair " + lang_a + ":" +
                                  lang_b + " in snapshot");
  }
  auto it = pair->per_type.find(type_b);
  if (it == pair->per_type.end()) {
    return util::Status::NotFound("no alignment for type " + type_b +
                                  " in pair " + lang_a + ":" + lang_b);
  }
  std::vector<std::string> out;
  for (const auto& cluster : it->second->Clusters()) {
    out.push_back(ClusterLine(cluster));
  }
  return out;
}

util::Result<ServedQueryResult> MatchService::EvaluateTranslatedQuery(
    const CoreState& core, const std::string& lang_a,
    const std::string& lang_b, const std::string& query_text) const {
  const PairServing* pair = core.FindPair(lang_a, lang_b);
  if (pair == nullptr) {
    return util::Status::NotFound("no pipeline for pair " + lang_a + ":" +
                                  lang_b + " in snapshot");
  }
  auto parsed = query::ParseCQuery(query_text);
  if (!parsed.ok()) return parsed.status().WithContext("parsing c-query");
  query::TranslationReport report;
  auto translated = pair->translator->Translate(*parsed, &report);
  if (!translated.ok()) {
    return translated.status().WithContext("translating c-query");
  }
  query::QueryEvaluator evaluator(&core.snapshot.corpus, lang_b);
  query::EvaluatorOptions eval_options;
  eval_options.top_k = options_.query_top_k;
  auto answers = evaluator.Run(*translated, eval_options);
  if (!answers.ok()) {
    return answers.status().WithContext("evaluating translated c-query");
  }
  ServedQueryResult out;
  out.translated_query = translated->ToString();
  out.constraints_translated = report.constraints_translated;
  out.constraints_relaxed = report.constraints_relaxed;
  out.answers.reserve(answers->size());
  for (const auto& answer : *answers) {
    ServedAnswer served;
    served.title = core.snapshot.corpus.Get(answer.article).title;
    served.score = answer.score;
    served.projections = answer.projections;
    out.answers.push_back(std::move(served));
  }
  return out;
}

std::string MatchService::Dispatch(const GenerationState& gen,
                                   const std::string& line,
                                   bool* cacheable) {
  *cacheable = false;
  size_t pos = 0;
  std::string command;
  if (!NextToken(line, &pos, &command)) return RenderErr("empty request");

  // One gate for the whole verb set: anything outside the ProtocolVerbs()
  // table is rejected here, so the table, `help`, and the dispatch chain
  // below cannot disagree about what the protocol accepts.
  if (!IsProtocolVerb(command)) {
    return RenderErr("unknown request '" + command +
                     "' (try 'help' for the protocol)");
  }

  if (command == "help") return RenderOk(HelpLines());
  if (command == "quit" || command == "exit") {
    // Transports intercept quit before Dispatch (protocol.cc); answering
    // here keeps direct Handle() callers (tests, embedders) working.
    return RenderOk({"bye"});
  }
  if (command == "health") {
    // Deliberately cheap (no cache probe, no pair lookup): load balancers
    // poll this at high frequency, and the net server's drain logic uses
    // it as the liveness signal that the process still answers.
    std::ostringstream os;
    os << "healthy generation=" << gen.meta.generation
       << " load_seq=" << gen.load_seq
       << " uptime_s=" << SecondsSince(started_);
    return RenderOk({os.str()});
  }
  if (command == "version") {
    std::ostringstream os;
    os << "wikimatch " << kServerVersion << " protocol=" << kProtocolVersion
       << " snapshot_format=" << store::kSnapshotVersion;
    return RenderOk({os.str()});
  }
  if (command == "generation") {
    std::ostringstream os;
    os << "generation=" << gen.meta.generation
       << " load_seq=" << gen.load_seq
       << " loaded_unix=" << gen.loaded_unix
       << " age_s=" << SecondsSince(gen.loaded_at)
       << " deltas_applied=" << gen.meta.history.size();
    return RenderOk({os.str()});
  }
  if (command == "reload") {
    std::string target = RestOfLine(line, pos);
    util::Status status = Reload(target);
    if (!status.ok()) return RenderErr(status.ToString());
    auto fresh = Current();
    std::ostringstream os;
    os << "reloaded generation=" << fresh->meta.generation
       << " load_seq=" << fresh->load_seq;
    return RenderOk({os.str()});
  }
  // Every verb below reads data: build (or fetch) the generation's core.
  auto built = gen.Core();
  if (!built.ok()) return RenderErr(built.status().ToString());
  const CoreState& core = **built;

  if (command == "stats") {
    ServiceStats stats = Stats();
    std::ostringstream os;
    os << "requests=" << stats.requests << " errors=" << stats.errors
       << " generation=" << gen.meta.generation
       << " loads=" << stats.loads << " loaded_unix=" << gen.loaded_unix
       << " uptime_s=" << stats.uptime_s
       << " generation_age_s=" << SecondsSince(gen.loaded_at)
       << " cache_hits=" << stats.cache.hits
       << " cache_misses=" << stats.cache.misses
       << " cache_evictions=" << stats.cache.evictions
       << " cache_entries=" << stats.cache.entries
       << " cache_capacity=" << stats.cache.capacity;
    std::vector<std::string> lines = {os.str()};
    // Build-time pipeline stats travel inside the snapshot; absent (all
    // zero) for snapshots written before they were recorded.
    for (const auto& [pair, serving] : core.pairs) {
      lines.push_back("pipeline " + pair.first + ":" + pair.second + " " +
                      serving.result->stats.ToString());
    }
    return RenderOk(lines);
  }
  if (command == "pairs") {
    std::vector<std::string> lines;
    for (const auto& [pair, serving] : core.pairs) {
      lines.push_back(pair.first + ":" + pair.second);
    }
    return RenderOk(lines);
  }
  if (command == "sync-status") {
    const sync::SyncReport& report = core.snapshot.sync_report;
    std::ostringstream os;
    os << "sync_generation=" << report.generation
       << " cells=" << report.cells.size()
       << " updates=" << report.updates.size();
    std::vector<std::string> lines = {os.str()};
    for (const auto& [key, counts] : report.Summaries()) {
      std::ostringstream row;
      row << key.first << "\t" << key.second << "\tin_sync=" << counts.in_sync
          << " stale=" << counts.stale << " missing=" << counts.missing
          << " conflict=" << counts.conflict
          << " unverifiable=" << counts.unverifiable;
      lines.push_back(row.str());
    }
    *cacheable = true;
    return RenderOk(lines);
  }

  // Remaining commands address a language pair.
  std::string pair_token, lang_a, lang_b;
  if (!NextToken(line, &pos, &pair_token) ||
      !SplitPairToken(pair_token, &lang_a, &lang_b)) {
    return RenderErr("expected a language pair like pt:en after '" +
                     command + "'");
  }

  if (command == "types") {
    const PairServing* pair = core.FindPair(lang_a, lang_b);
    if (pair == nullptr) {
      return RenderErr("no pipeline for pair " + lang_a + ":" + lang_b +
                       " in snapshot");
    }
    std::vector<std::string> lines;
    for (const auto& tm : pair->result->type_matches) {
      std::ostringstream os;
      os << tm.type_a << "\t" << tm.type_b << "\t" << tm.votes << "\t"
         << tm.confidence;
      lines.push_back(os.str());
    }
    *cacheable = true;
    return RenderOk(lines);
  }

  if (command == "attr") {
    std::string type_b, lang;
    if (!NextToken(line, &pos, &type_b) || !NextToken(line, &pos, &lang)) {
      return RenderErr("usage: attr <src>:<tgt> <type_b> <lang> <attr>");
    }
    std::string name = RestOfLine(line, pos);
    if (name.empty()) {
      return RenderErr("usage: attr <src>:<tgt> <type_b> <lang> <attr>");
    }
    auto result = TranslateAttribute(core, lang_a, lang_b, type_b, lang, name);
    if (!result.ok()) return RenderErr(result.status().ToString());
    *cacheable = true;
    return RenderOk(*result);
  }

  if (command == "alignments") {
    std::string type_b;
    if (!NextToken(line, &pos, &type_b) || type_b.empty()) {
      return RenderErr("usage: alignments <src>:<tgt> <type_b>");
    }
    auto result = ListAlignments(core, lang_a, lang_b, type_b);
    if (!result.ok()) return RenderErr(result.status().ToString());
    *cacheable = true;
    return RenderOk(*result);
  }

  if (command == "query") {
    std::string query_text = RestOfLine(line, pos);
    if (query_text.empty()) {
      return RenderErr("usage: query <src>:<tgt> <c-query>");
    }
    auto result = EvaluateTranslatedQuery(core, lang_a, lang_b, query_text);
    if (!result.ok()) return RenderErr(result.status().ToString());
    std::vector<std::string> lines;
    lines.push_back("translated " +
                    std::to_string(result->constraints_translated) + " " +
                    std::to_string(result->constraints_relaxed) + " " +
                    result->translated_query);
    for (const auto& answer : result->answers) {
      std::string l = answer.title;
      for (const auto& projection : answer.projections) {
        l += '\t';
        l += projection;
      }
      lines.push_back(std::move(l));
    }
    *cacheable = true;
    return RenderOk(lines);
  }

  if (command == "sync") {
    std::string type_b;
    if (!NextToken(line, &pos, &type_b) || type_b.empty()) {
      return RenderErr("usage: sync <src>:<tgt> <type_b>");
    }
    if (core.FindPair(lang_a, lang_b) == nullptr) {
      return RenderErr("no pipeline for pair " + lang_a + ":" + lang_b +
                       " in snapshot");
    }
    const sync::SyncReport& report = core.snapshot.sync_report;
    if (report.empty()) {
      return RenderErr(
          "no sync report in snapshot (run `wikimatch sync` and reload)");
    }
    // The non-hub edition is the pair language of the report's rows; the
    // index was built per (pair_lang, type_b) so both orderings of the
    // pair token find the same rows.
    std::vector<std::string> lines;
    lines.push_back("sync_generation=" + std::to_string(report.generation));
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
          os << "update\t" << u.source_lang << "\t" << u.source_title << "\t"
             << u.source_attr << "\t" << u.target_lang << "\t"
             << u.target_title << "\t" << u.target_attr << "\t"
             << u.evidence_score << "\t" << u.proposed_value;
          lines.push_back(os.str());
        }
      }
    };
    // One of the two languages is the hub; the other keys the report.
    emit(lang_a);
    if (lang_b != lang_a) emit(lang_b);
    *cacheable = true;
    return RenderOk(lines);
  }

  // Every table verb is handled above; reaching here means the table and
  // the dispatch chain drifted apart (a bug the help-coverage test catches).
  return RenderErr("verb '" + command + "' is not implemented");
}

std::string MatchService::Handle(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Pin one generation for the whole request. The cache key carries its
  // load sequence so a swap instantly invalidates every older entry
  // (they become unaddressable and age out of the LRU).
  auto gen = Current();
  std::string key = std::to_string(gen->load_seq) + '\x1f' + line;
  std::string cached;
  if (cache_.Get(key, &cached)) return cached;
  bool cacheable = false;
  std::string response = Dispatch(*gen, line, &cacheable);
  if (cacheable) {
    cache_.Put(key, response);
  } else if (response.compare(0, 3, "err") == 0) {
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
