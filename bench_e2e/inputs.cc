#include "inputs.h"

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <unordered_set>

#include "store/snapshot.h"
#include "synth/delta.h"
#include "text/normalize.h"
#include "util/rng.h"
#include "wiki/dump_reader.h"
#include "workloads.h"

namespace wikimatch {
namespace benche2e {
namespace {

namespace fs = std::filesystem;

// Input directories kept per work dir: one per (scale, executable), each
// about 90 MB at Paper(1.0).
constexpr size_t kMaxCachedInputs = 3;

util::Status WriteFile(const std::string& path, const std::string& content) {
  RemoveStaleFile(path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out) return util::Status::IoError("cannot write " + path);
  return util::Status::OK();
}

// The page text examples/dump_ingest.cpp renders for one article.
std::string RenderPage(const wiki::Article& a) {
  std::string text;
  if (a.infobox.has_value()) {
    text += "{{Infobox " + a.infobox->template_type;
    for (const auto& [attr, value] : a.infobox->attributes) {
      text += "\n| " + attr + " = " + value.raw;
    }
    text += "\n}}\n";
  }
  text += "'''" + a.title + "'''\n";
  for (const auto& cat : a.categories) text += "[[category:" + cat + "]]\n";
  for (const auto& [other, title] : a.cross_language_links) {
    text += "[[" + other + ":" + title + "]]\n";
  }
  return text;
}

// ---- request keyspaces ----------------------------------------------------

// Protocol token for a type name: multi-word names must be quoted or the
// request splits them into two fields.
std::string TypeToken(const std::string& type) {
  return type.find(' ') == std::string::npos ? type : "\"" + type + "\"";
}

// True when `s` can sit inside a c-query as a type or attribute name: the
// parser splits on these characters and normalizes what it reads.
bool QueryName(const std::string& s) {
  return !s.empty() &&
         s.find_first_of("()=<>,|\"?\n\r\t") == std::string::npos &&
         text::NormalizeAttributeName(s) == s;
}

// True when `s` can be a quoted c-query equality constant.
bool QueryValue(const std::string& s) {
  return !s.empty() && s.size() <= 80 &&
         s.find_first_of("\"\n\r\t") == std::string::npos &&
         !text::NormalizeValue(s).empty();
}

// Every attr / alignments / sync / types key of the snapshot, plus pairs,
// sync-status and health, plus `query_keys` projection-only queries.
std::vector<std::string> HotKeys(const store::Snapshot& snap,
                                 size_t query_keys, util::Rng* rng) {
  std::vector<std::string> keys = {"pairs", "sync-status", "health"};
  struct QueryType {
    std::string pair;
    std::string type_a;
    std::vector<std::string> attrs;
  };
  std::vector<QueryType> query_types;
  for (const auto& [pair, result] : snap.pipelines) {
    const std::string token = pair.first + ":" + pair.second;
    keys.push_back("types " + token);
    for (const auto& tr : result.per_type) {
      if (tr.type_b.find('"') != std::string::npos) continue;
      const std::string type = TypeToken(tr.type_b);
      keys.push_back("alignments " + token + " " + type);
      keys.push_back("sync " + token + " " + type);
      QueryType qt{token, tr.type_a, {}};
      for (const auto& [attr, freq] : tr.frequencies) {
        (void)freq;
        if (attr.name.empty()) continue;
        keys.push_back("attr " + token + " " + type + " " + attr.language +
                       " " + attr.name);
        if (attr.language == pair.first && QueryName(attr.name)) {
          qt.attrs.push_back(attr.name);
        }
      }
      if (QueryName(tr.type_a) && !qt.attrs.empty()) {
        query_types.push_back(std::move(qt));
      }
    }
  }
  std::set<std::string> queries;
  for (size_t attempt = 0;
       attempt < 20 * query_keys && queries.size() < query_keys &&
       !query_types.empty();
       ++attempt) {
    const QueryType& qt = query_types[rng->NextBounded(query_types.size())];
    std::string a = qt.attrs[rng->NextBounded(qt.attrs.size())];
    std::string b = qt.attrs[rng->NextBounded(qt.attrs.size())];
    std::string body = a + "=?";
    if (b != a) body += ", " + b + "=?";
    queries.insert("query " + qt.pair + " " + qt.type_a + "(" + body + ")");
  }
  keys.insert(keys.end(), queries.begin(), queries.end());
  return keys;
}

// The hot keyspace plus two equality queries per usable (article,
// attribute) cell of every aligned type: `type_a(attr="cell value")` and
// `type_a(attr="cell value", other=?)`.
std::vector<std::string> TailKeys(const store::Snapshot& snap,
                                  std::vector<std::string> hot,
                                  util::Rng* rng) {
  std::unordered_set<std::string> seen(hot.begin(), hot.end());
  std::vector<std::string> keys = std::move(hot);
  for (const auto& [pair, result] : snap.pipelines) {
    const std::string& lang = pair.first;
    const std::string prefix = "query " + pair.first + ":" + pair.second + " ";
    for (const auto& tr : result.per_type) {
      if (!QueryName(tr.type_a)) continue;
      for (wiki::ArticleId id : snap.corpus.ArticlesOfType(lang, tr.type_a)) {
        const wiki::Article& article = snap.corpus.Get(id);
        const auto& attrs = article.infobox->attributes;
        for (size_t i = 0; i < attrs.size(); ++i) {
          const auto& [name, value] = attrs[i];
          if (!QueryName(name) || !QueryValue(value.text)) continue;
          const std::string& other =
              attrs[rng->NextBounded(attrs.size())].first;
          const std::string head = prefix + tr.type_a + "(" + name + "=\"" +
                                   value.text + "\"";
          std::string plain = head + ")";
          if (seen.insert(plain).second) keys.push_back(std::move(plain));
          if (other == name || !QueryName(other)) continue;
          std::string projected = head + ", " + other + "=?)";
          if (seen.insert(projected).second) {
            keys.push_back(std::move(projected));
          }
        }
      }
    }
  }
  return keys;
}

util::Status WriteKeys(const std::string& path,
                       const std::vector<std::string>& keys) {
  std::string content;
  for (const auto& key : keys) {
    content += key;
    content += '\n';
  }
  return WriteFile(path, content);
}

// Builds every cached input into `dir` (the child-process body).
util::Status BuildBaseInputs(const Params& params, const BaseInputs& out) {
  synth::CorpusGenerator generator(
      synth::GeneratorOptions::Paper(params.base_scale));
  auto generated = generator.Generate();
  if (!generated.ok()) return generated.status().WithContext("generate");
  auto snapshot =
      MatchAndSync(std::move(generated->corpus), /*tracer=*/nullptr);
  if (!snapshot.ok()) return snapshot.status();
  util::Status status = store::WriteSnapshotFile(*snapshot, out.base_snapshot);
  if (!status.ok()) return status;

  util::Rng rng(kCorpusSeed);
  std::vector<std::string> hot =
      HotKeys(*snapshot, params.hot_query_keys, &rng);
  status = WriteKeys(out.hot_keys, hot);
  if (!status.ok()) return status;
  status = WriteKeys(out.tail_keys, TailKeys(*snapshot, std::move(hot), &rng));
  if (!status.ok()) return status;

  // base+1: one apply_delta batch, applied the way apply-delta does.
  auto batch = DeltaBatchFor(snapshot->corpus, kCorpusSeed, 0);
  if (!batch.ok()) return batch.status();
  auto delta = ApplyDeltaOp(out.base_snapshot, out.delta_snapshot, *batch,
                            kCorpusSeed, 1, /*tracer=*/nullptr);
  return delta.status();
}

std::string ExecutableId() {
  struct stat st;
  if (::stat("/proc/self/exe", &st) != 0) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llx%llx",
                static_cast<unsigned long long>(st.st_size),
                static_cast<unsigned long long>(st.st_mtim.tv_sec));
  return buf;
}

// Drops input directories built by other executables (older builds).
void EvictStaleInputs(const std::string& work_dir, const std::string& keep) {
  std::vector<std::pair<fs::file_time_type, fs::path>> stale;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(work_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("inputs-", 0) != 0 || entry.path().string() == keep) {
      continue;
    }
    stale.emplace_back(fs::last_write_time(entry.path(), ec), entry.path());
  }
  std::sort(stale.begin(), stale.end());
  while (stale.size() + 1 > kMaxCachedInputs) {
    fs::remove_all(stale.front().second, ec);
    stale.erase(stale.begin());
  }
}

BaseInputs InputsIn(const std::string& dir) {
  BaseInputs in;
  in.base_snapshot = dir + "/base.snap";
  in.delta_snapshot = dir + "/base1.snap";
  in.hot_keys = dir + "/hot_keys.txt";
  in.tail_keys = dir + "/tail_keys.txt";
  return in;
}

}  // namespace

util::Result<RenderedDumps> RenderDumps(double scale, uint64_t seed,
                                        const std::string& dir) {
  synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(scale));
  auto generated = generator.Generate();
  if (!generated.ok()) return generated.status().WithContext("generate");
  RenderedDumps out;
  out.generated = std::make_unique<synth::GeneratedCorpus>(
      std::move(generated).ValueOrDie());
  const wiki::Corpus& corpus = out.generated->corpus;
  util::Rng rng(seed);
  for (const std::string lang : {"en", "pt", "vi"}) {
    std::vector<wiki::DumpPage> pages;
    for (wiki::ArticleId id : corpus.ArticlesInLanguage(lang)) {
      const wiki::Article& a = corpus.Get(id);
      pages.push_back(wiki::DumpPage{a.title, 0, false, RenderPage(a)});
    }
    rng.Shuffle(&pages);
    out.pages += pages.size();
    std::string xml = wiki::WriteDump(pages, lang);
    std::string path = dir + "/" + lang + "wiki.xml";
    util::Status status = WriteFile(path, xml);
    if (!status.ok()) return status;
    out.bytes += xml.size();
    out.files.emplace_back(lang, path);
  }
  return out;
}

util::Result<ingest::DeltaBatch> DeltaBatchFor(const wiki::Corpus& corpus,
                                               uint64_t seed, size_t index) {
  synth::DeltaSpec spec;
  spec.seed = seed + index;
  spec.lang_a = index % 2 == 0 ? "pt" : "vi";
  spec.lang_b = "en";
  spec.value_edits = 20;
  spec.new_articles = 2;
  spec.removals = 2;
  spec.attribute_renames = index % 3 == 2 ? 1 : 0;
  return synth::MakeDeltaBatch(corpus, spec);
}

util::Result<BaseInputs> EnsureBaseInputs(const RunConfig& config) {
  char name[128];
  std::snprintf(name, sizeof(name), "inputs-%g-%s", config.params.base_scale,
                ExecutableId().c_str());
  const std::string dir = config.work_dir + "/" + name;
  BaseInputs inputs = InputsIn(dir);
  std::error_code ec;
  if (fs::exists(dir + "/complete", ec)) return inputs;
  util::Status status = MakeDirs(config.work_dir);
  if (!status.ok()) return status;
  EvictStaleInputs(config.work_dir, dir);

  const std::string tmp = dir + ".tmp" + std::to_string(::getpid());
  RemoveTree(tmp);
  status = MakeDirs(tmp);
  if (!status.ok()) return status;
  std::fflush(nullptr);
  pid_t child = ::fork();
  if (child < 0) return util::Status::Internal("fork failed");
  if (child == 0) {
    util::Status built = BuildBaseInputs(config.params, InputsIn(tmp));
    if (!built.ok()) {
      std::fprintf(stderr, "bench_e2e: building inputs: %s\n",
                   built.ToString().c_str());
    }
    std::fflush(nullptr);
    ::_exit(built.ok() ? 0 : 1);
  }
  int wstatus = 0;
  while (::waitpid(child, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    RemoveTree(tmp);
    return util::Status::Internal("building the base inputs failed");
  }
  status = WriteFile(tmp + "/complete", "");
  if (!status.ok()) return status;
  fs::rename(tmp, dir, ec);
  if (ec) {
    RemoveTree(tmp);
    if (!fs::exists(dir + "/complete")) {
      return util::Status::IoError("cannot install " + dir);
    }
  }
  return inputs;
}

util::Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::IoError("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

util::Status MakeDirs(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return util::Status::IoError("cannot create " + dir);
  return util::Status::OK();
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

void RemoveStaleFile(const std::string& path) {
  std::remove(path.c_str());
}

}  // namespace benche2e
}  // namespace wikimatch
