#include "sync/sync_engine.h"

#include <algorithm>
#include <utility>

#include "util/binary_io.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace sync {

namespace {

// Preference when one source attribute aligns to several target attributes
// (one-to-many): a cell counts as synchronized if ANY correspondent agrees,
// then as stale/conflicting only against its best-matching correspondent —
// one verdict per source cell, never one per correspondent.
int ClassRank(CellClass c) {
  switch (c) {
    case CellClass::kInSync:
      return 0;
    case CellClass::kStale:
      return 1;
    case CellClass::kConflict:
      return 2;
    case CellClass::kUnverifiable:
      return 3;
    case CellClass::kMissing:
      return 4;
  }
  return 4;
}

constexpr uint32_t kReportFormatVersion = 1;

}  // namespace

void SyncCounts::Add(CellClass c) {
  switch (c) {
    case CellClass::kInSync:
      ++in_sync;
      break;
    case CellClass::kStale:
      ++stale;
      break;
    case CellClass::kMissing:
      ++missing;
      break;
    case CellClass::kConflict:
      ++conflict;
      break;
    case CellClass::kUnverifiable:
      ++unverifiable;
      break;
  }
}

std::map<std::pair<std::string, std::string>, SyncCounts>
SyncReport::Summaries() const {
  std::map<std::pair<std::string, std::string>, SyncCounts> out;
  for (const CellVerdict& v : cells) {
    out[{v.pair_lang, v.type_b}].Add(v.cls);
  }
  return out;
}

void EncodeSyncReport(const SyncReport& report, util::BinaryWriter* writer) {
  util::BinaryWriter& w = *writer;
  w.PutU32(kReportFormatVersion);
  w.PutU64(report.generation);
  w.PutU32(static_cast<uint32_t>(report.cells.size()));
  for (const CellVerdict& v : report.cells) {
    w.PutString(v.pair_lang);
    w.PutString(v.type_b);
    w.PutString(v.pair_title);
    w.PutString(v.hub_title);
    w.PutString(v.pair_attr);
    w.PutString(v.hub_attr);
    w.PutU8(static_cast<uint8_t>(v.cls));
    w.PutDouble(v.score);
  }
  w.PutU32(static_cast<uint32_t>(report.updates.size()));
  for (const PropagationUpdate& u : report.updates) {
    w.PutString(u.source_lang);
    w.PutString(u.target_lang);
    w.PutString(u.source_title);
    w.PutString(u.target_title);
    w.PutString(u.source_attr);
    w.PutString(u.target_attr);
    w.PutString(u.proposed_value);
    w.PutDouble(u.evidence_score);
  }
}

util::Result<SyncReport> DecodeSyncReport(std::string_view payload) {
  util::BinaryReader r(payload);
  WIKIMATCH_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kReportFormatVersion) {
    return util::Status::InvalidArgument("unsupported sync report version " +
                                         std::to_string(version));
  }
  SyncReport report;
  WIKIMATCH_ASSIGN_OR_RETURN(report.generation, r.ReadU64());
  WIKIMATCH_ASSIGN_OR_RETURN(uint32_t num_cells, r.ReadU32());
  report.cells.reserve(num_cells);
  for (uint32_t i = 0; i < num_cells; ++i) {
    CellVerdict v;
    WIKIMATCH_ASSIGN_OR_RETURN(v.pair_lang, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(v.type_b, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(v.pair_title, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(v.hub_title, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(v.pair_attr, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(v.hub_attr, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(uint8_t cls, r.ReadU8());
    if (cls > static_cast<uint8_t>(CellClass::kUnverifiable)) {
      return util::Status::ParseError("sync report: bad cell class");
    }
    v.cls = static_cast<CellClass>(cls);
    WIKIMATCH_ASSIGN_OR_RETURN(v.score, r.ReadDouble());
    report.cells.push_back(std::move(v));
  }
  WIKIMATCH_ASSIGN_OR_RETURN(uint32_t num_updates, r.ReadU32());
  report.updates.reserve(num_updates);
  for (uint32_t i = 0; i < num_updates; ++i) {
    PropagationUpdate u;
    WIKIMATCH_ASSIGN_OR_RETURN(u.source_lang, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(u.target_lang, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(u.source_title, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(u.target_title, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(u.source_attr, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(u.target_attr, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(u.proposed_value, r.ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(u.evidence_score, r.ReadDouble());
    report.updates.push_back(std::move(u));
  }
  // Trailing bytes are tolerated (future additive fields, like the
  // snapshot meta section).
  return report;
}

SyncEngine::SyncEngine(const wiki::Corpus* corpus,
                       const match::TranslationDictionary* dictionary,
                       std::string hub_lang)
    : corpus_(corpus),
      hub_(hub_lang),
      extractor_(corpus, dictionary, std::move(hub_lang)) {}

std::vector<SyncScope> SyncEngine::ScopesFromPipelines(
    const std::map<std::pair<std::string, std::string>,
                   match::PipelineResult>& pipelines) {
  std::vector<SyncScope> out;
  for (const auto& [pair, result] : pipelines) {
    for (const match::TypePairResult& t : result.per_type) {
      out.push_back(SyncScope{pair.first, pair.second, t.type_a, t.type_b,
                              &t.alignment.matches});
    }
  }
  return out;
}

std::vector<SyncEngine::Group> SyncEngine::EnumerateGroups(
    const std::vector<SyncScope>& scopes) const {
  std::vector<Group> groups;
  for (const SyncScope& scope : scopes) {
    for (wiki::ArticleId id :
         corpus_->ArticlesOfType(scope.pair_lang, scope.type_a)) {
      wiki::ArticleId hub_id = corpus_->CrossLanguageTarget(id, scope.hub_lang);
      if (hub_id == wiki::kInvalidArticle) continue;
      const wiki::Article& hub_article = corpus_->Get(hub_id);
      if (hub_article.entity_type != scope.type_b ||
          !hub_article.infobox.has_value()) {
        continue;
      }
      groups.push_back(Group{&scope, id, hub_id});
    }
  }
  return groups;
}

SyncEngine::GroupResult SyncEngine::ClassifyGroup(const Group& group) const {
  GroupResult out;
  const SyncScope& scope = *group.scope;
  const wiki::Article& pair_article = corpus_->Get(group.pair_id);
  const wiki::Article& hub_article = corpus_->Get(group.hub_id);
  if (!pair_article.infobox.has_value() || !hub_article.infobox.has_value()) {
    return out;
  }
  const wiki::Infobox& pair_box = *pair_article.infobox;
  const wiki::Infobox& hub_box = *hub_article.infobox;

  auto add_verdict = [&](const std::string& pair_attr,
                         const std::string& hub_attr, CellClass cls,
                         double score) {
    CellVerdict v;
    v.pair_lang = scope.pair_lang;
    v.type_b = scope.type_b;
    v.pair_title = pair_article.title;
    v.hub_title = hub_article.title;
    v.pair_attr = pair_attr;
    v.hub_attr = hub_attr;
    v.cls = cls;
    v.score = score;
    out.cells.push_back(std::move(v));
  };
  auto add_update = [&](bool source_is_pair, const std::string& source_attr,
                        const std::string& target_attr,
                        const std::string& raw_value, double score) {
    PropagationUpdate u;
    u.source_lang = source_is_pair ? scope.pair_lang : scope.hub_lang;
    u.target_lang = source_is_pair ? scope.hub_lang : scope.pair_lang;
    u.source_title = source_is_pair ? pair_article.title : hub_article.title;
    u.target_title = source_is_pair ? hub_article.title : pair_article.title;
    u.source_attr = source_attr;
    u.target_attr = target_attr;
    u.proposed_value = raw_value;
    u.evidence_score = score;
    out.updates.push_back(std::move(u));
  };

  // Forward pass: every aligned attribute the pair edition carries.
  std::set<std::string> seen;
  for (const auto& [name, value] : pair_box.attributes) {
    if (!seen.insert(name).second) continue;  // Find() returns the first
    std::set<eval::AttrKey> correspondents = scope.alignment->CorrespondentsOf(
        eval::AttrKey{scope.pair_lang, name}, scope.hub_lang);
    if (correspondents.empty()) continue;  // unaligned: no basis to sync

    std::vector<std::pair<const eval::AttrKey*, const wiki::AttributeValue*>>
        present;
    for (const eval::AttrKey& c : correspondents) {
      const wiki::AttributeValue* hub_value = hub_box.Find(c.name);
      if (hub_value != nullptr) present.emplace_back(&c, hub_value);
    }
    if (present.empty()) {
      // The hub edition lacks the attribute entirely.
      add_verdict(name, "", CellClass::kMissing, 0.0);
      add_update(/*source_is_pair=*/true, name, correspondents.begin()->name,
                 value.raw, 0.0);
      continue;
    }

    Evidence pair_ev = extractor_.Extract(value, scope.pair_lang);
    size_t best = 0;
    CellClass best_class = CellClass::kUnverifiable;
    Evidence best_ev;
    for (size_t i = 0; i < present.size(); ++i) {
      Evidence hub_ev = extractor_.Extract(*present[i].second, scope.hub_lang);
      CellClass cls = Classify(pair_ev, hub_ev);
      if (i == 0 || ClassRank(cls) < ClassRank(best_class)) {
        best = i;
        best_class = cls;
        best_ev = std::move(hub_ev);
      }
      if (best_class == CellClass::kInSync) break;
    }
    double score = AgreementScore(pair_ev, best_ev);
    add_verdict(name, present[best].first->name, best_class, score);
    if (best_class == CellClass::kStale) {
      if (AIsStale(pair_ev, best_ev)) {
        add_update(/*source_is_pair=*/false, present[best].first->name, name,
                   present[best].second->raw, score);
      } else {
        add_update(/*source_is_pair=*/true, name, present[best].first->name,
                   value.raw, score);
      }
    }
  }

  // Reverse pass: aligned hub attributes with no counterpart in the pair
  // edition (both-present pairs were handled above).
  seen.clear();
  for (const auto& [name, value] : hub_box.attributes) {
    if (!seen.insert(name).second) continue;
    std::set<eval::AttrKey> correspondents = scope.alignment->CorrespondentsOf(
        eval::AttrKey{scope.hub_lang, name}, scope.pair_lang);
    if (correspondents.empty()) continue;
    bool any_present = std::any_of(
        correspondents.begin(), correspondents.end(),
        [&](const eval::AttrKey& c) { return pair_box.Find(c.name); });
    if (any_present) continue;
    add_verdict("", name, CellClass::kMissing, 0.0);
    add_update(/*source_is_pair=*/false, name, correspondents.begin()->name,
               value.raw, 0.0);
  }
  return out;
}

SyncReport SyncEngine::Assemble(std::vector<GroupResult> results) {
  size_t num_cells = 0;
  size_t num_updates = 0;
  for (const GroupResult& r : results) {
    num_cells += r.cells.size();
    num_updates += r.updates.size();
  }
  SyncReport report;
  report.cells.reserve(num_cells);
  report.updates.reserve(num_updates);
  for (GroupResult& r : results) {
    report.cells.insert(report.cells.end(),
                        std::make_move_iterator(r.cells.begin()),
                        std::make_move_iterator(r.cells.end()));
    report.updates.insert(report.updates.end(),
                          std::make_move_iterator(r.updates.begin()),
                          std::make_move_iterator(r.updates.end()));
  }
  return report;
}

SyncReport SyncEngine::Run(const std::vector<SyncScope>& scopes,
                           size_t num_threads) const {
  std::vector<Group> groups = EnumerateGroups(scopes);
  std::vector<GroupResult> results(groups.size());
  util::thread_pool_for(groups.size(), num_threads, [&](size_t i) {
    results[i] = ClassifyGroup(groups[i]);
  });
  return Assemble(std::move(results));
}

SyncReport SyncEngine::Resync(
    const std::vector<SyncScope>& scopes, const SyncReport& previous,
    const std::set<std::pair<std::string, std::string>>& dirty,
    size_t num_threads) const {
  // Rows and updates of one group all name the pair-side article, and a
  // title is unique within a language, so (pair_lang, pair_title) keys the
  // previous report's groups. The index holds row numbers, in report
  // order, with keys viewing `previous`; a clean group's rows are copied
  // once, straight into its result slot.
  using GroupKey = std::pair<std::string_view, std::string_view>;
  struct PreviousRows {
    std::vector<uint32_t> cells;
    std::vector<uint32_t> updates;
  };
  std::map<GroupKey, PreviousRows> index;
  // Rows of one group are usually adjacent: look a key up once per run.
  GroupKey last_key;
  PreviousRows* last = nullptr;
  auto rows_of = [&](GroupKey key) -> PreviousRows& {
    if (last == nullptr || key != last_key) {
      last_key = key;
      last = &index[key];
    }
    return *last;
  };
  for (size_t row = 0; row < previous.cells.size(); ++row) {
    const CellVerdict& v = previous.cells[row];
    rows_of({v.pair_lang, v.pair_title})
        .cells.push_back(static_cast<uint32_t>(row));
  }
  for (size_t row = 0; row < previous.updates.size(); ++row) {
    const PropagationUpdate& u = previous.updates[row];
    rows_of(u.source_lang == hub_ ? GroupKey{u.target_lang, u.target_title}
                                  : GroupKey{u.source_lang, u.source_title})
        .updates.push_back(static_cast<uint32_t>(row));
  }
  const std::set<GroupKey> dirty_keys(dirty.begin(), dirty.end());

  std::vector<Group> groups = EnumerateGroups(scopes);
  std::vector<GroupResult> results(groups.size());
  util::thread_pool_for(groups.size(), num_threads, [&](size_t i) {
    const Group& g = groups[i];
    const GroupKey key{g.scope->pair_lang, corpus_->Get(g.pair_id).title};
    const bool is_dirty =
        dirty_keys.count(key) > 0 ||
        dirty_keys.count({g.scope->hub_lang, corpus_->Get(g.hub_id).title}) >
            0;
    auto it = is_dirty ? index.end() : index.find(key);
    if (it == index.end()) {
      results[i] = ClassifyGroup(g);
      return;
    }
    // Clean group: reuse the previous verdicts.
    GroupResult& out = results[i];
    out.cells.reserve(it->second.cells.size());
    for (uint32_t row : it->second.cells) {
      out.cells.push_back(previous.cells[row]);
    }
    out.updates.reserve(it->second.updates.size());
    for (uint32_t row : it->second.updates) {
      out.updates.push_back(previous.updates[row]);
    }
  });
  return Assemble(std::move(results));
}

}  // namespace sync
}  // namespace wikimatch
