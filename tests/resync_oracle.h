// Reference incremental re-sync for differential tests: SyncEngine::Resync
// before it indexed the previous report by row number. It copies every
// previous row into a map of per-group results keyed by copied
// (language, title) strings, then copies each clean group's rows a second
// time into its result slot. Group enumeration, classification and
// assembly are the engine's, restated over its public parts (corpus,
// extractor, hub language); the file is kept only to pin Resync's output,
// report byte for report byte.

#ifndef WIKIMATCH_TESTS_RESYNC_ORACLE_H_
#define WIKIMATCH_TESTS_RESYNC_ORACLE_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/match_set.h"
#include "sync/evidence.h"
#include "sync/sync_engine.h"
#include "util/thread_pool.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace resync_oracle {

using sync::CellClass;
using sync::CellVerdict;
using sync::Evidence;
using sync::EvidenceExtractor;
using sync::PropagationUpdate;
using sync::SyncReport;
using sync::SyncScope;

inline int ClassRank(CellClass c) {
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

struct Group {
  const SyncScope* scope = nullptr;
  wiki::ArticleId pair_id = wiki::kInvalidArticle;
  wiki::ArticleId hub_id = wiki::kInvalidArticle;
};

struct GroupResult {
  std::vector<CellVerdict> cells;
  std::vector<PropagationUpdate> updates;
};

inline std::vector<Group> EnumerateGroups(
    const wiki::Corpus& corpus, const std::vector<SyncScope>& scopes) {
  std::vector<Group> groups;
  for (const SyncScope& scope : scopes) {
    for (wiki::ArticleId id :
         corpus.ArticlesOfType(scope.pair_lang, scope.type_a)) {
      wiki::ArticleId hub_id = corpus.CrossLanguageTarget(id, scope.hub_lang);
      if (hub_id == wiki::kInvalidArticle) continue;
      const wiki::Article& hub_article = corpus.Get(hub_id);
      if (hub_article.entity_type != scope.type_b ||
          !hub_article.infobox.has_value()) {
        continue;
      }
      groups.push_back(Group{&scope, id, hub_id});
    }
  }
  return groups;
}

inline GroupResult ClassifyGroup(const wiki::Corpus& corpus,
                                 const EvidenceExtractor& extractor,
                                 const Group& group) {
  GroupResult out;
  const SyncScope& scope = *group.scope;
  const wiki::Article& pair_article = corpus.Get(group.pair_id);
  const wiki::Article& hub_article = corpus.Get(group.hub_id);
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

  std::set<std::string> seen;
  for (const auto& [name, value] : pair_box.attributes) {
    if (!seen.insert(name).second) continue;
    std::set<eval::AttrKey> correspondents = scope.alignment->CorrespondentsOf(
        eval::AttrKey{scope.pair_lang, name}, scope.hub_lang);
    if (correspondents.empty()) continue;

    std::vector<std::pair<const eval::AttrKey*, const wiki::AttributeValue*>>
        present;
    for (const eval::AttrKey& c : correspondents) {
      const wiki::AttributeValue* hub_value = hub_box.Find(c.name);
      if (hub_value != nullptr) present.emplace_back(&c, hub_value);
    }
    if (present.empty()) {
      add_verdict(name, "", CellClass::kMissing, 0.0);
      add_update(/*source_is_pair=*/true, name, correspondents.begin()->name,
                 value.raw, 0.0);
      continue;
    }

    Evidence pair_ev = extractor.Extract(value, scope.pair_lang);
    size_t best = 0;
    CellClass best_class = CellClass::kUnverifiable;
    Evidence best_ev;
    for (size_t i = 0; i < present.size(); ++i) {
      Evidence hub_ev = extractor.Extract(*present[i].second, scope.hub_lang);
      CellClass cls = sync::Classify(pair_ev, hub_ev);
      if (i == 0 || ClassRank(cls) < ClassRank(best_class)) {
        best = i;
        best_class = cls;
        best_ev = std::move(hub_ev);
      }
      if (best_class == CellClass::kInSync) break;
    }
    double score = sync::AgreementScore(pair_ev, best_ev);
    add_verdict(name, present[best].first->name, best_class, score);
    if (best_class == CellClass::kStale) {
      if (sync::AIsStale(pair_ev, best_ev)) {
        add_update(/*source_is_pair=*/false, present[best].first->name, name,
                   present[best].second->raw, score);
      } else {
        add_update(/*source_is_pair=*/true, name, present[best].first->name,
                   value.raw, score);
      }
    }
  }

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

inline SyncReport Assemble(std::vector<GroupResult> results) {
  SyncReport report;
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

/// The reference Resync: `engine` supplies the extractor and must be built
/// over `corpus` with hub language `hub`.
inline SyncReport Resync(
    const wiki::Corpus& corpus, const sync::SyncEngine& engine,
    const std::string& hub, const std::vector<SyncScope>& scopes,
    const SyncReport& previous,
    const std::set<std::pair<std::string, std::string>>& dirty,
    size_t num_threads = 1) {
  using GroupKey = std::pair<std::string, std::string>;
  std::map<GroupKey, GroupResult> prev;
  for (const CellVerdict& v : previous.cells) {
    prev[{v.pair_lang, v.pair_title}].cells.push_back(v);
  }
  for (const PropagationUpdate& u : previous.updates) {
    GroupKey key = u.source_lang == hub
                       ? GroupKey{u.target_lang, u.target_title}
                       : GroupKey{u.source_lang, u.source_title};
    prev[key].updates.push_back(u);
  }

  std::vector<Group> groups = EnumerateGroups(corpus, scopes);
  std::vector<GroupResult> results(groups.size());
  util::thread_pool_for(groups.size(), num_threads, [&](size_t i) {
    const Group& g = groups[i];
    GroupKey key{g.scope->pair_lang, corpus.Get(g.pair_id).title};
    bool is_dirty =
        dirty.count(key) > 0 ||
        dirty.count({g.scope->hub_lang, corpus.Get(g.hub_id).title}) > 0;
    auto it = prev.find(key);
    if (!is_dirty && it != prev.end()) {
      results[i] = it->second;
    } else {
      results[i] = ClassifyGroup(corpus, engine.extractor(), g);
    }
  });
  return Assemble(std::move(results));
}

}  // namespace resync_oracle
}  // namespace wikimatch

#endif  // WIKIMATCH_TESTS_RESYNC_ORACLE_H_
