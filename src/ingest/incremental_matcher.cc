#include "ingest/incremental_matcher.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "match/schema_builder.h"
#include "match/type_matcher.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace ingest {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Records every (language, title) a FindByTitle(lang, title) resolution can
// read: the starting title, each redirect hop, and the landing title —
// walked one hop past FindByTitle's depth bound, so this is a superset of
// the titles the resolution depends on. Dangling titles are recorded too:
// an article created there later re-routes the resolution.
void AddTitleChain(const wiki::Corpus& corpus, const std::string& lang,
                   const std::string& title,
                   std::set<std::pair<std::string, std::string>>* out) {
  std::string t = title;
  for (int depth = 0; depth <= 4; ++depth) {
    out->insert({lang, t});
    wiki::ArticleId id = corpus.FindExactTitle(lang, t);
    if (id == wiki::kInvalidArticle) return;
    const wiki::Article& article = corpus.Get(id);
    if (!article.IsRedirect()) return;
    t = article.redirect_to;
  }
}

}  // namespace

std::string ApplyStats::ToString() const {
  std::ostringstream os;
  os << "generation=" << generation << " added=" << articles_added
     << " updated=" << articles_updated << " removed=" << articles_removed
     << " changed_records=" << articles_changed
     << " units_total=" << units_total << " units_reused=" << units_reused
     << " units_recomputed=" << units_recomputed
     << " corpus_ms=" << corpus_ms << " dictionary_ms=" << dictionary_ms
     << " align_ms=" << align_ms << " total_ms=" << total_ms;
  return os.str();
}

IncrementalMatcher::IncrementalMatcher(
    wiki::Corpus corpus, std::map<LanguagePair, match::PipelineResult> results,
    match::PipelineOptions options)
    : IncrementalMatcher(std::move(corpus), match::TranslationDictionary(),
                         std::move(results), std::move(options)) {
  dictionary_.Build(corpus_);
}

IncrementalMatcher::IncrementalMatcher(
    wiki::Corpus corpus, match::TranslationDictionary dictionary,
    std::map<LanguagePair, match::PipelineResult> results,
    match::PipelineOptions options)
    : corpus_(std::move(corpus)),
      dictionary_(std::move(dictionary)),
      results_(std::move(results)),
      options_(std::move(options)) {
  RebuildFootprints();
}

util::Result<IncrementalMatcher> IncrementalMatcher::FromSnapshot(
    store::Snapshot snapshot, match::PipelineOptions options) {
  if (snapshot.meta.options.has_value()) {
    store::OptionsFingerprint supplied =
        store::OptionsFingerprint::From(options);
    if (!(supplied == *snapshot.meta.options)) {
      return util::Status::InvalidArgument(
          "snapshot was built with different matcher options than supplied "
          "— unit reuse would silently diverge from a rebuild; pass the "
          "build options (snapshot: " + snapshot.meta.options->ToString() +
          "; supplied: " + supplied.ToString() + ")");
    }
  }
  IncrementalMatcher matcher(
      std::move(snapshot.corpus), std::move(snapshot.dictionary),
      std::move(snapshot.pipelines), std::move(options));
  matcher.meta_ = std::move(snapshot.meta);
  return matcher;
}

IncrementalMatcher::UnitFootprint IncrementalMatcher::ComputeFootprint(
    const wiki::Corpus& corpus, const std::string& lang_a,
    const std::string& type_a, const std::string& lang_b,
    const std::string& type_b) {
  UnitFootprint fp;
  // Mirror BuildTypePairData's dual collection (sampling deliberately not
  // applied: a footprint over every dual is a superset of one over the
  // sample, and membership changes that would re-shuffle the sample are
  // caught by the type rule anyway).
  std::vector<std::pair<wiki::ArticleId, wiki::ArticleId>> duals;
  for (wiki::ArticleId id : corpus.ArticlesOfType(lang_a, type_a)) {
    const wiki::Article& a = corpus.Get(id);
    auto it = a.cross_language_links.find(lang_b);
    if (it == a.cross_language_links.end()) continue;
    // The dual pairing resolves through redirects in lang_b.
    AddTitleChain(corpus, lang_b, it->second, &fp.titles);
    wiki::ArticleId other = corpus.CrossLanguageTarget(id, lang_b);
    if (other == wiki::kInvalidArticle) continue;
    const wiki::Article& b = corpus.Get(other);
    if (!b.infobox.has_value() || b.entity_type != type_b) continue;
    duals.emplace_back(id, other);
  }
  // Each distinct target's chain is walked once per language: repeats
  // add nothing to the title set.
  std::unordered_set<std::string> walked[2];
  for (const auto& [id_a, id_b] : duals) {
    for (int side = 0; side < 2; ++side) {
      wiki::ArticleId id = side == 0 ? id_a : id_b;
      const std::string& lang = side == 0 ? lang_a : lang_b;
      auto& walked_in_lang = walked[lang_a == lang_b ? 0 : side];
      const wiki::Article& article = corpus.Get(id);
      for (const auto& [attr, value] : article.infobox->attributes) {
        (void)attr;
        if (side == 0 && lang_a != lang_b) {
          // lang_a components pass through the dictionary pre-translation;
          // record them so dictionary diffs can dirty this unit.
          for (std::string& component : match::ValueComponents(value)) {
            fp.terms.insert(std::move(component));
          }
        }
        // Link canonicalization reads the target's redirect chain and the
        // landing article's record (the record change is caught via the
        // landing title being in the set).
        for (const auto& link : value.links) {
          if (walked_in_lang.insert(link.target).second) {
            AddTitleChain(corpus, lang, link.target, &fp.titles);
          }
        }
      }
    }
  }
  return fp;
}

void IncrementalMatcher::RebuildFootprints() {
  // One pool slot per unit across every language pair, merged in unit
  // order.
  std::vector<std::pair<const LanguagePair*, const match::TypePairResult*>>
      units;
  footprints_.clear();
  for (const auto& [pair, result] : results_) {
    for (const auto& unit : result.per_type) units.emplace_back(&pair, &unit);
  }
  std::vector<UnitFootprint> fps(units.size());
  util::thread_pool_for(units.size(), options_.num_threads, [&](size_t i) {
    const auto& [pair, unit] = units[i];
    fps[i] = ComputeFootprint(corpus_, pair->first, unit->type_a,
                              pair->second, unit->type_b);
  });
  for (size_t i = 0; i < units.size(); ++i) {
    const auto& [pair, unit] = units[i];
    footprints_[*pair].emplace(UnitKey{unit->type_a, unit->type_b},
                               std::move(fps[i]));
  }
}

util::Result<ApplyStats> IncrementalMatcher::Apply(const DeltaBatch& batch) {
  Clock::time_point apply_start = Clock::now();
  ApplyStats stats;
  stats.articles_added = batch.added.size();
  stats.articles_updated = batch.updated.size();
  stats.articles_removed = batch.removed.size();

  // 1. Patch the corpus in place. Validation is Apply's only failure point,
  // and it runs before any mutation; nothing after it can fail. The change
  // record carries the pre-images of every batch-named article plus the
  // backlinks Finalize induced beyond the batch, so together they are a
  // complete account of every record that changed.
  Clock::time_point corpus_start = Clock::now();
  DeltaChanges changes;
  WIKIMATCH_RETURN_NOT_OK(ApplyDeltaInPlace(&corpus_, batch, &changes));

  // 2. Changed-record set: every (language, title) whose finalized record
  // differs between the generations, the (language, entity type) sides any
  // changed version carries, and the dictionary keys the changed records'
  // cross-language links contribute (each link of article a feeds exactly
  // the forward key (a.lang, lang, a.title) and the reverse key
  // (lang, a.lang, title)).
  std::set<TitleKey> changed;
  std::set<std::pair<std::string, std::string>> touched_types;
  using DictKey = std::tuple<std::string, std::string, std::string>;
  std::set<DictKey> affected_keys;
  auto note_version = [&](const wiki::Article& article) {
    if (article.infobox.has_value() && !article.entity_type.empty()) {
      touched_types.insert({article.language, article.entity_type});
    }
  };
  auto note_links = [&](const wiki::Article& article) {
    for (const auto& [lang, title] : article.cross_language_links) {
      affected_keys.insert({article.language, lang, article.title});
      affected_keys.insert({lang, article.language, title});
    }
  };
  for (const wiki::Article& pre : changes.replaced) {
    const wiki::Article& post =
        corpus_.Get(corpus_.FindExactTitle(pre.language, pre.title));
    if (ArticlesEqual(pre, post)) continue;  // no-op update
    changed.insert({pre.language, pre.title});
    note_version(pre);
    note_version(post);
    note_links(pre);
    note_links(post);
  }
  for (const wiki::Article& pre : changes.removed) {
    changed.insert({pre.language, pre.title});
    note_version(pre);
    note_links(pre);
  }
  for (size_t k = corpus_.size() - changes.added_count; k < corpus_.size();
       ++k) {
    const wiki::Article& post = corpus_.Get(static_cast<wiki::ArticleId>(k));
    changed.insert({post.language, post.title});
    note_version(post);
    note_links(post);
  }
  // Induced backlinks land on articles the batch never named (including
  // survivors whose link resolution was re-routed through a new redirect).
  // Entity-type derivations need no pass of their own: in a finalized base
  // corpus they can only hit batch-named articles, whose final records are
  // compared above.
  for (const auto& backlink : changes.finalize.backlinks_added) {
    const wiki::Article& post = corpus_.Get(backlink.id);
    changed.insert({post.language, post.title});
    note_version(post);
    note_links(post);
  }
  stats.articles_changed = changed.size();
  stats.corpus_ms = MsSince(corpus_start);

  // 3. Patch the dictionary at the affected keys only. A key's entry is the
  // contribution of its lowest-id contributor (Build scans ids ascending
  // and first insertion wins). Contributors at unaffected keys are articles
  // the batch left untouched, and id compaction preserves their relative
  // order, so no unaffected key can change winners. Forward contributors
  // ((from, term) names the article's own key) are unique via the title
  // index; reverse contributors are found in one id-ascending scan whose
  // first hit per key is therefore the lowest-id one.
  Clock::time_point dict_start = Clock::now();
  std::map<std::pair<std::string, std::string>, std::set<std::string>>
      changed_terms;
  if (!affected_keys.empty()) {
    std::map<DictKey, std::pair<wiki::ArticleId, std::string>> reverse_winner;
    for (wiki::ArticleId id = 0; id < corpus_.size(); ++id) {
      const wiki::Article& b = corpus_.Get(id);
      for (const auto& [lang, title] : b.cross_language_links) {
        DictKey key{lang, b.language, title};
        if (affected_keys.count(key) == 0) continue;
        reverse_winner.emplace(std::move(key), std::make_pair(id, b.title));
      }
    }
    for (const auto& key : affected_keys) {
      const auto& [from, to, term] = key;
      std::optional<std::pair<wiki::ArticleId, std::string>> winner;
      wiki::ArticleId forward = corpus_.FindExactTitle(from, term);
      if (forward != wiki::kInvalidArticle) {
        const wiki::Article& a = corpus_.Get(forward);
        if (auto it = a.cross_language_links.find(to);
            it != a.cross_language_links.end()) {
          winner = {forward, it->second};
        }
      }
      if (auto it = reverse_winner.find(key); it != reverse_winner.end()) {
        // Strict <: on an id tie (an article contributing both ways, only
        // possible for self-language links) Build emplaces forward first.
        if (!winner.has_value() || it->second.first < winner->first) {
          winner = it->second;
        }
      }
      std::optional<std::string> current =
          dictionary_.Translate(from, term, to);
      std::optional<std::string> target =
          winner.has_value() ? std::optional<std::string>(winner->second)
                             : std::nullopt;
      if (current == target) continue;
      if (target.has_value()) {
        dictionary_.Put(from, term, to, *target);
      } else {
        dictionary_.Erase(from, term, to);
      }
      changed_terms[{from, to}].insert(term);
    }
  }
  stats.dictionary_ms = MsSince(dict_start);

  // 4. Phase 1, per language pair: re-run type matching (cheap,
  // corpus-global), mark dirty units and realign them into slots. This
  // phase only reads results_ and footprints_.
  Clock::time_point align_start = Clock::now();
  // One language pair's phase-1 output: its type matches and stats
  // (per_type still empty), and per unit either the previous generation's
  // result and footprint to reuse or the realigned slot.
  struct PairUpdate {
    const LanguagePair* pair = nullptr;
    match::PipelineResult out;
    std::vector<match::TypePairResult*> reused;  // nullptr: dirty
    std::vector<UnitFootprint*> reused_fps;
    std::vector<std::optional<match::TypePairResult>> slots;
    std::vector<UnitFootprint> slot_fps;
  };
  std::vector<PairUpdate> updates;
  updates.reserve(results_.size());
  for (auto& [pair, old_result] : results_) {
    const std::string& lang_a = pair.first;
    const std::string& lang_b = pair.second;
    Clock::time_point pair_start = Clock::now();
    PairUpdate& update = updates.emplace_back();
    update.pair = &pair;
    match::PipelineResult& out = update.out;
    match::TypeMatcher type_matcher(options_.type_min_votes,
                                    options_.type_min_confidence);
    out.type_matches = type_matcher.Match(corpus_, lang_a, lang_b);
    out.stats.type_match_ms = MsSince(pair_start);

    std::map<UnitKey, match::TypePairResult*> old_units;
    for (match::TypePairResult& unit : old_result.per_type) {
      old_units.emplace(UnitKey{unit.type_a, unit.type_b}, &unit);
    }
    auto old_fps = footprints_.find(pair);
    const std::set<std::string>* terms_ab = nullptr;
    if (auto it = changed_terms.find(pair); it != changed_terms.end()) {
      terms_ab = &it->second;
    }

    auto unit_dirty = [&](const match::TypeMatch& tm,
                          const UnitFootprint& fp) {
      if (touched_types.count({lang_a, tm.type_a}) > 0 ||
          touched_types.count({lang_b, tm.type_b}) > 0) {
        return true;
      }
      for (const TitleKey& key : changed) {
        if (fp.titles.count(key) > 0) return true;
      }
      if (terms_ab != nullptr) {
        for (const std::string& term : *terms_ab) {
          if (fp.terms.count(term) > 0) return true;
        }
      }
      return false;
    };

    // A unit is reused when the previous generation has its result and
    // footprint and nothing it read changed; the type matcher yields one
    // match per type_a, so no previous unit is reused twice.
    const size_t n = out.type_matches.size();
    update.reused.assign(n, nullptr);
    update.reused_fps.assign(n, nullptr);
    for (size_t i = 0; i < n; ++i) {
      const match::TypeMatch& tm = out.type_matches[i];
      UnitKey key{tm.type_a, tm.type_b};
      auto unit_it = old_units.find(key);
      if (unit_it == old_units.end() || old_fps == footprints_.end()) continue;
      auto fp_it = old_fps->second.find(key);
      if (fp_it == old_fps->second.end() || unit_dirty(tm, fp_it->second)) {
        continue;
      }
      update.reused[i] = unit_it->second;
      update.reused_fps[i] = &fp_it->second;
    }

    // Same slot scheme as MatchPipeline::Run, over the dirty units only,
    // so output order and merge order match a rebuild at any thread count.
    // A realigned unit's footprint is computed in the same task.
    update.slots.resize(n);
    update.slot_fps.resize(n);
    std::vector<double> schema_ms(n, 0.0);
    util::thread_pool_for(n, options_.num_threads, [&](size_t i) {
      if (update.reused[i] != nullptr) return;
      const match::TypeMatch& tm = out.type_matches[i];
      match::AlignTypePair(corpus_, dictionary_, lang_a, lang_b, tm, options_,
                           &update.slots[i], &schema_ms[i]);
      if (update.slots[i].has_value()) {
        update.slot_fps[i] =
            ComputeFootprint(corpus_, lang_a, tm.type_a, lang_b, tm.type_b);
      }
    });

    for (size_t i = 0; i < n; ++i) {
      out.stats.schema_ms += schema_ms[i];
      if (update.reused[i] != nullptr) {
        ++stats.units_reused;
      } else {
        ++stats.units_recomputed;
      }
    }
    stats.units_total += n;
    out.stats.total_ms = MsSince(pair_start);
  }

  // 5. Phase 2: move every reused unit and footprint out of the previous
  // generation and every realigned one out of its slot, in type-match
  // order (a NotFound slot is skipped, like Run), then swap the new
  // containers in. Corpus and dictionary were patched in place. The
  // displaced containers and the change record are freed when they go out
  // of scope at return.
  std::map<LanguagePair, match::PipelineResult> new_results;
  std::map<LanguagePair, std::map<UnitKey, UnitFootprint>> new_footprints;
  for (PairUpdate& update : updates) {
    match::PipelineResult& out = update.out;
    auto& fps_out = new_footprints[*update.pair];
    for (size_t i = 0; i < out.type_matches.size(); ++i) {
      const match::TypeMatch& tm = out.type_matches[i];
      UnitKey key{tm.type_a, tm.type_b};
      if (update.reused[i] != nullptr) {
        out.per_type.push_back(std::move(*update.reused[i]));
        fps_out.emplace(std::move(key), std::move(*update.reused_fps[i]));
      } else if (update.slots[i].has_value()) {
        out.per_type.push_back(std::move(*update.slots[i]));
        fps_out.emplace(std::move(key), std::move(update.slot_fps[i]));
      }
    }
    out.stats.type_pairs = out.per_type.size();
    for (const auto& unit : out.per_type) {
      out.stats.align.Merge(unit.alignment.stats);
    }
    new_results.emplace(*update.pair, std::move(out));
  }
  results_.swap(new_results);
  footprints_.swap(new_footprints);
  stats.align_ms = MsSince(align_start);
  ++meta_.generation;
  // Stamp the options the new generation's units were (re)computed under;
  // the next FromSnapshot rejects an apply with different options.
  meta_.options = store::OptionsFingerprint::From(options_);
  stats.generation = meta_.generation;
  store::DeltaRecord record;
  record.generation = meta_.generation;
  record.articles_added = stats.articles_added;
  record.articles_updated = stats.articles_updated;
  record.articles_removed = stats.articles_removed;
  record.units_reused = stats.units_reused;
  record.units_recomputed = stats.units_recomputed;
  meta_.history.push_back(record);
  stats.total_ms = MsSince(apply_start);
  return stats;
}

store::Snapshot IncrementalMatcher::ToSnapshot() const& {
  store::Snapshot snapshot;
  snapshot.corpus = corpus_;
  snapshot.dictionary = dictionary_;
  snapshot.pipelines = results_;
  snapshot.meta = meta_;
  return snapshot;
}

store::Snapshot IncrementalMatcher::ToSnapshot() && {
  store::Snapshot snapshot;
  snapshot.corpus = std::move(corpus_);
  snapshot.dictionary = std::move(dictionary_);
  snapshot.pipelines = std::move(results_);
  snapshot.meta = std::move(meta_);
  return snapshot;
}

}  // namespace ingest
}  // namespace wikimatch
