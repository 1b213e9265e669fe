#include "ingest/incremental_matcher.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "match/schema_builder.h"
#include "match/type_matcher.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
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

struct IncrementalMatcher::ReclaimerSlot {
  util::Mutex mu;
  util::TaskHandle handle WIKIMATCH_GUARDED_BY(mu);
};

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
      options_(std::move(options)),
      reclaimer_(std::make_unique<ReclaimerSlot>()) {
  RebuildFootprints();
}

IncrementalMatcher::IncrementalMatcher(IncrementalMatcher&&) noexcept =
    default;

IncrementalMatcher::~IncrementalMatcher() {
  if (reclaimer_ == nullptr) return;  // moved-from shell
  util::MutexLock lock(reclaimer_->mu);
  // Blocks until the in-flight reclaim (if any) finished — and if it is
  // still queued behind a saturated pool, steals and runs it right here
  // (TaskHandle::Wait's contract), so destruction never deadlocks and
  // never abandons retired state.
  reclaimer_->handle.Wait();
}

struct IncrementalMatcher::RetiredState {
  DeltaUndo undo;  // pre-images of replaced/removed articles
  std::map<LanguagePair, match::PipelineResult> results;
  std::map<LanguagePair, std::map<UnitKey, UnitFootprint>> footprints;
};

void IncrementalMatcher::ReclaimAsync(std::unique_ptr<RetiredState> retired) {
  util::MutexLock lock(reclaimer_->mu);
  // One reclaim in flight at a time (the historical join-then-launch
  // behavior): waiting on the previous handle bounds retired-state memory
  // to a single generation.
  reclaimer_->handle.Wait();
  // shared_ptr capture because std::function requires copyable callables;
  // the pool releases the closure (and with it the state) as soon as the
  // task ran, so the deallocation still happens off this thread.
  reclaimer_->handle = util::thread_pool_async(
      [state = std::shared_ptr<RetiredState>(std::move(retired))]() mutable {
        state.reset();
      });
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

  // 1. Patch the corpus in place (validation is the only failure point, and
  // it runs before any mutation). The undo record carries the pre-images of
  // every batch-named article plus the mutations Finalize performed beyond
  // the batch — and Finalize's only two mutation kinds (entity-type
  // derivation, induced symmetric links) are both reported — so together
  // they are a complete account of every record that changed.
  Clock::time_point corpus_start = Clock::now();
  auto retired = std::make_unique<RetiredState>();
  WIKIMATCH_RETURN_NOT_OK(ApplyDeltaInPlace(&corpus_, batch, &retired->undo));
  const DeltaUndo& undo = retired->undo;

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
  for (const auto& [id, pre] : undo.replaced) {
    (void)id;  // pre-batch id; removals below it may have shifted the record
    const wiki::Article& post =
        corpus_.Get(corpus_.FindExactTitle(pre.language, pre.title));
    if (ArticlesEqual(pre, post)) continue;  // no-op update
    changed.insert({pre.language, pre.title});
    note_version(pre);
    note_version(post);
    note_links(pre);
    note_links(post);
  }
  for (const auto& [id, pre] : undo.removed) {
    (void)id;
    changed.insert({pre.language, pre.title});
    note_version(pre);
    note_links(pre);
  }
  for (size_t k = corpus_.size() - undo.added_count; k < corpus_.size(); ++k) {
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
  for (const auto& backlink : undo.finalize.backlinks_added) {
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
  std::vector<std::pair<DictKey, std::optional<std::string>>> dict_undo;
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
      dict_undo.emplace_back(key, std::move(current));
      if (target.has_value()) {
        dictionary_.Put(from, term, to, *target);
      } else {
        dictionary_.Erase(from, term, to);
      }
      changed_terms[{from, to}].insert(term);
    }
  }
  stats.dictionary_ms = MsSince(dict_start);

  // Undoes steps 1–3 so a failed Apply leaves the matcher serving its
  // previous generation byte-identically.
  auto fail = [&](util::Status status) {
    for (const auto& [key, old] : dict_undo) {
      const auto& [from, to, term] = key;
      if (old.has_value()) {
        dictionary_.Put(from, term, to, *old);
      } else {
        dictionary_.Erase(from, term, to);
      }
    }
    RevertDelta(&corpus_, std::move(retired->undo));
    return status;
  };

  // 4. Per language pair: re-run type matching (cheap, corpus-global),
  // then realign dirty units and reuse the rest. Results land in new
  // containers and commit at the end; corpus and dictionary are already
  // patched, so an alignment failure goes through fail() to roll them back.
  Clock::time_point align_start = Clock::now();
  std::map<LanguagePair, match::PipelineResult> new_results;
  std::map<LanguagePair, std::map<UnitKey, UnitFootprint>> new_footprints;
  for (const auto& [pair, old_result] : results_) {
    const std::string& lang_a = pair.first;
    const std::string& lang_b = pair.second;
    Clock::time_point pair_start = Clock::now();
    match::PipelineResult out;
    match::TypeMatcher type_matcher(options_.type_min_votes,
                                    options_.type_min_confidence);
    out.type_matches = type_matcher.Match(corpus_, lang_a, lang_b);
    out.stats.type_match_ms = MsSince(pair_start);

    std::map<UnitKey, size_t> old_index;
    for (size_t i = 0; i < old_result.per_type.size(); ++i) {
      old_index.emplace(UnitKey{old_result.per_type[i].type_a,
                                old_result.per_type[i].type_b},
                        i);
    }
    const auto& old_fps = footprints_[pair];
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

    std::vector<bool> dirty(out.type_matches.size(), false);
    for (size_t i = 0; i < out.type_matches.size(); ++i) {
      const match::TypeMatch& tm = out.type_matches[i];
      auto old_it = old_index.find(UnitKey{tm.type_a, tm.type_b});
      auto fp_it = old_fps.find(UnitKey{tm.type_a, tm.type_b});
      dirty[i] = old_it == old_index.end() || fp_it == old_fps.end() ||
                 unit_dirty(tm, fp_it->second);
    }

    // Same slot scheme as MatchPipeline::Run, over the dirty units only,
    // so output order and merge order match a rebuild at any thread count.
    // A realigned unit's footprint is computed in the same task.
    std::vector<std::optional<match::TypePairResult>> slots(
        out.type_matches.size());
    std::vector<UnitFootprint> slot_fps(out.type_matches.size());
    std::vector<util::Status> errors(out.type_matches.size());
    std::vector<double> schema_ms(out.type_matches.size(), 0.0);
    util::thread_pool_for(
        out.type_matches.size(), options_.num_threads, [&](size_t i) {
          if (!dirty[i]) return;
          const match::TypeMatch& tm = out.type_matches[i];
          errors[i] = match::AlignTypePair(corpus_, dictionary_, lang_a,
                                           lang_b, tm, options_, &slots[i],
                                           &schema_ms[i]);
          if (slots[i].has_value()) {
            slot_fps[i] = ComputeFootprint(corpus_, lang_a, tm.type_a,
                                           lang_b, tm.type_b);
          }
        });

    auto& fps_out = new_footprints[pair];
    for (size_t i = 0; i < out.type_matches.size(); ++i) {
      if (!errors[i].ok()) return fail(errors[i]);
      out.stats.schema_ms += schema_ms[i];
      const match::TypeMatch& tm = out.type_matches[i];
      UnitKey key{tm.type_a, tm.type_b};
      if (dirty[i]) {
        ++stats.units_recomputed;
        if (!slots[i].has_value()) continue;  // NotFound: skipped, like Run
        fps_out.emplace(key, std::move(slot_fps[i]));
        out.per_type.push_back(std::move(*slots[i]));
      } else {
        ++stats.units_reused;
        // Copies (not moves) so a failed Apply never corrupts the base.
        out.per_type.push_back(old_result.per_type[old_index[key]]);
        fps_out.emplace(key, old_fps.at(key));
      }
    }
    stats.units_total += out.type_matches.size();

    out.stats.type_pairs = out.per_type.size();
    for (const auto& unit : out.per_type) {
      out.stats.align.Merge(unit.alignment.stats);
    }
    out.stats.total_ms = MsSince(pair_start);
    new_results.emplace(pair, std::move(out));
  }
  stats.align_ms = MsSince(align_start);

  // 5. Commit. Corpus and dictionary were patched in place; only the result
  // and footprint containers swap. The retired containers — and the undo
  // bundle's pre-image articles — go to the background reclaimer: their
  // destructors are pure deallocation that nothing downstream waits on.
  retired->results = std::move(results_);
  retired->footprints = std::move(footprints_);
  results_ = std::move(new_results);
  footprints_ = std::move(new_footprints);
  ReclaimAsync(std::move(retired));
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
