// MatchService: the in-process serving layer. Loads a snapshot (the
// expensive offline matching already done by `wikimatch build-snapshot`)
// and answers three request types — attribute-translation lookup, per-type
// alignment listing, and translated c-query evaluation — from immutable
// in-memory state behind a sharded LRU result cache.
//
// Generations: the snapshot and every index derived from it live in one
// immutable GenerationState held by shared_ptr. OpenGeneration() maps the
// snapshot (store/snapshot_reader.h) and decodes only its tiny meta
// section; the core — the decoded snapshot plus the pair and sync indexes
// — is built at most once per generation, under the generation's own
// mutex, by the first Core() call. A decode error sticks to that
// generation. Load() opens a generation and defers the core, so the
// service constructs in constant time regardless of snapshot size and the
// meta verbs (help, health, version, generation, reload) answer without
// it; the first data request builds it. Reload() opens a generation,
// builds its core, and only then swaps the pointer, so on any error the
// previous generation keeps serving. Readers pin the current generation
// for the duration of one request: in-flight requests finish against the
// generation they started on, and the old one (with its mapping) is freed
// when its last reader drops it (RCU by shared_ptr). Replacing or
// unlinking the snapshot file therefore never invalidates a mapping still
// being served from. Cache keys are tagged with the generation's load
// sequence number, which invalidates every cached response at swap time
// without touching the cache: stale entries simply stop being
// addressable and age out of the LRU.
//
// Thread safety: a core is read-only once built (MatchSets are fully
// path-compressed at build so even their lazy union-find performs no
// writes), the generation pointer is swapped under a mutex,
// the cache is internally synchronized, and counters are atomic —
// Handle() and Reload() may be called from any number of threads
// concurrently.

#ifndef WIKIMATCH_SERVE_MATCH_SERVICE_H_
#define WIKIMATCH_SERVE_MATCH_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "query/evaluator.h"
#include "query/translator.h"
#include "serve/lru_cache.h"
#include "store/snapshot.h"
#include "store/snapshot_reader.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace wikimatch {
namespace serve {

/// \brief Serving configuration.
struct ServiceOptions {
  /// Total LRU result-cache entries (0 disables caching).
  size_t cache_capacity = 4096;
  /// Cache shards (concurrency width).
  size_t cache_shards = 8;
  /// Maximum answers per query request.
  size_t query_top_k = 20;
};

/// \brief Observability counters.
struct ServiceStats {
  uint64_t requests = 0;  ///< Handle() calls, including errors
  uint64_t errors = 0;    ///< requests answered with "err"
  uint64_t generation = 0;  ///< snapshot meta generation being served
  uint64_t loads = 0;       ///< generations installed (initial load = 1)
  int64_t loaded_unix = 0;  ///< wall-clock time the generation installed
  double uptime_s = 0.0;    ///< since service construction
  double generation_age_s = 0.0;  ///< since the current generation opened
  CacheStats cache;
};

/// \brief One answer of a translated query.
struct ServedAnswer {
  std::string title;
  double score = 0.0;
  std::vector<std::string> projections;
};

/// \brief Result of a translated c-query evaluation.
struct ServedQueryResult {
  std::string translated_query;
  size_t constraints_translated = 0;
  size_t constraints_relaxed = 0;
  std::vector<ServedAnswer> answers;
};

/// \brief Thread-safe snapshot-backed match server with hot reload.
class MatchService {
 public:
  /// \brief Opens the snapshot at `path` for serving: maps it and decodes
  /// only the meta section (O(1) regardless of size); the core is built
  /// by the first data request. The path is remembered as the default
  /// `Reload()` source.
  static util::Result<std::unique_ptr<MatchService>> Load(
      const std::string& path, const ServiceOptions& options = {});

  /// \brief Builds a service from an in-memory snapshot (tests, bench).
  static std::unique_ptr<MatchService> Create(
      store::Snapshot snapshot, const ServiceOptions& options = {});

  /// \brief Opens the snapshot at `path` (or, with an empty path, the
  /// path of the last successful load) and builds its core off the read
  /// path, then atomically swaps it in. On error the previous generation
  /// keeps serving untouched. Concurrent Reload() calls are serialized.
  util::Status Reload(const std::string& path = "");

  // ---- Typed API (uncached) ----------------------------------------------

  /// \brief Correspondents of attribute (`lang`, `name`) of the pair's
  /// type `type_b` in the pair's *other* language, as "lang:name" strings.
  util::Result<std::vector<std::string>> TranslateAttribute(
      const std::string& lang_a, const std::string& lang_b,
      const std::string& type_b, const std::string& lang,
      const std::string& name) const;

  /// \brief All alignment clusters of `type_b`, one "l:a ~ l:b" line each.
  util::Result<std::vector<std::string>> ListAlignments(
      const std::string& lang_a, const std::string& lang_b,
      const std::string& type_b) const;

  /// \brief Translates `query_text` (written in `lang_a`) across the pair
  /// and evaluates it against the snapshot corpus in `lang_b`.
  util::Result<ServedQueryResult> EvaluateTranslatedQuery(
      const std::string& lang_a, const std::string& lang_b,
      const std::string& query_text) const;

  // ---- Line protocol (cached) --------------------------------------------

  /// \brief Handles one request line (see docs/SERVING.md) and returns the
  /// full response text ("ok <n>\n..." or "err <message>\n"). Successful
  /// responses are served from / inserted into the LRU cache, keyed under
  /// the generation that produced them.
  std::string Handle(const std::string& line);

  ServiceStats Stats() const;

  /// \brief Articles in the current generation's corpus (0 while an
  /// mmap-loaded core is still deferred — see CoreLoaded()).
  size_t CorpusSize() const;

  /// \brief Snapshot meta generation currently being served.
  uint64_t Generation() const;

  /// \brief True once the current generation's core (corpus, pairs,
  /// indexes) is built. False between Load() and the first data request.
  bool CoreLoaded() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct PairServing {
    const match::PipelineResult* result = nullptr;
    std::map<std::string, const eval::MatchSet*> per_type;
    std::unique_ptr<query::QueryTranslator> translator;
  };

  /// The decoded half of a generation: the snapshot plus every index
  /// derived from it. Immutable once BuildCore returns.
  struct CoreState {
    store::Snapshot snapshot;
    std::map<store::LanguagePair, PairServing> pairs;
    /// (pair_lang, type_b) -> row indices into snapshot.sync_report, so
    /// `sync` answers without scanning the report.
    std::map<std::pair<std::string, std::string>, std::vector<size_t>>
        sync_cells;
    std::map<std::pair<std::string, std::string>, std::vector<size_t>>
        sync_updates;

    const PairServing* FindPair(const std::string& lang_a,
                                const std::string& lang_b) const;
  };

  /// One serving epoch: the meta section (decoded at open), the pinned
  /// mapping, and the core, built at most once from that mapping.
  class GenerationState {
   public:
    /// `core` is null for an opened snapshot (built on first Core()) and
    /// set for an in-memory one, which has no mapping to build from.
    GenerationState(store::SnapshotMeta meta,
                    std::shared_ptr<store::MappedSnapshot> mapped,
                    uint64_t load_seq, std::unique_ptr<const CoreState> core);

    /// The core, built on the first call. A build failure is returned by
    /// this and every later call on the same generation.
    util::Result<const CoreState*> Core() const;

    /// The core if it is already built, else null; never builds.
    const CoreState* BuiltCore() const;

    const store::SnapshotMeta meta;
    /// Pins the mapping the core is decoded from (null for in-memory
    /// snapshots): the pages stay valid even if the snapshot file is
    /// replaced or unlinked, until the generation drains.
    const std::shared_ptr<store::MappedSnapshot> mapped;
    const uint64_t load_seq;  ///< 1 for the initial load, +1 per reload
    const int64_t loaded_unix;  ///< wall clock at open
    const Clock::time_point loaded_at;

   private:
    mutable util::Mutex core_mu_;
    mutable std::unique_ptr<const CoreState> core_
        WIKIMATCH_GUARDED_BY(core_mu_);
    mutable util::Status decode_error_ WIKIMATCH_GUARDED_BY(core_mu_);
  };

  explicit MatchService(const ServiceOptions& options);

  /// Maps `path` and decodes its meta section; the core is deferred.
  static util::Result<std::shared_ptr<const GenerationState>> OpenGeneration(
      const std::string& path, uint64_t load_seq);

  static std::unique_ptr<const CoreState> BuildCore(store::Snapshot snapshot);

  /// Pins the current generation (shared_ptr copy under a short lock).
  std::shared_ptr<const GenerationState> Current() const;

  // Typed API against one core.
  util::Result<std::vector<std::string>> TranslateAttribute(
      const CoreState& core, const std::string& lang_a,
      const std::string& lang_b, const std::string& type_b,
      const std::string& lang, const std::string& name) const;
  util::Result<std::vector<std::string>> ListAlignments(
      const CoreState& core, const std::string& lang_a,
      const std::string& lang_b, const std::string& type_b) const;
  util::Result<ServedQueryResult> EvaluateTranslatedQuery(
      const CoreState& core, const std::string& lang_a,
      const std::string& lang_b, const std::string& query_text) const;

  /// Uncached dispatch against one pinned generation.
  std::string Dispatch(const GenerationState& gen, const std::string& line,
                       bool* cacheable);

  ServiceOptions options_;
  ShardedLruCache cache_;
  Clock::time_point started_;

  // Guards gen_ (pointer copy + swap only); a GenerationState guards its
  // own core.
  mutable util::Mutex gen_mu_;
  std::shared_ptr<const GenerationState> gen_ WIKIMATCH_GUARDED_BY(gen_mu_);

  util::Mutex reload_mu_;  // serializes writers; guards source_path_
  std::string source_path_ WIKIMATCH_GUARDED_BY(reload_mu_);

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> loads_{0};
};

}  // namespace serve
}  // namespace wikimatch

#endif  // WIKIMATCH_SERVE_MATCH_SERVICE_H_
