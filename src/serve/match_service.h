// MatchService: the in-process serving layer. Loads a snapshot (the
// expensive offline matching already done by `wikimatch build-snapshot`)
// and answers the line protocol's verbs — attribute translation, alignment
// listing, translated c-queries, sync rows, and the meta and stats verbs —
// from immutable in-memory state behind a sharded LRU result cache. The
// verbs, with what each needs and whether it is cached, are the VerbSpec
// rows of ProtocolVerbs() (serve/protocol.h).
//
// Generations: the snapshot and every index derived from it live in one
// immutable GenerationState held by shared_ptr. OpenGeneration() maps the
// snapshot (store/snapshot_reader.h) and decodes only its tiny meta
// section; the core — the decoded snapshot plus the pair and sync indexes
// and a column-indexed query evaluator per target language, built on the
// thread pool — is built at most once per generation, under the
// generation's own mutex, by the first Core() call. A decode error sticks to that
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
// Thread safety: a core is read-only once built (a MatchSet's const
// lookups never write), the generation pointer is swapped under a mutex,
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
#include <string_view>
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

struct VerbSpec;

/// \brief Thread-safe snapshot-backed match server with hot reload.
class MatchService {
 public:
  /// \brief Opens the snapshot at `path` for serving: maps it and decodes
  /// only the meta section (O(1) regardless of size); the core is built
  /// by the first data request. The path is remembered as the default
  /// `Reload()` source.
  static util::Result<std::unique_ptr<MatchService>> Load(
      const std::string& path, const ServiceOptions& options = {});

  /// \brief Opens the snapshot at `path` (or, with an empty path, the
  /// path of the last successful load) and builds its core off the read
  /// path, then atomically swaps it in. On error the previous generation
  /// keeps serving untouched. Concurrent Reload() calls are serialized.
  util::Status Reload(const std::string& path = "");

  /// \brief Handles one request line (see docs/SERVING.md) and returns the
  /// full response text ("ok <n>\n..." or "err <Class>: <message>\n").
  /// Successful answers of cacheable verbs are served from / inserted into
  /// the LRU cache, keyed by the raw line under the generation that
  /// produced them. `*quit`, if given, tells whether `quit` was answered.
  std::string Handle(std::string_view line, bool* quit = nullptr);

  ServiceStats Stats() const;

  /// \brief Articles in the current generation's corpus (0 while an
  /// mmap-loaded core is still deferred — see CoreLoaded()).
  size_t CorpusSize() const;

  /// \brief Snapshot meta generation currently being served.
  uint64_t Generation() const;

  /// \brief True once the current generation's core (corpus, pairs,
  /// indexes) is built. False between Load() and the first data request.
  bool CoreLoaded() const;

  /// One request as a VerbSpec handler sees it (defined in the .cc).
  struct Request;
  /// A verb's handler: the full response text for the request.
  using VerbHandler = std::string (*)(Request&);

 private:
  // The verb table's handlers read the service's private state.
  friend const std::vector<VerbSpec>& ProtocolVerbs();

  using Clock = std::chrono::steady_clock;

  struct PairServing {
    const match::PipelineResult* result = nullptr;
    std::map<std::string, const eval::MatchSet*> per_type;
    std::unique_ptr<query::QueryTranslator> translator;
    /// Evaluates translated queries: the core's evaluator for lang_b.
    const query::QueryEvaluator* evaluator = nullptr;
  };

  /// The decoded half of a generation: the snapshot plus every index
  /// derived from it. Immutable once BuildCore returns.
  struct CoreState {
    store::Snapshot snapshot;
    /// One column-indexed evaluator per target language of a pair.
    std::map<std::string, query::QueryEvaluator> evaluators;
    std::map<store::LanguagePair, PairServing> pairs;
    /// (pair_lang, type_b) -> row indices into snapshot.sync_report, so
    /// `sync` answers without scanning the report.
    std::map<std::pair<std::string, std::string>, std::vector<size_t>>
        sync_cells;
    std::map<std::pair<std::string, std::string>, std::vector<size_t>>
        sync_updates;
  };

  /// One serving epoch: the meta section (decoded at open), the pinned
  /// mapping, and the core, built at most once from that mapping.
  class GenerationState {
   public:
    GenerationState(store::SnapshotMeta meta,
                    std::shared_ptr<store::MappedSnapshot> mapped,
                    uint64_t load_seq);

    /// The core, built on the first call. A build failure is returned by
    /// this and every later call on the same generation.
    util::Result<const CoreState*> Core() const;

    /// The core if it is already built, else null; never builds.
    const CoreState* BuiltCore() const;

    const store::SnapshotMeta meta;
    /// Pins the mapping the core is decoded from: the pages stay valid
    /// even if the snapshot file is replaced or unlinked, until the
    /// generation drains.
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

  /// Answers a request whose verb is read, uncached: reads its arguments,
  /// builds the core (core and pair verbs), resolves the pair (pair
  /// verbs), then runs the handler.
  std::string Answer(Request& request, std::string_view line);

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
