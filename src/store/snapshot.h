// Versioned binary snapshot of a finished matching run: the finalized
// corpus, the translation dictionary, and one full PipelineResult per
// language pair. A snapshot is what `wikimatch build-snapshot` produces
// offline and what the serving subsystem (src/serve/) loads once to answer
// lookups and translated queries without re-running the matcher.
//
// File layout (all integers little-endian; see docs/SERVING.md):
//
//   header   magic u32 ("WMSN") | version u32 | section_count u32 |
//            reserved u32 (zero)
//   section  kind u32 | payload_size u64 | crc32 u32 | payload bytes
//            (repeated section_count times; trailing bytes are ignored)
//
// Section kinds: 1 = corpus, 2 = dictionary, 3 = pipeline result (payload
// begins with lang_a, lang_b; repeats once per pair), 4 = meta (snapshot
// generation number plus the delta-manifest history appended by
// `wikimatch apply-delta`), 5 = sync report (the last `wikimatch sync`
// result, docs/SYNC.md). Kinds 6 and 7 are reserved: earlier writers
// appended a directory (6) and a pad (7) section plus a 16-byte uncounted
// footer, and the reader skips them like any other unknown kind. Unknown
// kinds within a supported version are skipped, so sections can be added
// without a version bump. There is one reader, MappedSnapshot
// (store/snapshot_reader.h): it walks the counted section headers, and
// ReadSnapshotFile is that walk plus a full decode. Truncated, corrupt,
// or version-mismatched input fails with a descriptive util::Status,
// never undefined behavior.
//
// Writes are crash-safe and safe under a live mapping: SnapshotWriter
// writes a temp file next to the target and Finish() renames it over the
// target after an fsync, so a reader never sees a partial file and a
// process that has the old file mapped keeps its pages.

#ifndef WIKIMATCH_STORE_SNAPSHOT_H_
#define WIKIMATCH_STORE_SNAPSHOT_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "match/dictionary.h"
#include "match/pipeline.h"
#include "sync/sync_engine.h"
#include "util/binary_io.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace store {

inline constexpr uint32_t kSnapshotMagic = 0x4E534D57u;  // "WMSN" on disk
inline constexpr uint32_t kSnapshotVersion = 1;

/// \brief Section kinds of the snapshot container.
enum class SectionKind : uint32_t {
  kCorpus = 1,
  kDictionary = 2,
  kPipeline = 3,
  kMeta = 4,
  kSyncReport = 5,
  // 6 and 7 are reserved (directory and pad of earlier writers).
};

/// \brief A language pair, source first ("pt", "en").
using LanguagePair = std::pair<std::string, std::string>;

/// \brief One applied delta batch, as recorded in the snapshot manifest.
struct DeltaRecord {
  uint64_t generation = 0;  // generation the batch produced
  uint64_t articles_added = 0;
  uint64_t articles_updated = 0;
  uint64_t articles_removed = 0;
  uint64_t units_reused = 0;
  uint64_t units_recomputed = 0;
};

/// \brief The result-affecting subset of match::PipelineOptions, persisted
/// in the snapshot meta section so `apply-delta` can verify it reuses unit
/// results under the exact options that produced them (docs/INGEST.md).
///
/// Execution-only switches are deliberately excluded: num_threads changes
/// wall clock, never bytes — the equivalence suites assert that — so it is
/// free to differ between the build and the apply.
struct OptionsFingerprint {
  // MatcherConfig thresholds.
  double t_sim = 0.0;
  double t_lsi = 0.0;
  double t_inductive = 0.0;
  double t_revise_min_sim = 0.0;
  double min_link_support = 0.0;
  uint64_t lsi_rank = 0;
  double lsi_co_occur_tolerance = 0.0;
  // MatcherConfig ablation switches.
  bool use_vsim = true;
  bool use_lsim = true;
  bool use_lsi = true;
  bool use_integrate_constraint = true;
  bool use_revise_uncertain = true;
  bool use_inductive_grouping = true;
  bool random_order = false;
  bool single_step = false;
  uint64_t random_seed = 0;
  bool keep_all_pairs = false;
  /// Whether the similarity join scored with exact double weights. Always
  /// true for snapshots written now (the join has no other mode); an older
  /// snapshot built with fp32-quantized weights reads back false, still
  /// loads and serves, and is refused by `apply-delta` because its scores
  /// cannot be reproduced. Trailing field: files from writers older than
  /// the field read back as true.
  bool use_exact_cosine = true;
  // SchemaBuilderOptions.
  bool translate_values = true;
  uint64_t schema_min_occurrences = 0;
  uint64_t schema_max_sample_infoboxes = 0;
  // Pipeline-level type-matching thresholds.
  uint64_t type_min_votes = 0;
  double type_min_confidence = 0.0;

  /// \brief Extracts the fingerprint of a full options struct.
  static OptionsFingerprint From(const match::PipelineOptions& options);

  bool operator==(const OptionsFingerprint& other) const = default;

  /// \brief Compact key=value rendering for mismatch diagnostics.
  std::string ToString() const;
};

/// \brief Generation number + delta manifest + options fingerprint
/// (section kind 4).
///
/// A freshly built snapshot is generation 0 with an empty history; each
/// `wikimatch apply-delta` bumps the generation and appends a DeltaRecord.
/// The section is written only when non-default, so generation-0 snapshots
/// without a recorded fingerprint are byte-identical to pre-meta ones and
/// old files read back as generation 0. The fingerprint rides as trailing
/// fields of the same payload — old readers ignore trailing bytes and old
/// files read back with no fingerprint — so neither addition bumped the
/// format version.
struct SnapshotMeta {
  uint64_t generation = 0;
  std::vector<DeltaRecord> history;
  /// Options the pipeline results were built with; absent in snapshots
  /// from writers that predate the field (then apply-delta trusts the
  /// caller, the pre-fingerprint behavior).
  std::optional<OptionsFingerprint> options;

  bool IsDefault() const {
    return generation == 0 && history.empty() && !options.has_value();
  }
};

/// \brief Everything a snapshot holds, in memory.
struct Snapshot {
  wiki::Corpus corpus;
  match::TranslationDictionary dictionary;
  std::map<LanguagePair, match::PipelineResult> pipelines;
  SnapshotMeta meta;
  /// Last `wikimatch sync` result (section kind 5). Written only when
  /// non-empty, like the meta section, so snapshots that never ran sync
  /// keep their pre-sync bytes; `serve` answers sync verbs from this
  /// without recomputation.
  sync::SyncReport sync_report;
};

/// \brief Streaming writer: one Write* call per section, then Finish().
///
/// Each section is encoded straight into a temp file in the target's
/// directory: a provisional section header, then the payload in
/// BinaryWriter::kBlockBytes blocks with the CRC chained over them, then
/// the real payload size and CRC patched into the header. No section is
/// held whole in memory. Finish() patches the section count into
/// the header, fsyncs, and renames the temp file over the target, then
/// fsyncs the directory. A writer destroyed without a successful Finish()
/// (crash mid-build, error) unlinks its temp file and leaves whatever was
/// at the target path untouched.
class SnapshotWriter {
 public:
  /// \brief Creates the temp file for `path` and emits a provisional
  /// header.
  static util::Result<SnapshotWriter> Open(const std::string& path);

  SnapshotWriter(SnapshotWriter&& other) noexcept;
  SnapshotWriter& operator=(SnapshotWriter&& other) noexcept;
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;
  ~SnapshotWriter();

  util::Status WriteCorpus(const wiki::Corpus& corpus);
  util::Status WriteDictionary(const match::TranslationDictionary& dict);
  util::Status WritePipeline(const std::string& lang_a,
                             const std::string& lang_b,
                             const match::PipelineResult& result);
  util::Status WriteMeta(const SnapshotMeta& meta);
  util::Status WriteSyncReport(const sync::SyncReport& report);

  /// \brief Patches the section count into the header, makes the file
  /// durable, and atomically replaces the target path with it.
  util::Status Finish();

 private:
  SnapshotWriter(std::FILE* file, std::string path, std::string temp_path)
      : file_(file), path_(std::move(path)), temp_path_(std::move(temp_path)) {}

  /// Writes one section whose payload `encode` puts into the writer.
  util::Status WriteSection(
      SectionKind kind,
      const std::function<void(util::BinaryWriter*)>& encode);
  /// Closes and unlinks the temp file of an unfinished writer.
  void Abandon();

  std::FILE* file_ = nullptr;
  std::string path_;       // the target
  std::string temp_path_;  // where the bytes go until Finish()
  uint32_t section_count_ = 0;
};

/// \brief Writes a complete in-memory snapshot to `path`.
util::Status WriteSnapshotFile(const Snapshot& snapshot,
                               const std::string& path);

/// \brief Decodes one section's payload into `snapshot` (the body of
/// MappedSnapshot::Decode). Unknown kinds are ignored. The payload must
/// already be CRC-verified.
util::Status DecodeSnapshotSection(SectionKind kind,
                                   std::string_view payload,
                                   Snapshot* snapshot);

/// \brief Reads and validates a snapshot file: MappedSnapshot::Map plus
/// Decode (store/snapshot_reader.h), so every section's CRC is checked.
///
/// Errors: IoError (unreadable file), ParseError (bad magic, CRC mismatch,
/// malformed section payload), OutOfRange (truncated file or section),
/// InvalidArgument (unsupported version).
util::Result<Snapshot> ReadSnapshotFile(const std::string& path);

}  // namespace store
}  // namespace wikimatch

#endif  // WIKIMATCH_STORE_SNAPSHOT_H_
