// build_dumps and apply_delta: the batch paths of `wikimatch
// build-snapshot` + `sync` (from dump XML) and `wikimatch apply-delta`,
// driven through the same public calls the CLI makes.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>

#include "eval/metrics.h"
#include "ingest/incremental_matcher.h"
#include "match/pipeline.h"
#include "match/serialize.h"
#include "store/crc32.h"
#include "sync/sync_engine.h"
#include "synth/generator.h"
#include "util/binary_io.h"
#include "util/thread_pool.h"
#include "wiki/dump_reader.h"
#include "wiki/wikitext_parser.h"
#include "workloads.h"

namespace wikimatch {
namespace benche2e {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

void Count(Tracer* tracer, const std::string& name, double value) {
  if (tracer != nullptr) tracer->Count(name, value);
}

match::PipelineOptions CliPipelineOptions() {
  // build-snapshot and apply-delta both default to every core.
  match::PipelineOptions options;
  options.num_threads = util::DefaultThreads();
  return options;
}

util::Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return util::Status::IoError("cannot read " + path);
  std::string bytes;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

std::string PipelineBytes(const match::PipelineResult& result) {
  util::BinaryWriter w;
  match::EncodePipelineResult(result, &w);
  return w.TakeBuffer();
}

// Weighted pt:en F1 of `result` against the generator's ground truth,
// averaged over aligned types (EXPERIMENTS.md Table 2's WikiMatch row).
double PtEnF1(const match::PipelineResult& result,
              const synth::GeneratedCorpus& truth) {
  std::vector<eval::Prf> rows;
  for (const auto& tr : result.per_type) {
    auto hub = truth.hub_type_of.find({truth.hub, tr.type_b});
    if (hub == truth.hub_type_of.end()) continue;
    auto gt = truth.ground_truth.find(hub->second);
    if (gt == truth.ground_truth.end()) continue;
    rows.push_back(eval::WeightedPrf(tr.alignment.matches, gt->second,
                                     tr.frequencies, "pt", truth.hub));
  }
  return eval::AveragePrf(rows).f1;
}

// pt:en F1 of MatchPipeline run directly on the generated corpus (no dump
// round trip, so no dependence on page order); 0 when the run fails.
double ReferenceF1(const synth::GeneratedCorpus& generated) {
  match::MatchPipeline pipeline(&generated.corpus);
  auto result = pipeline.Run("pt", "en", CliPipelineOptions());
  return result.ok() ? PtEnF1(*result, generated) : 0.0;
}

using TitleKey = std::pair<std::string, std::string>;  // (language, title)

// The keys `wikimatch apply-delta` marks dirty for the sync refresh.
std::set<TitleKey> DirtyKeys(const ingest::DeltaBatch& batch) {
  std::set<TitleKey> dirty;
  for (const auto& article : batch.added) {
    dirty.emplace(article.language, article.title);
  }
  for (const auto& article : batch.updated) {
    dirty.emplace(article.language, article.title);
  }
  for (const auto& key : batch.removed) dirty.insert(key);
  return dirty;
}

// A sync report's rows grouped by article pair: (pair language, pair-side
// title, hub-side title).
struct SyncGroups {
  using Key = std::tuple<std::string, std::string, std::string>;
  std::vector<Key> order;
  std::map<Key, std::vector<const sync::CellVerdict*>> cells;
  std::map<Key, std::vector<const sync::PropagationUpdate*>> updates;

  explicit SyncGroups(const sync::SyncReport& report) {
    for (const auto& cell : report.cells) {
      Key key{cell.pair_lang, cell.pair_title, cell.hub_title};
      if (order.empty() || order.back() != key) order.push_back(key);
      cells[key].push_back(&cell);
    }
    for (const auto& u : report.updates) {
      Key key = u.source_lang == "en"
                    ? Key{u.target_lang, u.target_title, u.source_title}
                    : Key{u.source_lang, u.source_title, u.target_title};
      updates[key].push_back(&u);
    }
  }
};

template <typename T>
bool SameRows(const std::map<SyncGroups::Key, std::vector<const T*>>& a,
              const std::map<SyncGroups::Key, std::vector<const T*>>& b,
              const SyncGroups::Key& key, size_t* rows) {
  static const std::vector<const T*> kNone;
  auto ia = a.find(key);
  auto ib = b.find(key);
  const auto& ra = ia == a.end() ? kNone : ia->second;
  const auto& rb = ib == b.end() ? kNone : ib->second;
  *rows = std::max(ra.size(), rb.size());
  if (ra.size() != rb.size()) return false;
  for (size_t i = 0; i < ra.size(); ++i) {
    if (!(*ra[i] == *rb[i])) return false;
  }
  return true;
}

struct SyncComparison {
  bool contract_ok = true;
  size_t stale_cells = 0;  ///< differing rows of groups the batch left clean
  std::string first_difference;
};

// Compares the chain's refreshed report with a full SyncEngine::Run on the
// same corpus. Groups touching a key of the last batch were reclassified
// by Resync and must match exactly, in the same relative order. Rows of
// the other groups were copied from the previous report; they are counted
// when they differ but do not fail the check, because Resync only promises
// equality while alignments stay fixed (docs/SYNC.md), and apply-delta
// realigns dirty units without re-syncing their untouched article pairs.
SyncComparison CompareSyncReports(const sync::SyncReport& chained,
                                  const sync::SyncReport& full,
                                  const std::set<TitleKey>& dirty) {
  SyncComparison out;
  auto fail = [&out](const std::string& what) {
    if (out.contract_ok) out.first_difference = what;
    out.contract_ok = false;
  };
  if (chained.generation != full.generation) fail("generation");
  SyncGroups a(chained), b(full);
  auto is_dirty = [&dirty](const SyncGroups::Key& key) {
    return dirty.count({std::get<0>(key), std::get<1>(key)}) > 0 ||
           dirty.count({"en", std::get<2>(key)}) > 0;
  };
  std::vector<SyncGroups::Key> dirty_a, dirty_b;
  for (const auto& key : a.order) {
    if (is_dirty(key)) dirty_a.push_back(key);
  }
  for (const auto& key : b.order) {
    if (is_dirty(key)) dirty_b.push_back(key);
  }
  if (dirty_a != dirty_b) fail("order of reclassified groups");
  std::set<SyncGroups::Key> keys;
  for (const auto& group : {&a, &b}) {
    for (const auto& [key, rows] : group->cells) keys.insert(key);
    for (const auto& [key, rows] : group->updates) keys.insert(key);
  }
  for (const auto& key : keys) {
    size_t cell_rows = 0, update_rows = 0;
    bool same = SameRows(a.cells, b.cells, key, &cell_rows);
    same = SameRows(a.updates, b.updates, key, &update_rows) && same;
    if (same) continue;
    if (is_dirty(key)) {
      fail("reclassified group " + std::get<0>(key) + ":" + std::get<1>(key));
    } else {
      out.stale_cells += cell_rows;
    }
  }
  return out;
}

// One build_dumps op. Returns the written snapshot; op_ms covers the
// first dump read through the snapshot write.
util::Result<store::Snapshot> BuildOp(const RenderedDumps& dumps,
                                      const std::string& snapshot_path,
                                      Tracer* tracer, double* op_ms) {
  auto start = Clock::now();
  Tracer::Span op(tracer, "build.op");
  wiki::Corpus corpus;
  wiki::WikitextParser parser;
  for (const auto& [lang, path] : dumps.files) {
    util::Result<std::vector<wiki::DumpPage>> pages =
        util::Status::Internal("unread");
    {
      Tracer::Span span(tracer, "wiki.dump_read");
      pages = wiki::ReadDumpFile(path);
    }
    if (!pages.ok()) return pages.status().WithContext(path);
    Count(tracer, "wiki.pages", static_cast<double>(pages->size()));
    Count(tracer, "wiki.dump_mb", static_cast<double>(FileBytes(path)) / kMiB);
    Tracer::Span span(tracer, "wiki.ingest");
    auto added = corpus.IngestDump(*pages, lang, parser);
    if (!added.ok()) return added.status().WithContext(path);
    pages = util::Status::Internal("consumed");  // frees the pages here
  }
  {
    Tracer::Span span(tracer, "wiki.finalize");
    corpus.Finalize();
  }
  auto snapshot = MatchAndSync(std::move(corpus), tracer);
  if (!snapshot.ok()) return snapshot.status();
  {
    Tracer::Span span(tracer, "store.write");
    util::Status status = store::WriteSnapshotFile(*snapshot, snapshot_path);
    if (!status.ok()) return status;
  }
  op.End();
  *op_ms = MsSince(start);
  Count(tracer, "store.bytes_written",
        static_cast<double>(FileBytes(snapshot_path)));
  return snapshot;
}

// What a batch workload timed: its set-up cycles and its ops, split by
// whether the tracer was on.
struct BatchTimes {
  std::vector<double> setup_ms;
  std::vector<double> op_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;

  void AddOp(double ms, bool traced) {
    op_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
  }
};

// Fills a batch workload's facts and end-to-end metrics and, on trace runs,
// its per-layer metrics (`layer_sources` maps each to the tracer median it
// is), the layer table of the units rooted at `root`, and the trace file.
void ReportBatch(
    const RunConfig& config, const Tracer& tracer, const std::string& root,
    const std::vector<std::pair<const char*, const char*>>& layer_sources,
    const BatchTimes& times, bool rss_reset, double peak_mb,
    uint64_t snapshot_bytes, WorkloadResult* result) {
  double total_s = 0.0;
  for (double ms : times.op_ms) total_s += ms / 1000.0;
  result->facts.emplace_back("rss_reset", rss_reset ? "true" : "false");
  result->facts.emplace_back("setup_ms", JsonArray(times.setup_ms));
  result->facts.emplace_back("op_ms", JsonArray(times.op_ms));
  SetEndToEnd(
      Median(times.setup_ms) / 1000.0, Median(times.op_ms),
      total_s > 0 ? static_cast<double>(times.op_ms.size()) / total_s : 0.0,
      peak_mb, static_cast<double>(snapshot_bytes) / kMiB, result);
  if (!config.trace) return;
  const std::map<std::string, double> medians = tracer.UnitMedians();
  std::map<std::string, double> layer;
  for (const auto& [metric, source] : layer_sources) {
    auto it = medians.find(source);
    if (it != medians.end()) layer[metric] = it->second;
  }
  layer["trace.overhead_pct"] =
      TraceOverheadPct(times.traced_ms, times.untraced_ms);
  layer["client.p99_ms"] = Quantile(times.op_ms, 0.99);
  SetPerLayer(layer, result);
  result->layer_table =
      RenderLayerTable(result->workload + ": one op (" +
                           std::to_string(times.traced_ms.size()) +
                           " traced ops summed)",
                       tracer.LayerTable(root));
  if (!config.trace_path.empty() &&
      !tracer.WriteChromeTrace(config.trace_path)) {
    result->Fail("cannot write trace " + config.trace_path);
  }
}

}  // namespace

util::Result<store::Snapshot> MatchAndSync(wiki::Corpus corpus,
                                           Tracer* tracer) {
  const match::PipelineOptions options = CliPipelineOptions();
  store::Snapshot snapshot;
  {
    std::unique_ptr<match::MatchPipeline> pipeline;
    {
      Tracer::Span span(tracer, "match.dictionary");
      pipeline = std::make_unique<match::MatchPipeline>(&corpus);
    }
    for (const auto& [lang_a, lang_b] : BasePairs()) {
      Tracer::Span span(tracer, "match.pipeline");
      auto result = pipeline->Run(lang_a, lang_b, options);
      if (!result.ok()) {
        return result.status().WithContext("pair " + lang_a + ":" + lang_b);
      }
      const match::PipelineStats& stats = result->stats;
      Count(tracer, "match.type_match_cpu_ms", stats.type_match_ms);
      Count(tracer, "match.schema_cpu_ms", stats.schema_ms);
      Count(tracer, "match.align_cpu_ms", stats.align.total_ms);
      Count(tracer, "match.postings_visited",
            static_cast<double>(stats.align.postings_visited));
      Count(tracer, "match.pairs_generated",
            static_cast<double>(stats.align.pairs_generated));
      Count(tracer, "match.pairs_pruned",
            static_cast<double>(stats.align.pairs_pruned));
      snapshot.pipelines.emplace(store::LanguagePair(lang_a, lang_b),
                                 std::move(result).ValueOrDie());
    }
    snapshot.dictionary = pipeline->dictionary();
  }
  {
    Tracer::Span span(tracer, "sync.run");
    sync::SyncEngine engine(&corpus, &snapshot.dictionary, "en");
    snapshot.sync_report = engine.Run(
        sync::SyncEngine::ScopesFromPipelines(snapshot.pipelines),
        util::DefaultThreads());
  }
  Count(tracer, "sync.cells",
        static_cast<double>(snapshot.sync_report.cells.size()));
  snapshot.corpus = std::move(corpus);
  snapshot.meta.options = store::OptionsFingerprint::From(options);
  return snapshot;
}

util::Result<DeltaOutcome> ApplyDeltaOp(const std::string& in,
                                        const std::string& out,
                                        const ingest::DeltaBatch& batch,
                                        uint64_t seed, size_t next_index,
                                        Tracer* tracer) {
  const match::PipelineOptions options = CliPipelineOptions();
  DeltaOutcome outcome;
  ingest::ApplyStats apply_stats;
  auto start = Clock::now();
  Tracer::Span op(tracer, "delta.op");
  util::Result<store::Snapshot> snapshot = util::Status::Internal("unread");
  {
    Tracer::Span span(tracer, "store.read");
    snapshot = store::ReadSnapshotFile(in);
  }
  if (!snapshot.ok()) return snapshot.status().WithContext(in);
  sync::SyncReport previous_sync = std::move(snapshot->sync_report);
  Tracer::Span from_snapshot(tracer, "ingest.from_snapshot");
  auto matcher = ingest::IncrementalMatcher::FromSnapshot(
      std::move(snapshot).ValueOrDie(), options);
  from_snapshot.End();
  if (!matcher.ok()) return matcher.status();
  {
    Tracer::Span span(tracer, "ingest.apply");
    auto stats = matcher->Apply(batch);
    if (!stats.ok()) return stats.status();
    apply_stats = *stats;
  }
  store::Snapshot next;
  {
    Tracer::Span span(tracer, "ingest.to_snapshot");
    next = matcher->ToSnapshot();
  }
  {
    Tracer::Span span(tracer, "sync.resync");
    sync::SyncEngine engine(&next.corpus, &next.dictionary, "en");
    sync::SyncReport report =
        engine.Resync(sync::SyncEngine::ScopesFromPipelines(next.pipelines),
                      previous_sync, DirtyKeys(batch), options.num_threads);
    report.generation = next.meta.generation;
    next.sync_report = std::move(report);
  }
  {
    Tracer::Span span(tracer, "store.write");
    util::Status status = store::WriteSnapshotFile(next, out);
    if (!status.ok()) return status;
  }
  op.End();
  outcome.op_ms = MsSince(start);

  Count(tracer, "ingest.corpus_ms", apply_stats.corpus_ms);
  Count(tracer, "ingest.dictionary_ms", apply_stats.dictionary_ms);
  Count(tracer, "ingest.align_ms", apply_stats.align_ms);
  Count(tracer, "ingest.units_recomputed",
        static_cast<double>(apply_stats.units_recomputed));
  Count(tracer, "ingest.units_total",
        static_cast<double>(apply_stats.units_total));
  Count(tracer, "sync.cells",
        static_cast<double>(next.sync_report.cells.size()));
  Count(tracer, "store.bytes_written", static_cast<double>(FileBytes(out)));

  auto next_batch = DeltaBatchFor(matcher->corpus(), seed, next_index);
  if (!next_batch.ok()) return next_batch.status();
  outcome.next_batch = std::move(next_batch).ValueOrDie();
  return outcome;
}

void RunBuildDumps(const RunConfig& config, WorkloadResult* result) {
  const Params& p = config.params;
  const std::string run_dir =
      config.work_dir + "/run-build-" + std::to_string(::getpid());
  util::Status status = MakeDirs(run_dir);
  if (!status.ok()) {
    result->Fail(status.ToString());
    return;
  }
  result->facts.emplace_back("scale", JsonNumber(p.build_scale));

  // Set-up: generate the corpus and render its dumps, several times.
  CpuRotation rotation;
  BatchTimes times;
  RenderedDumps dumps;
  for (size_t c = 0; c < p.setup_cycles_build; ++c) {
    rotation.PinThisThread(c);
    auto start = Clock::now();
    auto rendered = RenderDumps(p.build_scale, config.seed, run_dir);
    times.setup_ms.push_back(MsSince(start));
    if (!rendered.ok()) {
      result->Fail("render dumps: " + rendered.status().ToString());
      RemoveTree(run_dir);
      return;
    }
    dumps = std::move(rendered).ValueOrDie();
  }
  result->facts.emplace_back("pages", std::to_string(dumps.pages));
  result->facts.emplace_back("dump_bytes", std::to_string(dumps.bytes));

  Tracer tracer(config.trace);
  const std::string snapshot_path = run_dir + "/build.snap";
  uint32_t first_crc = 0;
  uint64_t snapshot_bytes = 0;
  double f1 = 0.0;
  bool rss_reset = ResetPeakRss();
  auto phase_start = Clock::now();
  while (times.op_ms.size() < p.build_min_ops ||
         MsSince(phase_start) < 1000.0 * config.seconds) {
    const size_t k = times.op_ms.size();
    // Trace runs alternate traced and untraced ops; k / 2 gives each CPU
    // one of both.
    rotation.PinThisThread(config.trace ? k / 2 : k);
    tracer.set_enabled(config.trace && k % 2 == 0);
    double ms = 0.0;
    RemoveStaleFile(snapshot_path);
    auto snapshot = BuildOp(dumps, snapshot_path, &tracer, &ms);
    result->attempted++;
    times.AddOp(ms, tracer.enabled());
    if (!snapshot.ok()) {
      result->failed++;
      result->Fail("build op: " + snapshot.status().ToString());
      break;
    }
    // Output checks, off the clock: every rendered page came back as an
    // article, identical bytes every op, and the first op's pt:en quality
    // above the floor.
    auto bytes = ReadFileBytes(snapshot_path);
    bool op_ok = bytes.ok();
    const uint32_t crc = op_ok ? store::Crc32(*bytes) : 0;
    const uint64_t size = op_ok ? bytes->size() : 0;
    if (!op_ok) {
      result->Fail(bytes.status().ToString());
    } else if (snapshot->corpus.size() != dumps.pages) {
      op_ok = false;
      result->Fail("op " + std::to_string(k) + " built " +
                   std::to_string(snapshot->corpus.size()) +
                   " articles from " + std::to_string(dumps.pages) +
                   " pages");
    } else if (k == 0) {
      first_crc = crc;
      snapshot_bytes = size;
      auto pt = snapshot->pipelines.find({"pt", "en"});
      f1 = pt == snapshot->pipelines.end()
               ? 0.0
               : PtEnF1(pt->second, *dumps.generated);
      if (f1 < p.f1_floor) {
        op_ok = false;
        result->Fail("pt:en F1 " + JsonNumber(f1) + " below " +
                     JsonNumber(p.f1_floor));
      }
    } else if (crc != first_crc || size != snapshot_bytes) {
      op_ok = false;
      result->Fail("op " + std::to_string(k) +
                   " wrote different snapshot bytes than op 0");
    }
    if (!op_ok) result->failed++;
  }
  tracer.set_enabled(false);
  const double peak_mb = PeakRssMb();
  RemoveTree(run_dir);

  // Quality pin, off the clock and independent of the seed.
  const double reference_f1 = ReferenceF1(*dumps.generated);
  if (std::abs(reference_f1 - p.f1_reference) > p.f1_tolerance) {
    result->failed++;
    result->Fail("reference pt:en F1 " + JsonNumber(reference_f1) +
                 " is not within " + JsonNumber(p.f1_tolerance) + " of " +
                 JsonNumber(p.f1_reference));
  }

  result->facts.emplace_back("pt_en_f1", JsonNumber(f1));
  result->facts.emplace_back("reference_pt_en_f1", JsonNumber(reference_f1));
  ReportBatch(config, tracer, "build.op",
              {{"wiki.dump_read_ms", "wiki.dump_read"},
               {"wiki.dump_mb", "wiki.dump_mb"},
               {"wiki.ingest_ms", "wiki.ingest"},
               {"wiki.finalize_ms", "wiki.finalize"},
               {"wiki.pages", "wiki.pages"},
               {"match.dictionary_ms", "match.dictionary"},
               {"match.pipeline_ms", "match.pipeline"},
               {"match.type_match_cpu_ms", "match.type_match_cpu_ms"},
               {"match.schema_cpu_ms", "match.schema_cpu_ms"},
               {"match.align_cpu_ms", "match.align_cpu_ms"},
               {"match.postings_visited", "match.postings_visited"},
               {"match.pairs_generated", "match.pairs_generated"},
               {"match.pairs_pruned", "match.pairs_pruned"},
               {"sync.run_ms", "sync.run"},
               {"sync.cells", "sync.cells"},
               {"store.write_ms", "store.write"},
               {"store.bytes_written", "store.bytes_written"},
               {"build.unaccounted_ms", "build.op.self_ms"}},
              times, rss_reset, peak_mb, snapshot_bytes, result);
}

void RunApplyDelta(const RunConfig& config, const BaseInputs& inputs,
                   WorkloadResult* result) {
  const Params& p = config.params;
  const std::string run_dir =
      config.work_dir + "/run-delta-" + std::to_string(::getpid());
  util::Status status = MakeDirs(run_dir);
  if (!status.ok()) {
    result->Fail(status.ToString());
    return;
  }
  result->facts.emplace_back("scale", JsonNumber(p.base_scale));

  // Set-up: bring up an incremental matcher on the base snapshot, the
  // fixed cost every apply-delta invocation pays before its first batch.
  CpuRotation rotation;
  BatchTimes times;
  ingest::DeltaBatch batch;
  for (size_t c = 0; c < p.setup_cycles_delta; ++c) {
    rotation.PinThisThread(c);
    auto start = Clock::now();
    auto snapshot = store::ReadSnapshotFile(inputs.base_snapshot);
    if (!snapshot.ok()) {
      result->Fail("read base: " + snapshot.status().ToString());
      RemoveTree(run_dir);
      return;
    }
    auto matcher = ingest::IncrementalMatcher::FromSnapshot(
        std::move(snapshot).ValueOrDie(), CliPipelineOptions());
    times.setup_ms.push_back(MsSince(start));
    if (!matcher.ok()) {
      result->Fail("from snapshot: " + matcher.status().ToString());
      RemoveTree(run_dir);
      return;
    }
    if (c + 1 == p.setup_cycles_delta) {
      auto first = DeltaBatchFor(matcher->corpus(), config.seed, 0);
      if (!first.ok()) {
        result->Fail("delta batch: " + first.status().ToString());
        RemoveTree(run_dir);
        return;
      }
      batch = std::move(first).ValueOrDie();
    }
  }

  Tracer tracer(config.trace);
  std::string in = inputs.base_snapshot;
  std::string out;
  std::set<TitleKey> last_dirty;
  bool rss_reset = ResetPeakRss();
  auto phase_start = Clock::now();
  while (times.op_ms.size() < p.delta_min_ops ||
         MsSince(phase_start) < 1000.0 * config.seconds) {
    const size_t k = times.op_ms.size();
    // Trace runs alternate traced and untraced ops; k / 2 gives each CPU
    // one of both.
    rotation.PinThisThread(config.trace ? k / 2 : k);
    tracer.set_enabled(config.trace && k % 2 == 0);
    out = run_dir + (k % 2 == 0 ? "/chain-a.snap" : "/chain-b.snap");
    last_dirty = DirtyKeys(batch);
    RemoveStaleFile(out);
    auto outcome = ApplyDeltaOp(in, out, batch, config.seed, k + 1, &tracer);
    result->attempted++;
    if (!outcome.ok()) {
      result->failed++;
      result->Fail("delta op " + std::to_string(k) + ": " +
                   outcome.status().ToString());
      break;
    }
    times.AddOp(outcome->op_ms, tracer.enabled());
    batch = std::move(outcome->next_batch);
    in = out;
  }
  tracer.set_enabled(false);
  const double peak_mb = PeakRssMb();
  const uint64_t snapshot_bytes = FileBytes(out);

  // Output check, off the clock: the chain's last pipelines must equal a
  // from-scratch match of the same corpus byte for byte, and its sync
  // report a full sync wherever the last batch reclassified (see
  // CompareSyncReports).
  if (result->correct() && !times.op_ms.empty()) {
    auto last = store::ReadSnapshotFile(out);
    if (!last.ok()) {
      result->Fail("read chain output: " + last.status().ToString());
    } else {
      match::MatchPipeline full(&last->corpus);
      std::map<store::LanguagePair, match::PipelineResult> rebuilt;
      for (const auto& [lang_a, lang_b] : BasePairs()) {
        auto run = full.Run(lang_a, lang_b, CliPipelineOptions());
        if (!run.ok()) {
          result->Fail("full run: " + run.status().ToString());
          continue;
        }
        const store::LanguagePair pair(lang_a, lang_b);
        auto chained = last->pipelines.find(pair);
        if (chained == last->pipelines.end() ||
            PipelineBytes(chained->second) != PipelineBytes(*run)) {
          result->Fail("pair " + lang_a + ":" + lang_b +
                       " differs from a full MatchPipeline::Run");
        }
        rebuilt.emplace(pair, std::move(run).ValueOrDie());
      }
      sync::SyncEngine engine(&last->corpus, &full.dictionary(), "en");
      sync::SyncReport report = engine.Run(
          sync::SyncEngine::ScopesFromPipelines(rebuilt),
          util::DefaultThreads());
      report.generation = last->meta.generation;
      SyncComparison cmp =
          CompareSyncReports(last->sync_report, report, last_dirty);
      result->facts.emplace_back("sync_stale_cells",
                                 std::to_string(cmp.stale_cells));
      if (!cmp.contract_ok) {
        result->Fail("resync report differs from a full SyncEngine::Run: " +
                     cmp.first_difference);
      }
    }
    if (!result->correct()) result->failed++;
  }
  RemoveTree(run_dir);

  ReportBatch(config, tracer, "delta.op",
              {{"store.read_ms", "store.read"},
               {"ingest.from_snapshot_ms", "ingest.from_snapshot"},
               {"ingest.apply_ms", "ingest.apply"},
               {"ingest.to_snapshot_ms", "ingest.to_snapshot"},
               {"ingest.corpus_ms", "ingest.corpus_ms"},
               {"ingest.dictionary_ms", "ingest.dictionary_ms"},
               {"ingest.align_ms", "ingest.align_ms"},
               {"ingest.units_recomputed", "ingest.units_recomputed"},
               {"ingest.units_total", "ingest.units_total"},
               {"sync.resync_ms", "sync.resync"},
               {"sync.cells", "sync.cells"},
               {"store.write_ms", "store.write"},
               {"store.bytes_written", "store.bytes_written"},
               {"delta.unaccounted_ms", "delta.op.self_ms"}},
              times, rss_reset, peak_mb, snapshot_bytes, result);
}

}  // namespace benche2e
}  // namespace wikimatch
