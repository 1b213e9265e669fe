// Input generation for the end-to-end workloads (harness set-up, excluded
// from every metric except build_dumps' setup_s): MediaWiki dumps rendered
// from a generated corpus, and the cached base snapshots, delta snapshot
// and request keyspaces the apply_delta and serve_* workloads start from.

#ifndef WIKIMATCH_BENCH_E2E_INPUTS_H_
#define WIKIMATCH_BENCH_E2E_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "ingest/delta.h"
#include "synth/generator.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace benche2e {

/// \brief Dump files of one generated corpus, plus its ground truth.
struct RenderedDumps {
  std::unique_ptr<synth::GeneratedCorpus> generated;
  std::vector<std::pair<std::string, std::string>> files;  ///< (lang, path)
  uint64_t bytes = 0;
  size_t pages = 0;
};

/// \brief The generator's default seed, which every corpus here is made
/// with; it also seeds the fixed keyspace sample and the base+1 batch. The
/// run seed varies what is done to a corpus (page order, delta batches,
/// request draws), not the corpus itself, whose size and schema vary by
/// several percent from one generator seed to the next.
inline constexpr uint64_t kCorpusSeed = 20111030;

/// \brief Generates Paper(scale) and writes en/pt/vi MediaWiki XML into
/// `dir`, pages rendered the way examples/dump_ingest.cpp does it and
/// listed in an order shuffled by `seed`.
util::Result<RenderedDumps> RenderDumps(double scale, uint64_t seed,
                                        const std::string& dir);

/// \brief The cached inputs of apply_delta and serve_*, all made from
/// Paper(base_scale). They do not depend on the run seed.
struct BaseInputs {
  std::string base_snapshot;   ///< both pairs matched, sync report included
  std::string delta_snapshot;  ///< base + DeltaBatchFor(kCorpusSeed, 0)
  std::string hot_keys;        ///< one request per line
  std::string tail_keys;
};

/// \brief The languages the base is matched over; en is the hub.
inline const std::vector<std::pair<std::string, std::string>>& BasePairs() {
  static const std::vector<std::pair<std::string, std::string>> kPairs = {
      {"pt", "en"}, {"vi", "en"}};
  return kPairs;
}

/// \brief Returns the cached base inputs for base_scale, building them
/// first when absent (once per build of this executable). The build runs
/// in a child process, so none of its memory or threads stay in the
/// measured process; call this before the process starts any thread.
util::Result<BaseInputs> EnsureBaseInputs(const RunConfig& config);

/// \brief Batch `index` of the apply_delta chain on `corpus`: 20 value
/// edits, 2 new dual pairs (4 articles), 2 removals and, every third
/// batch, a template-wide attribute rename, alternating pt and vi.
util::Result<ingest::DeltaBatch> DeltaBatchFor(const wiki::Corpus& corpus,
                                               uint64_t seed, size_t index);

/// \brief Reads a key file written by EnsureBaseInputs.
util::Result<std::vector<std::string>> ReadLines(const std::string& path);

/// \brief Creates `dir` and its parents.
util::Status MakeDirs(const std::string& dir);
/// \brief Removes `dir` and everything under it.
void RemoveTree(const std::string& dir);
/// \brief Removes `path`, so that the next write of it creates a new file,
/// as a CLI run writing a new --out path does. Writers open with
/// truncation, and ext4 starts writing a truncated-and-rewritten file back
/// to disk when it is closed (its auto_da_alloc heuristic); a later
/// truncation of it waits for that writeback, which would put the disk's
/// speed into op times.
void RemoveStaleFile(const std::string& path);

}  // namespace benche2e
}  // namespace wikimatch

#endif  // WIKIMATCH_BENCH_E2E_INPUTS_H_
