// The four end-to-end workloads (README.md says what each measures and
// why it was chosen) and the two build-path ops they share with the input
// set-up (inputs.cc).

#ifndef WIKIMATCH_BENCH_E2E_WORKLOADS_H_
#define WIKIMATCH_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"
#include "ingest/delta.h"
#include "inputs.h"
#include "store/snapshot.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace benche2e {

/// \brief The build path after ingest, as `wikimatch build-snapshot` and
/// `wikimatch sync` run it: dictionary (MatchPipeline ctor), Run for every
/// BasePairs() pair, SyncEngine::Run. Returns the snapshot to write, with
/// `corpus` moved into it. Spans and counters go to `tracer` (may be null).
util::Result<store::Snapshot> MatchAndSync(wiki::Corpus corpus,
                                           Tracer* tracer);

/// \brief What one apply_delta op did.
struct DeltaOutcome {
  double op_ms = 0.0;
  /// The chain's next batch, made from this op's output corpus after the
  /// op's clock stopped.
  ingest::DeltaBatch next_batch;
};

/// \brief One `wikimatch apply-delta` equivalent: ReadSnapshotFile(in) ->
/// IncrementalMatcher::FromSnapshot -> Apply(batch) -> ToSnapshot ->
/// SyncEngine::Resync -> WriteSnapshotFile(out). op_ms covers exactly those
/// calls. The next batch is DeltaBatchFor(output corpus, seed, next_index).
util::Result<DeltaOutcome> ApplyDeltaOp(const std::string& in,
                                        const std::string& out,
                                        const ingest::DeltaBatch& batch,
                                        uint64_t seed, size_t next_index,
                                        Tracer* tracer);

/// \brief Reads the dumps (MediaWiki XML), builds, matches, syncs and
/// writes a snapshot, repeatedly.
void RunBuildDumps(const RunConfig& config, WorkloadResult* result);

/// \brief Chained apply-delta batches on the Paper(1.0) base snapshot.
void RunApplyDelta(const RunConfig& config, const BaseInputs& inputs,
                   WorkloadResult* result);

/// \brief TCP serving of the base snapshot: `tail` selects serve_tail
/// (large uniform keyspace, live reloads), otherwise serve_hot (Zipf over
/// a keyspace that fits the result cache).
void RunServe(const RunConfig& config, const BaseInputs& inputs, bool tail,
              WorkloadResult* result);

}  // namespace benche2e
}  // namespace wikimatch

#endif  // WIKIMATCH_BENCH_E2E_WORKLOADS_H_
