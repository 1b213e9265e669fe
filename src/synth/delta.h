// Controlled delta-batch generator: the edit-stream counterpart of
// CorpusGenerator. Given an already-generated (or any finalized) corpus, it
// emits a deterministic ingest::DeltaBatch exercising the edit kinds real
// wikis produce between dumps — template-wide attribute renames, value
// edits, new dual articles, and deletions — restricted to chosen entity
// types so tests and benchmarks can dirty a known subset of type pairs.

#ifndef WIKIMATCH_SYNTH_DELTA_H_
#define WIKIMATCH_SYNTH_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ingest/delta.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace synth {

/// \brief What to mutate. All randomness flows through `seed`.
struct DeltaSpec {
  uint64_t seed = 20230411;
  /// The language pair whose dual articles are edited (lang_b is the hub).
  std::string lang_a = "pt";
  std::string lang_b = "en";
  /// Hub-side entity types eligible for edits; empty = every type with at
  /// least one dual pair in (lang_a, lang_b).
  std::vector<std::string> types_b;
  /// Template-wide renames: one attribute of one eligible type renamed in
  /// every lang_a article of that type (how template parameter renames
  /// land in practice).
  size_t attribute_renames = 0;
  /// Single-article value edits (a token appended to one attribute value,
  /// alternating sides of the dual pair).
  size_t value_edits = 0;
  /// New dual pairs cloned from existing ones under fresh titles.
  size_t new_articles = 0;
  /// lang_a-side articles of dual pairs deleted (the hub side survives).
  size_t removals = 0;
};

/// \brief Builds the batch. NotFound when no eligible dual pair exists;
/// InvalidArgument when both languages are equal.
util::Result<ingest::DeltaBatch> MakeDeltaBatch(const wiki::Corpus& corpus,
                                                const DeltaSpec& spec);

}  // namespace synth
}  // namespace wikimatch

#endif  // WIKIMATCH_SYNTH_DELTA_H_
