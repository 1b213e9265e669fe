// Sparse similarity join for the aligner feature stage (Section 3.2).
//
// Scoring every cross-product pair of attribute groups by re-walking both
// groups' map-backed sparse vectors is an O(n² · k) scan that recomputes
// norms, sums, and link-support flags for every pair. SimilarityJoinIndex
// builds, once per TypePairData:
//
//   * an inverted index term-id -> postings of (group, weight) for the
//     value vectors and for the link-structure vectors (the latter only
//     over groups that clear the link-support floor), and
//   * per-group caches of the vector norms, link sums, and support flags,
//
// so that all nonzero vsim/lsim dot products of one group row are
// accumulated in a single pass over the row's posting ranges. Pairs whose
// value *and* link similarity are exactly zero are never emitted.
//
// Memory layout (docs/PERFORMANCE.md): postings live in structure-of-
// arrays form — one contiguous uint32 group-id array and a parallel weight
// array per index, addressed through a CSR-style offset table (no
// per-term vectors, no pointer chasing). Link targets are corpus-level
// canonical ids and sparse, so they are remapped through a sorted dense id
// table instead of a hash map. A row accumulates with one loop per posting
// range, dot[groups[k]] += w * weights[k], and its nonzero partners are
// recovered by a dense sweep of the row's tail.
//
// Equivalence guarantee: every emitted cosine is bit-identical to
// SparseVector::Cosine — contributions are added in ascending term-id
// order (the same order Dot() visits shared terms), and the final division
// uses the same norm product. tests/align_join_test.cc asserts this end to
// end against the all-pairs oracle in tests/align_oracle.h.
//
// Thread safety: a built index is immutable; concurrent callers pass their
// own Scratch and share no mutable state.

#ifndef WIKIMATCH_MATCH_SIMILARITY_JOIN_H_
#define WIKIMATCH_MATCH_SIMILARITY_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "match/schema_builder.h"

namespace wikimatch {
namespace match {

/// \brief Feature switches mirrored from MatcherConfig (kept separate so
/// the join does not depend on the aligner header).
struct SimilarityJoinOptions {
  bool use_vsim = true;
  bool use_lsim = true;
  /// Link-structure support floor (MatcherConfig::min_link_support).
  double min_link_support = 0.05;
};

/// \brief One nonzero similarity entry of a group row.
struct SimilarityEntry {
  uint32_t j = 0;  ///< partner group index (always > the row index)
  double vsim = 0.0;
  double lsim = 0.0;
};

/// \brief Inverted-index join over one TypePairData's attribute groups.
class SimilarityJoinIndex {
 public:
  /// \brief One caller's accumulation state. Reusable across rows and
  /// across ForEachNonZero calls; grows to the largest group count seen.
  class Scratch {
   public:
    size_t postings_visited() const { return postings_visited_; }

   private:
    friend class SimilarityJoinIndex;
    void Prepare(size_t n);

    std::vector<double> vdot_;
    std::vector<double> ldot_;
    size_t postings_visited_ = 0;
  };

  SimilarityJoinIndex(const TypePairData& data,
                      const SimilarityJoinOptions& options);

  /// \brief Emits every pair (i, j), j > i, whose vsim or lsim is nonzero,
  /// in ascending j order. `emit(entry)` similarities are bit-identical to
  /// the pairwise SparseVector::Cosine values.
  ///
  /// `emit` is a template callback (not std::function): the call inlines
  /// into the row loop with no type-erased indirect call per emitted pair.
  template <typename Emit>
  void ForEachNonZero(size_t i, Scratch* scratch, Emit&& emit) const {
    scratch->Prepare(num_groups_);
    AccumulateRow(i, scratch);
    const double vnorm_i = value_norm_[i];
    const double lnorm_i = link_norm_[i];
    double* vdot = scratch->vdot_.data();
    double* ldot = scratch->ldot_.data();
    // Dense sweep of the row's tail: ascending j by construction, and the
    // accumulation keeps no record of which slots it touched. A touched
    // slot that cancelled to exactly zero is skipped like an untouched one.
    const uint32_t n = static_cast<uint32_t>(num_groups_);
    for (uint32_t j = static_cast<uint32_t>(i) + 1; j < n; ++j) {
      const double vd = vdot[j];
      const double ld = ldot[j];
      if (vd == 0.0 && ld == 0.0) continue;
      SimilarityEntry entry;
      entry.j = j;
      // Same expression shape as SparseVector::Cosine (dot / (na * nb)),
      // so the result matches the pairwise evaluation bit for bit.
      if (vd != 0.0) entry.vsim = vd / (vnorm_i * value_norm_[j]);
      if (ld != 0.0) entry.lsim = ld / (lnorm_i * link_norm_[j]);
      vdot[j] = 0.0;
      ldot[j] = 0.0;
      if (entry.vsim != 0.0 || entry.lsim != 0.0) emit(entry);
    }
  }

  /// \brief Cached link-support flag of group `i` (links.Sum() clears
  /// min_link_support · occurrences).
  bool link_supported(size_t i) const { return link_supported_[i] != 0; }

  /// \brief Total posting entries across both indexes.
  size_t num_postings() const { return num_postings_; }

  size_t num_groups() const { return num_groups_; }

 private:
  /// One CSR-addressed structure-of-arrays posting index: for term t the
  /// postings occupy [offsets[t], offsets[t+1]) of the parallel group-id /
  /// weight arrays; group ids are strictly increasing within a range.
  struct PostingIndex {
    std::vector<uint64_t> offsets;
    std::vector<uint32_t> groups;
    std::vector<double> weights;

    size_t num_terms() const {
      return offsets.empty() ? 0 : offsets.size() - 1;
    }
  };

  /// Accumulates row `i`'s dot products into the scratch arrays.
  void AccumulateRow(size_t i, Scratch* scratch) const;

  const TypePairData* data_;
  SimilarityJoinOptions options_;
  size_t num_groups_ = 0;
  size_t num_postings_ = 0;

  // Value postings are dense in the shared value-term space (offsets
  // indexed by term id directly). Link postings are keyed by corpus-level
  // canonical target ids, which are sparse: link_ids_ holds the sorted
  // distinct ids and offsets are indexed by the dense remapped position.
  PostingIndex value_index_;
  PostingIndex link_index_;
  std::vector<uint32_t> link_ids_;

  std::vector<double> value_norm_;
  std::vector<double> link_norm_;
  std::vector<uint8_t> link_supported_;
};

}  // namespace match
}  // namespace wikimatch

#endif  // WIKIMATCH_MATCH_SIMILARITY_JOIN_H_
