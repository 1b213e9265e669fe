#include "match/similarity_join.h"

#include <algorithm>

namespace wikimatch {
namespace match {

void SimilarityJoinIndex::Scratch::Prepare(size_t n) {
  if (vdot_.size() < n) {
    vdot_.resize(n, 0.0);
    ldot_.resize(n, 0.0);
  }
}

SimilarityJoinIndex::SimilarityJoinIndex(const TypePairData& data,
                                         const SimilarityJoinOptions& options)
    : data_(&data),
      options_(options),
      num_groups_(data.groups.size()) {
  value_norm_.resize(num_groups_, 0.0);
  link_norm_.resize(num_groups_, 0.0);
  link_supported_.resize(num_groups_, 0);

  // Pass 0: norms, support flags, and the term-space extents.
  size_t num_value_terms = options_.use_vsim ? data.value_terms.size() : 0;
  for (size_t i = 0; i < num_groups_; ++i) {
    const AttributeGroup& g = data.groups[i];
    value_norm_[i] = g.values.Norm();
    link_norm_[i] = g.links.Norm();
    link_supported_[i] =
        g.links.Sum() >= options_.min_link_support * g.occurrences ? 1 : 0;
    if (options_.use_vsim) {
      for (const auto& [id, w] : g.values.entries()) {
        // Ids come from data.value_terms, so they are < size(); track the
        // extent anyway for hand-built TypePairData in tests.
        if (id >= num_value_terms) num_value_terms = id + 1;
      }
    }
    if (options_.use_lsim && link_supported_[i]) {
      for (const auto& [id, w] : g.links.entries()) {
        link_ids_.push_back(id);
      }
    }
  }
  std::sort(link_ids_.begin(), link_ids_.end());
  link_ids_.erase(std::unique(link_ids_.begin(), link_ids_.end()),
                  link_ids_.end());

  // Pass 1: postings per term -> CSR offsets (exclusive prefix sum).
  auto count_into = [](std::vector<uint64_t>* offsets, size_t term) {
    ++(*offsets)[term + 1];
  };
  value_index_.offsets.assign(num_value_terms + 1, 0);
  link_index_.offsets.assign(link_ids_.size() + 1, 0);
  for (size_t i = 0; i < num_groups_; ++i) {
    const AttributeGroup& g = data.groups[i];
    if (options_.use_vsim) {
      for (const auto& [id, w] : g.values.entries()) {
        count_into(&value_index_.offsets, id);
      }
    }
    if (options_.use_lsim && link_supported_[i]) {
      for (const auto& [id, w] : g.links.entries()) {
        size_t dense = static_cast<size_t>(
            std::lower_bound(link_ids_.begin(), link_ids_.end(), id) -
            link_ids_.begin());
        count_into(&link_index_.offsets, dense);
      }
    }
  }
  for (size_t t = 1; t < value_index_.offsets.size(); ++t) {
    value_index_.offsets[t] += value_index_.offsets[t - 1];
  }
  for (size_t t = 1; t < link_index_.offsets.size(); ++t) {
    link_index_.offsets[t] += link_index_.offsets[t - 1];
  }

  // Pass 2: fill the parallel group/weight arrays. Groups are visited in
  // ascending order, so ids within each term range come out sorted — the
  // invariant the skip-to-j>i binary search relies on.
  const size_t value_total = value_index_.offsets.back();
  const size_t link_total =
      link_index_.offsets.empty() ? 0 : link_index_.offsets.back();
  value_index_.groups.resize(value_total);
  value_index_.weights.resize(value_total);
  link_index_.groups.resize(link_total);
  link_index_.weights.resize(link_total);
  std::vector<uint64_t> value_cursor(value_index_.offsets.begin(),
                                     value_index_.offsets.end() - 1);
  std::vector<uint64_t> link_cursor(
      link_index_.offsets.empty()
          ? std::vector<uint64_t>()
          : std::vector<uint64_t>(link_index_.offsets.begin(),
                                  link_index_.offsets.end() - 1));
  auto place = [&](PostingIndex* index, std::vector<uint64_t>* cursor,
                   size_t term, uint32_t group, double w) {
    const uint64_t at = (*cursor)[term]++;
    index->groups[at] = group;
    index->weights[at] = w;
  };
  for (size_t i = 0; i < num_groups_; ++i) {
    const AttributeGroup& g = data.groups[i];
    if (options_.use_vsim) {
      for (const auto& [id, w] : g.values.entries()) {
        place(&value_index_, &value_cursor, id, static_cast<uint32_t>(i), w);
      }
    }
    if (options_.use_lsim && link_supported_[i]) {
      for (const auto& [id, w] : g.links.entries()) {
        size_t dense = static_cast<size_t>(
            std::lower_bound(link_ids_.begin(), link_ids_.end(), id) -
            link_ids_.begin());
        place(&link_index_, &link_cursor, dense, static_cast<uint32_t>(i),
              w);
      }
    }
  }
  num_postings_ = value_total + link_total;
}

void SimilarityJoinIndex::AccumulateRow(size_t i, Scratch* scratch) const {
  const AttributeGroup& g = data_->groups[i];
  const uint32_t row = static_cast<uint32_t>(i);

  // Accumulates w_i · w_j for every posting partner j > i of one term
  // range. The outer iteration follows the group's own std::map (ascending
  // term id), so for a fixed pair the additions happen in exactly the
  // order SparseVector::Dot visits the shared terms.
  auto accumulate_range = [&](const PostingIndex& index, size_t term,
                              double w, double* dot) {
    const uint32_t* groups = index.groups.data();
    const double* weights = index.weights.data();
    // Postings are in ascending group order; skip to j > i.
    const uint64_t end = index.offsets[term + 1];
    const uint64_t begin = static_cast<uint64_t>(
        std::upper_bound(groups + index.offsets[term], groups + end, row) -
        groups);
    scratch->postings_visited_ += end - begin;
    for (uint64_t k = begin; k < end; ++k) dot[groups[k]] += w * weights[k];
  };

  if (options_.use_vsim) {
    const size_t num_terms = value_index_.num_terms();
    for (const auto& [id, w] : g.values.entries()) {
      if (id >= num_terms) continue;
      accumulate_range(value_index_, id, w, scratch->vdot_.data());
    }
  }
  if (options_.use_lsim && link_supported_[i]) {
    for (const auto& [id, w] : g.links.entries()) {
      auto it = std::lower_bound(link_ids_.begin(), link_ids_.end(), id);
      if (it == link_ids_.end() || *it != id) continue;
      const size_t dense = static_cast<size_t>(it - link_ids_.begin());
      accumulate_range(link_index_, dense, w, scratch->ldot_.data());
    }
  }
}

}  // namespace match
}  // namespace wikimatch
