#include "match/aligner.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "match/similarity_join.h"
#include "util/rng.h"

namespace wikimatch {
namespace match {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Shared body of InductiveGroupingScore: `member(k)` answers whether group
// k is already matched. The public static passes MatchSet::Contains; the
// Align hot loop passes an O(1) group-index bitmap (valid because group
// keys are unique there, so key- and index-membership coincide).
template <typename Member>
double InductiveGroupingScoreImpl(const TypePairData& data,
                                  const eval::MatchSet& matches,
                                  Member&& member, size_t i, size_t j) {
  const std::string& lang_i = data.groups[i].key.language;
  const std::string& lang_j = data.groups[j].key.language;

  // C_a: matched attributes co-occurring with a in its mono-lingual schema.
  auto companions = [&](size_t idx, const std::string& lang) {
    std::vector<size_t> out;
    for (size_t k = 0; k < data.groups.size(); ++k) {
      if (k == idx || data.groups[k].key.language != lang) continue;
      if (!member(k)) continue;
      auto it = data.co_occur.find({std::min(idx, k), std::max(idx, k)});
      if (it != data.co_occur.end() && it->second > 0.0) out.push_back(k);
    }
    return out;
  };
  std::vector<size_t> ca = companions(i, lang_i);
  std::vector<size_t> cb = companions(j, lang_j);

  double sum = 0.0;
  size_t count = 0;
  for (size_t a : ca) {
    for (size_t b : cb) {
      if (!matches.AreMatched(data.groups[a].key, data.groups[b].key)) {
        continue;
      }
      sum += AttributeAligner::GroupingScore(data, i, a) *
             AttributeAligner::GroupingScore(data, j, b);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace

void AlignStats::Merge(const AlignStats& other) {
  groups += other.groups;
  pairs_total += other.pairs_total;
  pairs_generated += other.pairs_generated;
  pairs_pruned += other.pairs_pruned;
  postings_visited += other.postings_visited;
  lsi_ms += other.lsi_ms;
  feature_ms += other.feature_ms;
  order_ms += other.order_ms;
  match_ms += other.match_ms;
  total_ms += other.total_ms;
}

AttributeAligner::AttributeAligner(MatcherConfig config)
    : config_(std::move(config)) {}

double AttributeAligner::ValueSimilarity(const AttributeGroup& a,
                                         const AttributeGroup& b) {
  return a.values.Cosine(b.values);
}

double AttributeAligner::LinkSimilarity(const AttributeGroup& a,
                                        const AttributeGroup& b) {
  return a.links.Cosine(b.links);
}

double AttributeAligner::GroupingScore(const TypePairData& data, size_t i,
                                       size_t j) {
  if (i == j) return 1.0;
  double oi = data.groups[i].occurrences;
  double oj = data.groups[j].occurrences;
  if (oi <= 0.0 || oj <= 0.0) return 0.0;
  auto it = data.co_occur.find({std::min(i, j), std::max(i, j)});
  double opq = it == data.co_occur.end() ? 0.0 : it->second;
  return opq / std::min(oi, oj);
}

double AttributeAligner::InductiveGroupingScore(const TypePairData& data,
                                                const eval::MatchSet& matches,
                                                size_t i, size_t j) {
  return InductiveGroupingScoreImpl(
      data, matches,
      [&](size_t k) { return matches.Contains(data.groups[k].key); }, i, j);
}

// Inverted-index feature pass: one pass over posting lists per group row,
// LSI scored row-by-row, rows appended in group order. Unless
// keep_all_pairs forces full materialization, a pair is only emitted when
// its similarity is nonzero or the LSI ordering still needs it (lsi > t_lsi
// admits it to the queue even with zero direct evidence — such pairs can
// shift the random_order shuffle and, when t_revise_min_sim admits them,
// reach ReviseUncertain). tests/align_oracle.h keeps the all-pairs cosine
// loop this pass must reproduce bit for bit. The pass is sequential: type
// pairs already spread over the pool, and one pair's join is a few ms
// (docs/PERFORMANCE.md "Threads").
std::vector<CandidatePair> AttributeAligner::IndexedCandidates(
    const TypePairData& data, const LsiCorrelation& lsi_scores,
    AlignStats* stats) const {
  const size_t n = data.groups.size();
  SimilarityJoinOptions jopts;
  jopts.use_vsim = config_.use_vsim;
  jopts.use_lsim = config_.use_lsim;
  jopts.min_link_support = config_.min_link_support;
  SimilarityJoinIndex index(data, jopts);

  const bool need_all = config_.keep_all_pairs;
  std::vector<CandidatePair> pairs;
  SimilarityJoinIndex::Scratch scratch;
  std::vector<SimilarityEntry> sparse_row;
  for (size_t i = 0; i < n; ++i) {
    if (need_all || config_.use_lsi) {
      sparse_row.clear();
      index.ForEachNonZero(i, &scratch, [&](const SimilarityEntry& e) {
        sparse_row.push_back(e);
      });
      size_t k = 0;
      for (size_t j = i + 1; j < n; ++j) {
        CandidatePair p;
        p.i = i;
        p.j = j;
        if (k < sparse_row.size() && sparse_row[k].j == j) {
          p.vsim = sparse_row[k].vsim;
          p.lsim = sparse_row[k].lsim;
          ++k;
        }
        p.lsi = config_.use_lsi ? lsi_scores.Score(i, j) : 0.0;
        if (!need_all && p.vsim == 0.0 && p.lsim == 0.0 &&
            !(config_.use_lsi && p.lsi > config_.t_lsi)) {
          continue;
        }
        pairs.push_back(p);
      }
    } else {
      // No LSI and no all-pairs retention: only nonzero-similarity pairs
      // can ever enter the queue, so walk just the sparse row.
      index.ForEachNonZero(i, &scratch, [&](const SimilarityEntry& e) {
        CandidatePair p;
        p.i = i;
        p.j = e.j;
        p.vsim = e.vsim;
        p.lsim = e.lsim;
        pairs.push_back(p);
      });
    }
  }
  stats->postings_visited = scratch.postings_visited();
  return pairs;
}

AlignmentResult AttributeAligner::Align(const TypePairData& data) const {
  Clock::time_point align_start = Clock::now();
  AlignmentResult result;
  const size_t n = data.groups.size();
  if (n == 0) return result;
  result.stats.groups = n;
  result.stats.pairs_total = n * (n - 1) / 2;

  // --- Feature computation ---------------------------------------------------
  Clock::time_point phase_start = Clock::now();
  LsiCorrelation lsi_scores;
  if (config_.use_lsi) {
    lsi_scores = LsiCorrelation::Compute(data, config_.lsi);
  }
  result.stats.lsi_ms = MsSince(phase_start);

  phase_start = Clock::now();
  std::vector<CandidatePair> pairs =
      IndexedCandidates(data, lsi_scores, &result.stats);
  result.stats.pairs_generated = pairs.size();
  result.stats.pairs_pruned = result.stats.pairs_total - pairs.size();
  result.stats.feature_ms = MsSince(phase_start);

  phase_start = Clock::now();
  // Order by correlation, breaking ties (frequent at small sample sizes,
  // where many LSI scores saturate) by the strongest direct evidence.
  // Candidates enter lexicographically ordered and the input index is the
  // final tie-break, which reproduces a stable sort of the 40-byte pairs
  // while moving only 20-byte keys; the gather afterwards is one linear
  // copy. The sequence is the same whether or not zero-score pairs were
  // pruned.
  {
    struct OrderKey {
      double primary;
      double strongest;
      size_t idx;
    };
    std::vector<OrderKey> keys(pairs.size());
    for (size_t k = 0; k < pairs.size(); ++k) {
      const CandidatePair& p = pairs[k];
      keys[k].primary = config_.use_lsi ? p.lsi : std::max(p.vsim, p.lsim);
      keys[k].strongest = std::max(p.vsim, p.lsim);
      keys[k].idx = k;
    }
    std::sort(keys.begin(), keys.end(),
              [](const OrderKey& x, const OrderKey& y) {
                if (x.primary != y.primary) return x.primary > y.primary;
                if (x.strongest != y.strongest) {
                  return x.strongest > y.strongest;
                }
                return x.idx < y.idx;
              });
    std::vector<CandidatePair> ordered;
    ordered.reserve(pairs.size());
    for (const OrderKey& k : keys) ordered.push_back(pairs[k.idx]);
    pairs = std::move(ordered);
  }
  if (config_.keep_all_pairs) result.all_pairs = pairs;
  result.stats.order_ms = MsSince(phase_start);
  phase_start = Clock::now();

  // --- WikiMatch single step: no queue, no constraints, no revision ----------
  if (config_.single_step) {
    for (const auto& p : pairs) {
      if (std::max(p.vsim, p.lsim) > 0.0) {
        result.matches.AddPair(data.groups[p.i].key, data.groups[p.j].key);
        result.processed_order.push_back(p);
      }
    }
    result.stats.match_ms = MsSince(phase_start);
    result.stats.total_ms = MsSince(align_start);
    return result;
  }

  // --- Build the priority queue P --------------------------------------------
  std::vector<CandidatePair> queue;
  for (const auto& p : pairs) {
    bool admitted = config_.use_lsi ? p.lsi > config_.t_lsi
                                    : std::max(p.vsim, p.lsim) > 0.0;
    if (admitted) queue.push_back(p);
  }
  if (config_.random_order) {
    util::Rng rng(config_.random_seed);
    rng.Shuffle(&queue);
  }

  // Group-index membership bitmap mirroring result.matches: the main loop
  // consults membership twice per queued pair, and Contains() is a
  // string-pair map lookup. Index- and key-membership coincide only when
  // group keys are unique (SchemaBuilder guarantees it; hand-built data
  // might not), so verify once and fall back to Contains() on duplicates.
  std::vector<uint8_t> matched(n, 0);
  bool keys_unique = true;
  {
    std::vector<const eval::AttrKey*> keys;
    keys.reserve(n);
    for (const auto& g : data.groups) keys.push_back(&g.key);
    std::sort(keys.begin(), keys.end(),
              [](const eval::AttrKey* a, const eval::AttrKey* b) {
                return *a < *b;
              });
    for (size_t k = 1; k < keys.size(); ++k) {
      if (*keys[k - 1] == *keys[k]) {
        keys_unique = false;
        break;
      }
    }
  }
  auto is_matched = [&](size_t idx, const eval::AttrKey& key,
                        const eval::MatchSet& matches) {
    return keys_unique ? matched[idx] != 0 : matches.Contains(key);
  };

  // Index-space mirror of result.matches' clusters (again only valid with
  // unique keys): the absorb constraint needs every member of one cluster,
  // and MatchSet::ClusterOf copies the cluster into a std::set whose
  // string keys would each need a string-keyed LSI lookup. Here it is a
  // member-list walk with integer LSI lookups. Order does not matter — the
  // constraint is a conjunction over all members.
  std::vector<uint32_t> uf(n);
  std::vector<std::vector<uint32_t>> uf_members(n);
  if (keys_unique) {
    for (uint32_t k = 0; k < static_cast<uint32_t>(n); ++k) {
      uf[k] = k;
      uf_members[k].push_back(k);
    }
  }
  auto uf_find = [&](uint32_t x) {
    while (uf[x] != x) {
      uf[x] = uf[uf[x]];
      x = uf[x];
    }
    return x;
  };
  auto uf_unite = [&](uint32_t a, uint32_t b) {
    a = uf_find(a);
    b = uf_find(b);
    if (a == b) return;
    if (uf_members[a].size() < uf_members[b].size()) std::swap(a, b);
    uf[b] = a;
    uf_members[a].insert(uf_members[a].end(), uf_members[b].begin(),
                         uf_members[b].end());
    uf_members[b].clear();
    uf_members[b].shrink_to_fit();
  };

  // --- IntegrateMatches (Algorithm 2) -----------------------------------------
  auto integrate = [&](const CandidatePair& p, eval::MatchSet* matches) {
    const eval::AttrKey& ka = data.groups[p.i].key;
    const eval::AttrKey& kb = data.groups[p.j].key;
    bool has_a = is_matched(p.i, ka, *matches);
    bool has_b = is_matched(p.j, kb, *matches);
    if (!has_a && !has_b) {
      matches->AddPair(ka, kb);
      matched[p.i] = matched[p.j] = 1;
      if (keys_unique) {
        uf_unite(static_cast<uint32_t>(p.i), static_cast<uint32_t>(p.j));
      }
      return true;
    }
    if (has_a && has_b) return false;  // Both already matched: ignore.
    // Exactly one side is in an existing match m_j: absorb the other if it
    // correlates positively with every member of m_j.
    const eval::AttrKey& present = has_a ? ka : kb;
    size_t newcomer_idx = has_a ? p.j : p.i;
    if (config_.use_integrate_constraint && config_.use_lsi) {
      if (keys_unique) {
        size_t present_idx = has_a ? p.i : p.j;
        uint32_t root = uf_find(static_cast<uint32_t>(present_idx));
        for (uint32_t mi : uf_members[root]) {
          if (lsi_scores.Score(mi, newcomer_idx) <= config_.t_lsi) {
            return false;
          }
        }
      } else {
        for (const eval::AttrKey& member : matches->ClusterOf(present)) {
          size_t mi = data.GroupIndex(member);
          if (mi == SIZE_MAX) continue;
          if (lsi_scores.Score(mi, newcomer_idx) <= config_.t_lsi) {
            return false;
          }
        }
      }
    }
    matches->AddPair(ka, kb);
    matched[p.i] = matched[p.j] = 1;
    if (keys_unique) {
      uf_unite(static_cast<uint32_t>(p.i), static_cast<uint32_t>(p.j));
    }
    return true;
  };

  // --- Main loop (Algorithm 1) -------------------------------------------------
  std::vector<CandidatePair> uncertain;
  for (const auto& p : queue) {
    double strongest = std::max(p.vsim, p.lsim);
    if (strongest > config_.t_sim) {
      if (integrate(p, &result.matches)) result.processed_order.push_back(p);
    } else {
      uncertain.push_back(p);
    }
  }

  // --- ReviseUncertain (Section 3.4) -------------------------------------------
  if (config_.use_revise_uncertain && !uncertain.empty()) {
    std::vector<std::pair<double, CandidatePair>> revised;
    for (const auto& p : uncertain) {
      if (std::max(p.vsim, p.lsim) < config_.t_revise_min_sim) continue;
      double eg =
          keys_unique
              ? InductiveGroupingScoreImpl(
                    data, result.matches,
                    [&](size_t k) { return matched[k] != 0; }, p.i, p.j)
              : InductiveGroupingScore(data, result.matches, p.i, p.j);
      bool eligible = config_.use_inductive_grouping
                          ? eg > config_.t_inductive
                          : true;
      if (eligible) revised.emplace_back(eg, p);
    }
    // Process revived candidates in LSI order (the algorithm's ordering
    // signal), breaking ties by the inductive grouping score — eg decides
    // *admission*, correlation decides *priority*.
    std::stable_sort(revised.begin(), revised.end(),
                     [](const auto& x, const auto& y) {
                       if (x.second.lsi != y.second.lsi) {
                         return x.second.lsi > y.second.lsi;
                       }
                       return x.first > y.first;
                     });
    for (const auto& [eg, p] : revised) {
      if (integrate(p, &result.matches)) result.processed_order.push_back(p);
    }
  }

  result.stats.match_ms = MsSince(phase_start);
  result.stats.total_ms = MsSince(align_start);
  return result;
}

}  // namespace match
}  // namespace wikimatch
