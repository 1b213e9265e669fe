// Aligner feature-stage benchmark: naive all-pairs cosine loop vs the
// inverted-index sparse similarity join, single- vs multi-threaded, on a
// synthetic large-schema type pair (the paper's `settlement`-sized case).
// Emits one JSON object on stdout so runs are diffable across commits:
//
//   {"bench":"align","groups":...,"pairs":...,
//    "naive_ms":...,"indexed_ms":...,"speedup":...,
//    "indexed_mt_ms":...,"mt_threads":...,"mt_pool_workers":...,
//    "mt_speedup":...,"pruned_ms":...,"pruned_pairs_pruned":...,
//    "scalar_kernel_ms":...,"quantized_ms":...,
//    "quantized_max_abs_delta":...,
//    "postings_visited":...,"pairs_generated":...,"pairs_pruned":...,
//    "identical":true,"mt_identical":true,...}
//
// Runs, all over the same synthetic schema:
//   * naive        — the all-pairs reference path
//   * indexed      — the join (default vector kernel, exact weights)
//   * indexed_mt   — same, sharded across the shared pool; `mt_threads` is
//                    the *effective* participant count (calling thread plus
//                    engaged pool workers), not the requested knob — on a
//                    single-core box it honestly reads 1
//   * pruned       — keep_all_pairs off, the production configuration,
//                    over a schema extended with orphan groups whose pairs
//                    carry zero evidence, so pairs_pruned is exercised;
//                    matches must equal a full-materialization run over
//                    the same schema
//   * scalar       — kernel forced to the scalar reference, must be
//                    bit-identical to the vector run
//   * quantized    — use_exact_cosine off (fp32 posting weights); reports
//                    the max |Δscore| against the exact run and whether the
//                    derived matches moved
//
// `identical` asserts the indexed path reproduced the naive path's
// AlignmentResult bit-for-bit; `mt_identical` asserts thread-count
// invariance; `kernel_identical` and `pruned_identical` likewise. A false
// value in any of them is a correctness regression, not noise.
//
// Modes: pass --smoke (or set WIKIMATCH_BENCH_SMOKE=1) for a tiny corpus
// sanity run wired into tools/check.sh; scale the full run with
// WIKIMATCH_BENCH_GROUPS (groups per language, default 280).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "match/aligner.h"
#include "match/join_kernels.h"
#include "match/schema_builder.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Builds a settlement-sized synthetic TypePairData directly: two languages
// of `groups_per_lang` attribute groups over a shared (translated) value
// vocabulary with Zipfian term usage, link vectors over a smaller target
// space, and enough dual-document overlap for the LSI occurrence matrix.
// `orphans_per_lang` appends attribute groups with private single-group
// vocabularies, no links, and no dual-document overlap: their
// cross-language pairs carry zero direct evidence and zero LSI
// correlation, so the pruned (keep_all_pairs = false) configuration
// actually drops pairs instead of reporting pairs_pruned = 0 forever.
match::TypePairData SyntheticSchema(size_t groups_per_lang,
                                    size_t terms_per_group,
                                    size_t num_duals, uint64_t seed,
                                    size_t orphans_per_lang = 0) {
  util::Rng rng(seed);
  match::TypePairData data;
  data.lang_a = "pt";
  data.lang_b = "en";
  data.type_a = "localidade";
  data.type_b = "settlement";
  data.num_duals = num_duals;

  const size_t vocab = groups_per_lang * 12;
  std::vector<uint32_t> term_ids(vocab);
  for (size_t t = 0; t < vocab; ++t) {
    term_ids[t] = data.value_terms.GetOrAdd("term_" + std::to_string(t));
  }
  const size_t link_space = groups_per_lang * 4;

  for (size_t lang = 0; lang < 2; ++lang) {
    const std::string language = lang == 0 ? "pt" : "en";
    for (size_t g = 0; g < groups_per_lang; ++g) {
      match::AttributeGroup group;
      group.key.language = language;
      group.key.name = "attr_" + std::to_string(g);
      group.occurrences = 20.0 + static_cast<double>(rng.NextBounded(200));
      // Zipfian terms: frequent terms shared across many groups give the
      // inverted index realistic long posting lists.
      for (size_t t = 0; t < terms_per_group; ++t) {
        uint32_t id = term_ids[rng.NextZipf(vocab, 1.1)];
        group.values.Add(id, 1.0 + static_cast<double>(rng.NextBounded(5)));
      }
      // Roughly half the groups carry enough links to clear the support
      // floor; targets cluster so cross-language twins stay similar.
      if (rng.NextBool(0.55)) {
        size_t links = 4 + rng.NextBounded(12);
        for (size_t l = 0; l < links; ++l) {
          group.links.Add(static_cast<uint32_t>(rng.NextZipf(link_space, 1.05)),
                          1.0 + static_cast<double>(rng.NextBounded(3)));
        }
      }
      size_t docs = 3 + rng.NextBounded(num_duals / 2 + 1);
      for (size_t d = 0; d < docs; ++d) {
        group.dual_docs.insert(
            static_cast<uint32_t>(rng.NextBounded(num_duals)));
      }
      data.groups.push_back(std::move(group));
    }
    for (size_t g = 0; g < orphans_per_lang; ++g) {
      match::AttributeGroup group;
      group.key.language = language;
      group.key.name = "orphan_" + std::to_string(g);
      group.occurrences = 2.0 + static_cast<double>(rng.NextBounded(6));
      for (size_t t = 0; t < 8; ++t) {
        uint32_t id = data.value_terms.GetOrAdd(
            "orphan_" + language + "_" + std::to_string(g) + "_" +
            std::to_string(t));
        group.values.Add(id, 1.0);
      }
      data.groups.push_back(std::move(group));
    }
  }
  // Sparse mono-language co-occurrence counts for the grouping scores.
  const size_t n = data.groups.size();
  for (size_t e = 0; e < n * 4; ++e) {
    size_t i = rng.NextBounded(n);
    size_t j = rng.NextBounded(n);
    if (i == j) continue;
    if (data.groups[i].key.language != data.groups[j].key.language) continue;
    data.co_occur[{std::min(i, j), std::max(i, j)}] +=
        1.0 + static_cast<double>(rng.NextBounded(8));
  }
  return data;
}

bool SamePairs(const std::vector<match::CandidatePair>& a,
               const std::vector<match::CandidatePair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].i != b[k].i || a[k].j != b[k].j || a[k].vsim != b[k].vsim ||
        a[k].lsim != b[k].lsim || a[k].lsi != b[k].lsi) {
      return false;
    }
  }
  return true;
}

bool SameAlignment(const match::AlignmentResult& a,
                   const match::AlignmentResult& b) {
  return a.matches.Clusters() == b.matches.Clusters() &&
         SamePairs(a.processed_order, b.processed_order) &&
         SamePairs(a.all_pairs, b.all_pairs);
}

// Best-of-`reps` Align() wall time.
double TimeAlign(const match::AttributeAligner& aligner,
                 const match::TypePairData& data, int reps,
                 match::AlignmentResult* out) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    auto result = aligner.Align(data);
    double ms = MsSince(start);
    if (!result.ok()) {
      std::fprintf(stderr, "align: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (best < 0.0 || ms < best) best = ms;
    *out = std::move(result).ValueOrDie();
  }
  return best;
}

int Run(bool smoke) {
  const char* groups_env = std::getenv("WIKIMATCH_BENCH_GROUPS");
  size_t groups_per_lang =
      smoke ? 24
            : (groups_env != nullptr
                   ? static_cast<size_t>(std::atol(groups_env))
                   : 280);
  if (groups_per_lang < 4) groups_per_lang = 4;
  const size_t terms_per_group = smoke ? 24 : 160;
  const size_t num_duals = smoke ? 24 : 96;
  const int reps = smoke ? 1 : 3;

  match::TypePairData data =
      SyntheticSchema(groups_per_lang, terms_per_group, num_duals, 0xA11C4);

  match::MatcherConfig config;
  config.keep_all_pairs = true;  // both paths materialize everything
  config.lsi.rank = 16;          // keep the shared SVD off the critical path

  match::MatcherConfig naive_config = config;
  naive_config.use_indexed_join = false;
  match::MatcherConfig indexed_config = config;
  match::MatcherConfig indexed_mt_config = config;
  indexed_mt_config.num_threads = util::DefaultThreads();

  // Production configuration: no all-pairs retention, so the join prunes
  // pairs with zero direct evidence whose LSI cannot admit them either.
  match::MatcherConfig pruned_config = config;
  pruned_config.keep_all_pairs = false;

  // Opt-in fp32 posting weights.
  match::MatcherConfig quantized_config = config;
  quantized_config.use_exact_cosine = false;

  match::AlignmentResult naive_result, indexed_result, mt_result;
  match::AlignmentResult pruned_result, scalar_result, quantized_result;
  double naive_ms =
      TimeAlign(match::AttributeAligner(naive_config), data, reps,
                &naive_result);
  double indexed_ms =
      TimeAlign(match::AttributeAligner(indexed_config), data, reps,
                &indexed_result);
  double mt_ms = TimeAlign(match::AttributeAligner(indexed_mt_config), data,
                           reps, &mt_result);
  // The pruning run gets its own schema with orphan groups appended (the
  // headline runs keep the unchanged workload, so their timings stay
  // comparable across commits) plus a full-materialization reference run
  // to diff matches against.
  match::TypePairData pruned_data =
      SyntheticSchema(groups_per_lang, terms_per_group, num_duals, 0xA11C4,
                      std::max<size_t>(groups_per_lang / 8, 2));
  match::AlignmentResult pruned_ref_result;
  TimeAlign(match::AttributeAligner(indexed_config), pruned_data, 1,
            &pruned_ref_result);
  double pruned_ms = TimeAlign(match::AttributeAligner(pruned_config),
                               pruned_data, reps, &pruned_result);
  const match::JoinKernel scalar_kernel = match::JoinKernel::kScalar;
  match::SetJoinKernelForTest(&scalar_kernel);
  double scalar_ms = TimeAlign(match::AttributeAligner(indexed_config), data,
                               reps, &scalar_result);
  match::SetJoinKernelForTest(nullptr);
  double quantized_ms =
      TimeAlign(match::AttributeAligner(quantized_config), data, reps,
                &quantized_result);

  bool identical = SameAlignment(naive_result, indexed_result);
  bool mt_identical = SameAlignment(indexed_result, mt_result);
  bool kernel_identical = SameAlignment(indexed_result, scalar_result);
  // Pruning drops only pairs no stage can admit, so matches and the
  // processed order must not move (all_pairs is intentionally empty).
  bool pruned_identical =
      pruned_result.matches.Clusters() ==
          pruned_ref_result.matches.Clusters() &&
      SamePairs(pruned_result.processed_order,
                pruned_ref_result.processed_order);

  // Quantization precision: max |Δvsim|, |Δlsim| over the full scored
  // list, aligned by (i, j) — the ordering itself may legitimately move.
  double quantized_max_abs_delta = 0.0;
  {
    auto by_ij = [](std::vector<match::CandidatePair> v) {
      std::sort(v.begin(), v.end(),
                [](const match::CandidatePair& x,
                   const match::CandidatePair& y) {
                  return x.i != y.i ? x.i < y.i : x.j < y.j;
                });
      return v;
    };
    std::vector<match::CandidatePair> exact = by_ij(indexed_result.all_pairs);
    std::vector<match::CandidatePair> quant =
        by_ij(quantized_result.all_pairs);
    if (exact.size() == quant.size()) {
      for (size_t k = 0; k < exact.size(); ++k) {
        quantized_max_abs_delta =
            std::max({quantized_max_abs_delta,
                      std::abs(exact[k].vsim - quant[k].vsim),
                      std::abs(exact[k].lsim - quant[k].lsim)});
      }
    }
  }
  bool quantized_matches_identical =
      quantized_result.matches.Clusters() ==
      indexed_result.matches.Clusters();

  // Effective mt participants: thread_pool_for runs inline when the knob
  // is <= 1 and otherwise engages at most pool-size workers beside the
  // calling thread.
  const size_t requested = indexed_mt_config.num_threads;
  const size_t pool_workers =
      requested <= 1 ? 0 : util::ThreadPool::Global()->size();
  const size_t mt_threads =
      requested <= 1 ? 1 : std::min(requested, pool_workers + 1);

  const size_t n = data.groups.size();
  std::printf(
      "{\"bench\":\"align\",\"smoke\":%s,\"groups\":%zu,\"pairs\":%zu,"
      "\"naive_ms\":%.3f,\"indexed_ms\":%.3f,\"speedup\":%.2f,"
      "\"indexed_mt_ms\":%.3f,\"mt_threads\":%zu,\"mt_pool_workers\":%zu,"
      "\"mt_speedup\":%.2f,"
      "\"pruned_ms\":%.3f,\"pruned_pairs_generated\":%zu,"
      "\"pruned_pairs_pruned\":%zu,"
      "\"scalar_kernel_ms\":%.3f,\"quantized_ms\":%.3f,"
      "\"quantized_max_abs_delta\":%.3e,"
      "\"quantized_matches_identical\":%s,"
      "\"postings_visited\":%zu,\"pairs_generated\":%zu,"
      "\"pairs_pruned\":%zu,\"lsi_ms\":%.3f,\"feature_ms\":%.3f,"
      "\"order_ms\":%.3f,\"match_ms\":%.3f,"
      "\"identical\":%s,\"mt_identical\":%s,\"kernel_identical\":%s,"
      "\"pruned_identical\":%s}\n",
      smoke ? "true" : "false", n, n * (n - 1) / 2, naive_ms, indexed_ms,
      naive_ms / indexed_ms, mt_ms, mt_threads, pool_workers,
      naive_ms / mt_ms, pruned_ms, pruned_result.stats.pairs_generated,
      pruned_result.stats.pairs_pruned, scalar_ms, quantized_ms,
      quantized_max_abs_delta,
      quantized_matches_identical ? "true" : "false",
      indexed_result.stats.postings_visited,
      indexed_result.stats.pairs_generated,
      indexed_result.stats.pairs_pruned, indexed_result.stats.lsi_ms,
      indexed_result.stats.feature_ms, indexed_result.stats.order_ms,
      indexed_result.stats.match_ms, identical ? "true" : "false",
      mt_identical ? "true" : "false", kernel_identical ? "true" : "false",
      pruned_identical ? "true" : "false");
  if (!identical || !mt_identical || !kernel_identical ||
      !pruned_identical) {
    std::fprintf(stderr,
                 "FAIL: indexed join diverged from the naive path\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace wikimatch

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const char* env = std::getenv("WIKIMATCH_BENCH_SMOKE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') smoke = true;
  return wikimatch::Run(smoke);
}
