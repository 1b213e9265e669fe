#include "match/pipeline.h"

#include <chrono>
#include <optional>
#include <sstream>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace match {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

std::string PipelineStats::ToString() const {
  std::ostringstream os;
  os << "type_pairs=" << type_pairs << " groups=" << align.groups
     << " pairs_total=" << align.pairs_total
     << " pairs_generated=" << align.pairs_generated
     << " pairs_pruned=" << align.pairs_pruned
     << " postings_visited=" << align.postings_visited
     << " type_match_ms=" << type_match_ms << " schema_ms=" << schema_ms
     << " lsi_ms=" << align.lsi_ms << " feature_ms=" << align.feature_ms
     << " order_ms=" << align.order_ms << " match_ms=" << align.match_ms
     << " align_ms=" << align.total_ms << " total_ms=" << total_ms;
  return os.str();
}

const TypePairResult* PipelineResult::FindByTypeB(
    const std::string& type_b) const {
  for (const auto& r : per_type) {
    if (r.type_b == type_b) return &r;
  }
  return nullptr;
}

void AlignTypePair(const wiki::Corpus& corpus,
                   const TranslationDictionary& dictionary,
                   const std::string& lang_a, const std::string& lang_b,
                   const TypeMatch& tm, const PipelineOptions& options,
                   std::optional<TypePairResult>* slot, double* schema_ms) {
  Clock::time_point build_start = Clock::now();
  auto data = BuildTypePairData(corpus, dictionary, lang_a, tm.type_a,
                                lang_b, tm.type_b, options.schema);
  *schema_ms = MsSince(build_start);
  if (!data.ok()) {
    WIKIMATCH_LOG(Warning) << "skipping type pair " << tm.type_a << "/"
                           << tm.type_b << ": " << data.status().ToString();
    return;
  }
  TypePairResult result;
  result.type_a = tm.type_a;
  result.type_b = tm.type_b;
  result.num_duals = data->num_duals;
  result.frequencies = data->Frequencies();
  result.alignment = AttributeAligner(options.matcher).Align(*data);
  *slot = std::move(result);
}

MatchPipeline::MatchPipeline(const wiki::Corpus* corpus) : corpus_(corpus) {
  dictionary_.Build(*corpus_);
}

util::Result<TypePairData> MatchPipeline::BuildPair(
    const std::string& lang_a, const std::string& type_a,
    const std::string& lang_b, const std::string& type_b,
    const SchemaBuilderOptions& options) const {
  return BuildTypePairData(*corpus_, dictionary_, lang_a, type_a, lang_b,
                           type_b, options);
}

util::Result<PipelineResult> MatchPipeline::Run(
    const std::string& lang_a, const std::string& lang_b,
    const PipelineOptions& options) const {
  Clock::time_point run_start = Clock::now();
  PipelineResult out;
  TypeMatcher type_matcher(options.type_min_votes,
                           options.type_min_confidence);
  out.type_matches = type_matcher.Match(*corpus_, lang_a, lang_b);
  out.stats.type_match_ms = MsSince(run_start);

  // Type pairs are independent: align each into its own slot so parallel
  // execution keeps deterministic output order. Per-slot timings are
  // summed after the join (workers never touch shared stats).
  const size_t n = out.type_matches.size();
  std::vector<std::optional<TypePairResult>> slots(n);
  std::vector<double> schema_ms(n, 0.0);
  util::thread_pool_for(n, options.num_threads, [&](size_t i) {
    AlignTypePair(*corpus_, dictionary_, lang_a, lang_b, out.type_matches[i],
                  options, &slots[i], &schema_ms[i]);
  });
  for (size_t i = 0; i < n; ++i) {
    out.stats.schema_ms += schema_ms[i];
    if (slots[i].has_value()) {
      ++out.stats.type_pairs;
      out.stats.align.Merge(slots[i]->alignment.stats);
      out.per_type.push_back(std::move(*slots[i]));
    }
  }
  out.stats.total_ms = MsSince(run_start);
  return out;
}

}  // namespace match
}  // namespace wikimatch
