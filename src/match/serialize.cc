#include "match/serialize.h"

namespace wikimatch {
namespace match {
namespace {

void EncodeAttrKey(const eval::AttrKey& key, util::BinaryWriter* w) {
  w->PutString(key.language);
  w->PutString(key.name);
}

util::Result<eval::AttrKey> DecodeAttrKey(util::BinaryReader* r) {
  eval::AttrKey key;
  WIKIMATCH_ASSIGN_OR_RETURN(key.language, r->ReadString());
  WIKIMATCH_ASSIGN_OR_RETURN(key.name, r->ReadString());
  return key;
}

void EncodeCandidatePair(const CandidatePair& pair, util::BinaryWriter* w) {
  w->PutU64(pair.i);
  w->PutU64(pair.j);
  w->PutDouble(pair.vsim);
  w->PutDouble(pair.lsim);
  w->PutDouble(pair.lsi);
}

util::Result<CandidatePair> DecodeCandidatePair(util::BinaryReader* r) {
  CandidatePair pair;
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t i, r->ReadU64());
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t j, r->ReadU64());
  pair.i = i;
  pair.j = j;
  WIKIMATCH_ASSIGN_OR_RETURN(pair.vsim, r->ReadDouble());
  WIKIMATCH_ASSIGN_OR_RETURN(pair.lsim, r->ReadDouble());
  WIKIMATCH_ASSIGN_OR_RETURN(pair.lsi, r->ReadDouble());
  return pair;
}

void EncodeFrequencies(const eval::AttrFrequencies& freq,
                       util::BinaryWriter* w) {
  w->PutU64(freq.size());
  for (const auto& [key, count] : freq) {
    EncodeAttrKey(key, w);
    w->PutDouble(count);
  }
}

util::Result<eval::AttrFrequencies> DecodeFrequencies(
    util::BinaryReader* r) {
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t size, r->ReadU64());
  eval::AttrFrequencies freq;
  for (uint64_t i = 0; i < size; ++i) {
    auto key = DecodeAttrKey(r);
    if (!key.ok()) return key.status();
    WIKIMATCH_ASSIGN_OR_RETURN(double count, r->ReadDouble());
    freq.emplace(std::move(key).ValueOrDie(), count);
  }
  return freq;
}

void EncodePipelineStats(const PipelineStats& stats, util::BinaryWriter* w) {
  // Wall times are written as zero: snapshots must stay byte-identical for
  // the same inputs regardless of machine or thread count, so only the
  // deterministic join counters are persisted.
  w->PutDouble(0.0);
  w->PutDouble(0.0);
  w->PutDouble(0.0);
  w->PutU64(stats.type_pairs);
  w->PutU64(stats.align.groups);
  w->PutU64(stats.align.pairs_total);
  w->PutU64(stats.align.pairs_generated);
  w->PutU64(stats.align.pairs_pruned);
  w->PutU64(stats.align.postings_visited);
  w->PutDouble(0.0);
  w->PutDouble(0.0);
  w->PutDouble(0.0);
  w->PutDouble(0.0);
  w->PutDouble(0.0);
}

util::Result<PipelineStats> DecodePipelineStats(util::BinaryReader* r) {
  PipelineStats stats;
  WIKIMATCH_ASSIGN_OR_RETURN(stats.type_match_ms, r->ReadDouble());
  WIKIMATCH_ASSIGN_OR_RETURN(stats.schema_ms, r->ReadDouble());
  WIKIMATCH_ASSIGN_OR_RETURN(stats.total_ms, r->ReadDouble());
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t type_pairs, r->ReadU64());
  stats.type_pairs = type_pairs;
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t groups, r->ReadU64());
  stats.align.groups = groups;
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t pairs_total, r->ReadU64());
  stats.align.pairs_total = pairs_total;
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t pairs_generated, r->ReadU64());
  stats.align.pairs_generated = pairs_generated;
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t pairs_pruned, r->ReadU64());
  stats.align.pairs_pruned = pairs_pruned;
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t postings_visited, r->ReadU64());
  stats.align.postings_visited = postings_visited;
  WIKIMATCH_ASSIGN_OR_RETURN(stats.align.lsi_ms, r->ReadDouble());
  WIKIMATCH_ASSIGN_OR_RETURN(stats.align.feature_ms, r->ReadDouble());
  WIKIMATCH_ASSIGN_OR_RETURN(stats.align.order_ms, r->ReadDouble());
  WIKIMATCH_ASSIGN_OR_RETURN(stats.align.match_ms, r->ReadDouble());
  WIKIMATCH_ASSIGN_OR_RETURN(stats.align.total_ms, r->ReadDouble());
  return stats;
}

util::Result<TypePairResult> DecodeTypePairResult(util::BinaryReader* r) {
  TypePairResult result;
  WIKIMATCH_ASSIGN_OR_RETURN(result.type_a, r->ReadString());
  WIKIMATCH_ASSIGN_OR_RETURN(result.type_b, r->ReadString());
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t num_duals, r->ReadU64());
  result.num_duals = num_duals;
  auto alignment = DecodeAlignmentResult(r);
  if (!alignment.ok()) return alignment.status();
  result.alignment = std::move(alignment).ValueOrDie();
  auto frequencies = DecodeFrequencies(r);
  if (!frequencies.ok()) return frequencies.status();
  result.frequencies = std::move(frequencies).ValueOrDie();
  return result;
}

}  // namespace

void EncodeDictionary(const TranslationDictionary& dictionary,
                      util::BinaryWriter* w) {
  w->PutU64(dictionary.entries().size());
  for (const auto& [key, translation] : dictionary.entries()) {
    const auto& [from_lang, to_lang, term] = key;
    w->PutString(from_lang);
    w->PutString(to_lang);
    w->PutString(term);
    w->PutString(translation);
  }
}

util::Result<TranslationDictionary> DecodeDictionary(
    util::BinaryReader* r) {
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t size, r->ReadU64());
  TranslationDictionary dictionary;
  for (uint64_t i = 0; i < size; ++i) {
    WIKIMATCH_ASSIGN_OR_RETURN(std::string from_lang, r->ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(std::string to_lang, r->ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(std::string term, r->ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(std::string translation, r->ReadString());
    dictionary.AddInOrder(std::move(from_lang), std::move(term),
                          std::move(to_lang), std::move(translation));
  }
  return dictionary;
}

void EncodeMatchSet(const eval::MatchSet& matches, util::BinaryWriter* w) {
  w->PutU8(matches.transitive() ? 1 : 0);
  if (matches.transitive()) {
    auto clusters = matches.Clusters();
    w->PutU64(clusters.size());
    for (const auto& cluster : clusters) {
      w->PutU64(cluster.size());
      for (const auto& key : cluster) EncodeAttrKey(key, w);
    }
  } else {
    auto pairs = matches.DirectPairs();
    w->PutU64(pairs.size());
    for (const auto& [a, b] : pairs) {
      EncodeAttrKey(a, w);
      EncodeAttrKey(b, w);
    }
  }
}

util::Result<eval::MatchSet> DecodeMatchSet(util::BinaryReader* r) {
  WIKIMATCH_ASSIGN_OR_RETURN(uint8_t transitive, r->ReadU8());
  eval::MatchSet matches(transitive != 0);
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t count, r->ReadU64());
  if (transitive != 0) {
    for (uint64_t i = 0; i < count; ++i) {
      WIKIMATCH_ASSIGN_OR_RETURN(uint64_t cluster_size, r->ReadU64());
      std::vector<eval::AttrKey> cluster;
      cluster.reserve(cluster_size);
      for (uint64_t j = 0; j < cluster_size; ++j) {
        auto key = DecodeAttrKey(r);
        if (!key.ok()) return key.status();
        cluster.push_back(std::move(key).ValueOrDie());
      }
      matches.AddCluster(cluster);
    }
  } else {
    for (uint64_t i = 0; i < count; ++i) {
      auto a = DecodeAttrKey(r);
      if (!a.ok()) return a.status();
      auto b = DecodeAttrKey(r);
      if (!b.ok()) return b.status();
      matches.AddPair(a.ValueOrDie(), b.ValueOrDie());
    }
  }
  return matches;
}

void EncodeAlignmentResult(const AlignmentResult& alignment,
                           util::BinaryWriter* w) {
  EncodeMatchSet(alignment.matches, w);
  w->PutU64(alignment.processed_order.size());
  for (const auto& pair : alignment.processed_order) {
    EncodeCandidatePair(pair, w);
  }
  w->PutU64(alignment.all_pairs.size());
  for (const auto& pair : alignment.all_pairs) EncodeCandidatePair(pair, w);
}

util::Result<AlignmentResult> DecodeAlignmentResult(util::BinaryReader* r) {
  AlignmentResult alignment;
  auto matches = DecodeMatchSet(r);
  if (!matches.ok()) return matches.status();
  alignment.matches = std::move(matches).ValueOrDie();
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t num_processed, r->ReadU64());
  alignment.processed_order.reserve(num_processed);
  for (uint64_t i = 0; i < num_processed; ++i) {
    auto pair = DecodeCandidatePair(r);
    if (!pair.ok()) return pair.status();
    alignment.processed_order.push_back(pair.ValueOrDie());
  }
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t num_all, r->ReadU64());
  alignment.all_pairs.reserve(num_all);
  for (uint64_t i = 0; i < num_all; ++i) {
    auto pair = DecodeCandidatePair(r);
    if (!pair.ok()) return pair.status();
    alignment.all_pairs.push_back(pair.ValueOrDie());
  }
  return alignment;
}

void EncodePipelineResult(const PipelineResult& result,
                          util::BinaryWriter* w) {
  w->PutU64(result.type_matches.size());
  for (const auto& tm : result.type_matches) {
    w->PutString(tm.type_a);
    w->PutString(tm.type_b);
    w->PutU64(tm.votes);
    w->PutDouble(tm.confidence);
  }
  w->PutU64(result.per_type.size());
  for (const auto& tr : result.per_type) {
    w->PutString(tr.type_a);
    w->PutString(tr.type_b);
    w->PutU64(tr.num_duals);
    EncodeAlignmentResult(tr.alignment, w);
    EncodeFrequencies(tr.frequencies, w);
  }
  // Appended after the v1 payload so snapshots written before stats existed
  // still decode (the reader checks AtEnd before reading them).
  EncodePipelineStats(result.stats, w);
  // Second append: per-unit join counters, so an incremental rebuild that
  // reuses units loaded from a snapshot can re-aggregate the exact stats a
  // from-scratch run would report. Readers that predate this block stop
  // after the aggregate stats and ignore the trailing bytes.
  w->PutU64(result.per_type.size());
  for (const auto& tr : result.per_type) {
    const AlignStats& s = tr.alignment.stats;
    w->PutU64(s.groups);
    w->PutU64(s.pairs_total);
    w->PutU64(s.pairs_generated);
    w->PutU64(s.pairs_pruned);
    w->PutU64(s.postings_visited);
  }
}

util::Result<PipelineResult> DecodePipelineResult(util::BinaryReader* r) {
  PipelineResult result;
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t num_types, r->ReadU64());
  result.type_matches.reserve(num_types);
  for (uint64_t i = 0; i < num_types; ++i) {
    TypeMatch tm;
    WIKIMATCH_ASSIGN_OR_RETURN(tm.type_a, r->ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(tm.type_b, r->ReadString());
    WIKIMATCH_ASSIGN_OR_RETURN(uint64_t votes, r->ReadU64());
    tm.votes = votes;
    WIKIMATCH_ASSIGN_OR_RETURN(tm.confidence, r->ReadDouble());
    result.type_matches.push_back(std::move(tm));
  }
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t num_pairs, r->ReadU64());
  result.per_type.reserve(num_pairs);
  for (uint64_t i = 0; i < num_pairs; ++i) {
    auto tr = DecodeTypePairResult(r);
    if (!tr.ok()) return tr.status();
    result.per_type.push_back(std::move(tr).ValueOrDie());
  }
  // Everything past here is the appended stats region: optional, and — to
  // keep the append back-compatible in both directions — a payload that
  // ends partway through it decodes as "stats absent" rather than erroring.
  // Transport corruption is still caught by the section CRC upstream.
  if (!r->AtEnd()) {
    auto stats = DecodePipelineStats(r);
    if (!stats.ok()) {
      if (stats.status().code() == util::StatusCode::kOutOfRange) {
        return result;
      }
      return stats.status();
    }
    result.stats = std::move(stats).ValueOrDie();
  }
  if (!r->AtEnd()) {
    auto count = r->ReadU64();
    if (!count.ok() || count.ValueOrDie() != result.per_type.size()) {
      return result;
    }
    std::vector<AlignStats> per_unit(result.per_type.size());
    for (auto& s : per_unit) {
      size_t* fields[] = {&s.groups, &s.pairs_total, &s.pairs_generated,
                          &s.pairs_pruned, &s.postings_visited};
      for (size_t* field : fields) {
        auto v = r->ReadU64();
        if (!v.ok()) return result;  // truncated inside the append: absent
        *field = static_cast<size_t>(v.ValueOrDie());
      }
    }
    for (size_t i = 0; i < per_unit.size(); ++i) {
      result.per_type[i].alignment.stats = per_unit[i];
    }
  }
  return result;
}

}  // namespace match
}  // namespace wikimatch
