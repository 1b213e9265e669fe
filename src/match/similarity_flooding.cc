#include "match/similarity_flooding.h"

#include <algorithm>
#include <cmath>

#include "match/aligner.h"
#include "match/lsi.h"

namespace wikimatch {
namespace match {

FloodingResult RunSimilarityFlooding(const TypePairData& data,
                                     const FloodingConfig& config) {
  FloodingResult out;

  std::vector<size_t> side_a;
  std::vector<size_t> side_b;
  for (size_t i = 0; i < data.groups.size(); ++i) {
    (data.groups[i].key.language == data.lang_a ? side_a : side_b)
        .push_back(i);
  }
  if (side_a.empty() || side_b.empty()) return out;

  LsiCorrelation lsi;
  if (config.lsi_blend > 0.0) lsi = LsiCorrelation::Compute(data, config.lsi);

  // Node space: all cross-language pairs.
  struct Node {
    size_t i;  // lang_a group
    size_t j;  // lang_b group
  };
  std::vector<Node> nodes;
  std::vector<double> sigma0;
  std::map<std::pair<size_t, size_t>, size_t> node_index;
  for (size_t i : side_a) {
    for (size_t j : side_b) {
      double feature = std::max(
          AttributeAligner::ValueSimilarity(data.groups[i], data.groups[j]),
          AttributeAligner::LinkSimilarity(data.groups[i], data.groups[j]));
      double initial = feature;
      if (config.lsi_blend > 0.0) {
        initial = (1.0 - config.lsi_blend) * feature +
                  config.lsi_blend * lsi.Score(i, j);
      }
      node_index[{i, j}] = nodes.size();
      nodes.push_back({i, j});
      sigma0.push_back(initial);
    }
  }

  // Propagation edges from co-occurrence: (a,b) -> (a',b') when a~a' and
  // b~b' co-occur on their respective sides. Weight g(a,a') * g(b,b'),
  // out-normalized per source node.
  struct Edge {
    size_t from;
    size_t to;
    double weight;
  };
  std::vector<Edge> edges;
  {
    // Neighbor lists per side from the co-occurrence table.
    std::map<size_t, std::vector<std::pair<size_t, double>>> neighbors;
    for (const auto& [key, count] : data.co_occur) {
      if (count <= 0.0) continue;
      double g = AttributeAligner::GroupingScore(data, key.first, key.second);
      if (g <= 0.0) continue;
      neighbors[key.first].emplace_back(key.second, g);
      neighbors[key.second].emplace_back(key.first, g);
    }
    std::vector<double> out_weight(nodes.size(), 0.0);
    for (size_t n = 0; n < nodes.size(); ++n) {
      auto na = neighbors.find(nodes[n].i);
      auto nb = neighbors.find(nodes[n].j);
      if (na == neighbors.end() || nb == neighbors.end()) continue;
      for (const auto& [a2, ga] : na->second) {
        if (data.groups[a2].key.language != data.lang_a) continue;
        for (const auto& [b2, gb] : nb->second) {
          if (data.groups[b2].key.language != data.lang_b) continue;
          auto it = node_index.find({a2, b2});
          if (it == node_index.end()) continue;
          double w = ga * gb;
          edges.push_back({n, it->second, w});
          out_weight[n] += w;
        }
      }
    }
    // Out-normalize.
    for (auto& e : edges) {
      if (out_weight[e.from] > 0.0) e.weight /= out_weight[e.from];
    }
  }

  // Fixpoint iteration.
  std::vector<double> sigma = sigma0;
  std::vector<double> next(nodes.size());
  int iter = 0;
  for (; iter < config.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (const auto& e : edges) {
      next[e.to] += e.weight * sigma[e.from];
    }
    double max_val = 0.0;
    for (size_t n = 0; n < nodes.size(); ++n) {
      next[n] = sigma0[n] + config.propagation_weight * next[n];
      max_val = std::max(max_val, next[n]);
    }
    if (max_val > 0.0) {
      for (auto& v : next) v /= max_val;
    }
    double delta = 0.0;
    for (size_t n = 0; n < nodes.size(); ++n) {
      delta = std::max(delta, std::fabs(next[n] - sigma[n]));
    }
    sigma.swap(next);
    if (delta < config.tolerance) {
      ++iter;
      break;
    }
  }
  out.iterations = iter;

  // Report converged similarities.
  out.pairs.reserve(nodes.size());
  out.similarity = sigma;
  for (const auto& node : nodes) {
    out.pairs.emplace_back(data.groups[node.i].key, data.groups[node.j].key);
  }

  // Selection: threshold + optional mutual-best filtering.
  std::map<size_t, double> best_of;
  for (size_t n = 0; n < nodes.size(); ++n) {
    best_of[nodes[n].i] = std::max(best_of[nodes[n].i], sigma[n]);
    best_of[nodes[n].j] = std::max(best_of[nodes[n].j], sigma[n]);
  }
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (sigma[n] < config.select_threshold) continue;
    if (config.reciprocal &&
        (sigma[n] < best_of[nodes[n].i] || sigma[n] < best_of[nodes[n].j])) {
      continue;
    }
    out.matches.AddPair(data.groups[nodes[n].i].key,
                        data.groups[nodes[n].j].key);
  }
  return out;
}

}  // namespace match
}  // namespace wikimatch
