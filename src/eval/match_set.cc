#include "eval/match_set.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace wikimatch {
namespace eval {

size_t MatchSet::AddKey(const AttrKey& a) {
  auto [it, inserted] = cluster_of_.try_emplace(a, clusters_.size());
  if (inserted) clusters_.push_back({a});
  return it->second;
}

void MatchSet::Union(const AttrKey& a, const AttrKey& b) {
  size_t into = AddKey(a);
  size_t from = AddKey(b);
  if (into == from) return;
  // The smaller cluster's members are re-pointed and merged into the larger.
  if (clusters_[into].size() < clusters_[from].size()) std::swap(into, from);
  std::vector<AttrKey>& kept = clusters_[into];
  std::vector<AttrKey>& moved = clusters_[from];
  for (const AttrKey& key : moved) cluster_of_.find(key)->second = into;
  std::vector<AttrKey> merged;
  merged.reserve(kept.size() + moved.size());
  std::merge(std::make_move_iterator(kept.begin()),
             std::make_move_iterator(kept.end()),
             std::make_move_iterator(moved.begin()),
             std::make_move_iterator(moved.end()),
             std::back_inserter(merged));
  kept = std::move(merged);
  std::vector<AttrKey>().swap(moved);
}

const std::vector<AttrKey>* MatchSet::MembersOf(const AttrKey& a) const {
  auto it = cluster_of_.find(a);
  return it == cluster_of_.end() ? nullptr : &clusters_[it->second];
}

std::vector<const std::vector<AttrKey>*> MatchSet::OrderedClusters() const {
  // Keys come in order, so a cluster's first key seen is its smallest.
  std::vector<const std::vector<AttrKey>*> out;
  for (const auto& [key, slot] : cluster_of_) {
    if (key == clusters_[slot].front()) out.push_back(&clusters_[slot]);
  }
  return out;
}

void MatchSet::AddCluster(const std::vector<AttrKey>& attrs) {
  if (attrs.empty()) return;
  if (transitive_) {
    AddKey(attrs[0]);
    for (size_t i = 1; i < attrs.size(); ++i) Union(attrs[0], attrs[i]);
    return;
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    for (size_t j = i + 1; j < attrs.size(); ++j) {
      AddPair(attrs[i], attrs[j]);
    }
  }
}

void MatchSet::AddPair(const AttrKey& a, const AttrKey& b) {
  if (transitive_) {
    Union(a, b);
    return;
  }
  pairs_[a].insert(b);
  pairs_[b].insert(a);
}

bool MatchSet::AreMatched(const AttrKey& a, const AttrKey& b) const {
  if (transitive_) {
    auto ia = cluster_of_.find(a);
    auto ib = cluster_of_.find(b);
    return ia != cluster_of_.end() && ib != cluster_of_.end() &&
           ia->second == ib->second;
  }
  auto it = pairs_.find(a);
  return it != pairs_.end() && it->second.count(b) > 0;
}

bool MatchSet::Contains(const AttrKey& a) const {
  if (transitive_) return cluster_of_.find(a) != cluster_of_.end();
  return pairs_.find(a) != pairs_.end();
}

std::set<AttrKey> MatchSet::ClusterOf(const AttrKey& a) const {
  if (transitive_) {
    const std::vector<AttrKey>* members = MembersOf(a);
    if (members == nullptr) return {};
    return std::set<AttrKey>(members->begin(), members->end());
  }
  std::set<AttrKey> out;
  if (!Contains(a)) return out;
  out.insert(a);
  for (const auto& partner : pairs_.at(a)) out.insert(partner);
  return out;
}

std::vector<std::set<AttrKey>> MatchSet::Clusters() const {
  if (transitive_) {
    std::vector<std::set<AttrKey>> out;
    for (const auto* members : OrderedClusters()) {
      out.emplace_back(members->begin(), members->end());
    }
    return out;
  }
  // Pairwise mode: connected components of the adjacency graph.
  std::set<AttrKey> visited;
  std::vector<std::set<AttrKey>> out;
  for (const auto& [key, partners] : pairs_) {
    if (visited.count(key) > 0) continue;
    std::set<AttrKey> component;
    std::vector<AttrKey> stack = {key};
    while (!stack.empty()) {
      AttrKey cur = stack.back();
      stack.pop_back();
      if (!component.insert(cur).second) continue;
      visited.insert(cur);
      auto it = pairs_.find(cur);
      if (it == pairs_.end()) continue;
      for (const auto& next : it->second) {
        if (component.count(next) == 0) stack.push_back(next);
      }
    }
    out.push_back(std::move(component));
  }
  return out;
}

std::vector<std::pair<AttrKey, AttrKey>> MatchSet::CrossLanguagePairs(
    const std::string& lang_a, const std::string& lang_b) const {
  std::vector<std::pair<AttrKey, AttrKey>> out;
  if (transitive_) {
    for (const auto* members : OrderedClusters()) {
      for (const auto& a : *members) {
        if (a.language != lang_a) continue;
        for (const auto& b : *members) {
          if (b.language != lang_b) continue;
          out.emplace_back(a, b);
        }
      }
    }
    return out;
  }
  for (const auto& [a, partners] : pairs_) {
    if (a.language != lang_a) continue;
    for (const auto& b : partners) {
      if (b.language == lang_b) out.emplace_back(a, b);
    }
  }
  return out;
}

std::set<AttrKey> MatchSet::AttributesWithCorrespondents(
    const std::string& lang, const std::string& other_lang) const {
  std::set<AttrKey> out;
  for (const auto& [a, b] : CrossLanguagePairs(lang, other_lang)) {
    out.insert(a);
  }
  return out;
}

std::set<AttrKey> MatchSet::CorrespondentsOf(
    const AttrKey& a, const std::string& other_lang) const {
  // Either range is in key order, so every insert lands at the end.
  std::set<AttrKey> out;
  auto add_from = [&](const auto& members) {
    for (const auto& member : members) {
      if (member.language == other_lang && !(member == a)) {
        out.insert(out.end(), member);
      }
    }
  };
  if (transitive_) {
    if (const std::vector<AttrKey>* members = MembersOf(a)) add_from(*members);
  } else if (auto it = pairs_.find(a); it != pairs_.end()) {
    add_from(it->second);
  }
  return out;
}

std::vector<std::pair<AttrKey, AttrKey>> MatchSet::DirectPairs() const {
  std::vector<std::pair<AttrKey, AttrKey>> out;
  for (const auto& [a, partners] : pairs_) {
    for (const auto& b : partners) {
      if (a < b) out.emplace_back(a, b);
    }
  }
  return out;
}

size_t MatchSet::NumClusters() const {
  if (transitive_) {
    return static_cast<size_t>(
        std::count_if(clusters_.begin(), clusters_.end(),
                      [](const auto& members) { return !members.empty(); }));
  }
  return Clusters().size();
}

}  // namespace eval
}  // namespace wikimatch
