// Reference transitive MatchSet for differential tests: eval::MatchSet's
// transitive mode before it kept explicit clusters. It is a lazy
// union-find over attribute keys whose root is always the smallest key of
// its cluster; every lookup path-compresses, and ClusterOf finds the root
// of every key of the set. It is kept here only to pin the cluster index's
// lookups, cluster order and encoded bytes. Single-threaded: its const
// lookups write.

#ifndef WIKIMATCH_TESTS_MATCH_SET_ORACLE_H_
#define WIKIMATCH_TESTS_MATCH_SET_ORACLE_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/match_set.h"
#include "util/binary_io.h"

namespace wikimatch {
namespace match_set_oracle {

using eval::AttrKey;

class MatchSet {
 public:
  void AddCluster(const std::vector<AttrKey>& attrs) {
    if (attrs.empty()) return;
    if (parent_.find(attrs[0]) == parent_.end()) parent_[attrs[0]] = attrs[0];
    for (size_t i = 1; i < attrs.size(); ++i) Union(attrs[0], attrs[i]);
  }

  void AddPair(const AttrKey& a, const AttrKey& b) { Union(a, b); }

  bool AreMatched(const AttrKey& a, const AttrKey& b) const {
    if (!Contains(a) || !Contains(b)) return false;
    return Find(a) == Find(b);
  }

  bool Contains(const AttrKey& a) const {
    return parent_.find(a) != parent_.end();
  }

  std::set<AttrKey> ClusterOf(const AttrKey& a) const {
    std::set<AttrKey> out;
    if (!Contains(a)) return out;
    AttrKey root = Find(a);
    for (const auto& [key, p] : parent_) {
      if (Find(key) == root) out.insert(key);
    }
    return out;
  }

  std::vector<std::set<AttrKey>> Clusters() const {
    std::map<AttrKey, std::set<AttrKey>> by_root;
    for (const auto& [key, p] : parent_) by_root[Find(key)].insert(key);
    std::vector<std::set<AttrKey>> out;
    for (auto& [root, members] : by_root) out.push_back(std::move(members));
    return out;
  }

  std::vector<std::pair<AttrKey, AttrKey>> CrossLanguagePairs(
      const std::string& lang_a, const std::string& lang_b) const {
    std::vector<std::pair<AttrKey, AttrKey>> out;
    for (const auto& cluster : Clusters()) {
      for (const auto& a : cluster) {
        if (a.language != lang_a) continue;
        for (const auto& b : cluster) {
          if (b.language == lang_b) out.emplace_back(a, b);
        }
      }
    }
    return out;
  }

  std::set<AttrKey> AttributesWithCorrespondents(
      const std::string& lang, const std::string& other_lang) const {
    std::set<AttrKey> out;
    for (const auto& [a, b] : CrossLanguagePairs(lang, other_lang)) {
      out.insert(a);
    }
    return out;
  }

  std::set<AttrKey> CorrespondentsOf(const AttrKey& a,
                                     const std::string& other_lang) const {
    std::set<AttrKey> out;
    for (const auto& member : ClusterOf(a)) {
      if (member.language == other_lang && !(member == a)) out.insert(member);
    }
    return out;
  }

  size_t NumClusters() const { return Clusters().size(); }

  /// The bytes match::EncodeMatchSet writes for a transitive set.
  std::string Encode() const {
    util::BinaryWriter w;
    w.PutU8(1);
    const auto clusters = Clusters();
    w.PutU64(clusters.size());
    for (const auto& cluster : clusters) {
      w.PutU64(cluster.size());
      for (const auto& key : cluster) {
        w.PutString(key.language);
        w.PutString(key.name);
      }
    }
    return w.TakeBuffer();
  }

 private:
  AttrKey Find(const AttrKey& a) const {
    auto it = parent_.find(a);
    if (it == parent_.end()) return a;
    if (it->second == a) return a;
    AttrKey root = Find(it->second);
    it->second = root;  // path compression
    return root;
  }

  void Union(const AttrKey& a, const AttrKey& b) {
    if (parent_.find(a) == parent_.end()) parent_[a] = a;
    if (parent_.find(b) == parent_.end()) parent_[b] = b;
    AttrKey ra = Find(a);
    AttrKey rb = Find(b);
    if (ra == rb) return;
    // Deterministic: the smaller key becomes the root.
    if (rb < ra) std::swap(ra, rb);
    parent_[rb] = ra;
  }

  mutable std::map<AttrKey, AttrKey> parent_;
};

}  // namespace match_set_oracle
}  // namespace wikimatch

#endif  // WIKIMATCH_TESTS_MATCH_SET_ORACLE_H_
