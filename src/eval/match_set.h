// MatchSet: sets of attribute surface forms that mean the same thing.
// Used both for system output (the matches M derived by an aligner) and for
// ground truth G. An attribute is identified by (language, normalized name).
//
// Two modes:
//  * transitive (default) — AddPair merges clusters (WikiMatch's match
//    components m = {a1 ~ a2 ~ ...} and the concept-level ground truth);
//  * pairwise — AddPair records exactly that pair (baselines like LSI
//    top-k, Bouma, and COMA++ emit independent correspondences, and closing
//    them transitively would fabricate pairs they never claimed).
//
// Transitive mode keeps its clusters explicitly: each key maps to its
// cluster, and each cluster holds its members in key order, so a lookup is
// one map search plus a walk over one cluster. Const methods never write,
// so any number of threads may read one set at once.

#ifndef WIKIMATCH_EVAL_MATCH_SET_H_
#define WIKIMATCH_EVAL_MATCH_SET_H_

#include <compare>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace wikimatch {
namespace eval {

/// \brief Identity of an attribute within one language's type schema.
struct AttrKey {
  std::string language;
  std::string name;

  auto operator<=>(const AttrKey&) const = default;
};

/// \brief A set of match clusters (transitive mode) or correspondences
/// (pairwise mode).
class MatchSet {
 public:
  /// \param transitive when true, AddPair/AddCluster merge overlapping
  /// clusters; when false, every added pair stands alone.
  explicit MatchSet(bool transitive = true) : transitive_(transitive) {}

  /// \brief Adds a cluster. In transitive mode, attributes already present
  /// are merged into the existing cluster; in pairwise mode every in-cluster
  /// pair is recorded.
  void AddCluster(const std::vector<AttrKey>& attrs);

  /// \brief Adds a two-element cluster / records the pair.
  void AddPair(const AttrKey& a, const AttrKey& b);

  /// \brief True iff `a` and `b` are matched (same cluster, or an added
  /// pair in pairwise mode).
  bool AreMatched(const AttrKey& a, const AttrKey& b) const;

  /// \brief True iff `a` appears in any cluster/pair.
  bool Contains(const AttrKey& a) const;

  /// \brief The cluster containing `a` (in pairwise mode: `a` plus its
  /// direct partners). Empty set when absent.
  std::set<AttrKey> ClusterOf(const AttrKey& a) const;

  /// \brief All clusters (transitive mode) or connected components of the
  /// pair graph (pairwise mode), deterministic order.
  std::vector<std::set<AttrKey>> Clusters() const;

  /// \brief All matched pairs (a, a') with a.language == `lang_a` and
  /// a'.language == `lang_b`.
  std::vector<std::pair<AttrKey, AttrKey>> CrossLanguagePairs(
      const std::string& lang_a, const std::string& lang_b) const;

  /// \brief Attributes of `lang` that have at least one correspondent in
  /// `other_lang`.
  std::set<AttrKey> AttributesWithCorrespondents(
      const std::string& lang, const std::string& other_lang) const;

  /// \brief The correspondents of `a` in `other_lang`.
  std::set<AttrKey> CorrespondentsOf(const AttrKey& a,
                                     const std::string& other_lang) const;

  /// \brief Pairwise mode: every stored pair exactly once (smaller key
  /// first), in deterministic order. Empty in transitive mode — serialize
  /// transitive sets through Clusters() instead.
  std::vector<std::pair<AttrKey, AttrKey>> DirectPairs() const;

  size_t NumClusters() const;
  bool empty() const { return cluster_of_.empty() && pairs_.empty(); }
  bool transitive() const { return transitive_; }

 private:
  // Transitive mode.
  size_t AddKey(const AttrKey& a);  // its cluster; a new singleton if absent
  void Union(const AttrKey& a, const AttrKey& b);
  const std::vector<AttrKey>* MembersOf(const AttrKey& a) const;
  // The clusters ordered by their smallest member.
  std::vector<const std::vector<AttrKey>*> OrderedClusters() const;

  bool transitive_;
  // Transitive mode: each key's slot in `clusters_`, and each slot's
  // members in key order. A merge empties the smaller side's slot.
  std::map<AttrKey, size_t> cluster_of_;
  std::vector<std::vector<AttrKey>> clusters_;
  // Pairwise mode: adjacency.
  std::map<AttrKey, std::set<AttrKey>> pairs_;
};

}  // namespace eval
}  // namespace wikimatch

#endif  // WIKIMATCH_EVAL_MATCH_SET_H_
