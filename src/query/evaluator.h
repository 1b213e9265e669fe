// c-query evaluation over a Corpus (the WikiQuery substrate of Section 5).
//
// Single-type parts filter the type's infoboxes; multi-type conjunctions
// join through hyperlinks: an answer for the primary (first) part must
// link to an article satisfying each secondary part.
//
// The evaluator indexes its language once, at construction, as columns:
// per entity type the ascending ids of its articles with an infobox, and
// per attribute name one row for each of those articles that has the
// attribute, holding its first value (Infobox::Find semantics) already
// normalized for matching. A query then costs one pass over the columns
// its constraints name, not a scan of every infobox of the type.

#ifndef WIKIMATCH_QUERY_EVALUATOR_H_
#define WIKIMATCH_QUERY_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "query/c_query.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace query {

/// \brief One ranked answer.
struct Answer {
  wiki::ArticleId article = wiki::kInvalidArticle;
  /// Number of constraints the article satisfied (ranking key).
  double score = 0.0;
  /// Projected values, in constraint order across the primary part.
  std::vector<std::string> projections;
};

/// \brief Evaluation options.
struct EvaluatorOptions {
  /// Maximum answers returned (the case study presents the top 20).
  size_t top_k = 20;
};

/// \brief Evaluates c-queries against one language's infoboxes.
///
/// A constraint holds for an article when any of its attribute
/// alternatives is present and that attribute's first value passes: '=?'
/// needs presence only; '=' needs the constant inside the normalized
/// text, a normalized link anchor, or a link target; '<', '>', '<=' and
/// '>=' compare the largest number in the text.
class QueryEvaluator {
 public:
  /// \brief Indexes every type of `language` in `corpus` (finalized),
  /// one type per task on the global thread pool; the index is the same at
  /// any pool size. `corpus` must outlive the evaluator unchanged.
  QueryEvaluator(const wiki::Corpus* corpus, std::string language);

  /// \brief Runs `q`; answers are articles of the first part's type that
  /// satisfy every constraint and join, in ascending id order (each scores
  /// the number of constraints plus joins, so score order is id order).
  ///
  /// Returns OK with an empty list when nothing matches; NotFound when the
  /// queried type has no infoboxes at all.
  util::Result<std::vector<Answer>> Run(const CQuery& q,
                                        const EvaluatorOptions& options
                                        = {}) const;

 private:
  // One attribute of one type: a row per article that has the attribute,
  // in ascending article order. A row's searchable strings lie back to
  // back in `blob`: the normalized text, then each link's normalized
  // anchor and target unless the text (or, for a target, its anchor)
  // already contains it.
  struct Column {
    std::vector<uint32_t> position;  ///< row -> index into TypeIndex::ids
    std::vector<uint32_t> row_end;     ///< row -> one past its last string
    std::vector<uint32_t> string_end;  ///< string -> one past its last byte
    std::string blob;
    /// The rows whose text holds a number: their positions, and the
    /// largest number in each text.
    std::vector<uint32_t> number_position;
    std::vector<double> number;
  };

  struct TypeIndex {
    std::vector<wiki::ArticleId> ids;  ///< ascending
    std::map<std::string, Column> columns;  ///< by attribute name
  };

  /// One bit per position of TypeIndex::ids.
  using Bitmap = std::vector<uint64_t>;

  static TypeIndex BuildType(const wiki::Corpus& corpus,
                             std::vector<wiki::ArticleId> ids);
  /// Positions of `type` satisfying every constraint of `part`.
  static Bitmap Filter(const TypeIndex& type, const TypeQuery& part);

  const wiki::Corpus* corpus_;
  std::string language_;
  std::map<std::string, TypeIndex> types_;
};

}  // namespace query
}  // namespace wikimatch

#endif  // WIKIMATCH_QUERY_EVALUATOR_H_
