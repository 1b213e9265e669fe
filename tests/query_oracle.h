// Reference c-query evaluator for differential tests: the QueryEvaluator
// of the query module before it gained a per-type column index. It scans
// every article of the queried type per request, looks each attribute up
// with Infobox::Find and normalizes every cell text and link anchor on
// the way; it is kept here only to pin the indexed evaluator's results,
// answer for answer and error for error.

#ifndef WIKIMATCH_TESTS_QUERY_ORACLE_H_
#define WIKIMATCH_TESTS_QUERY_ORACLE_H_

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "query/c_query.h"
#include "query/evaluator.h"
#include "text/normalize.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace wikimatch {
namespace query_oracle {

using query::Answer;
using query::Constraint;
using query::CQuery;
using query::EvaluatorOptions;
using query::Op;
using query::TypeQuery;

class QueryEvaluator {
 public:
  QueryEvaluator(const wiki::Corpus* corpus, std::string language);

  util::Result<std::vector<Answer>> Run(const CQuery& q,
                                        const EvaluatorOptions& options
                                        = {}) const;

  static bool Satisfies(const wiki::Infobox& box, const Constraint& c);

 private:
  const wiki::Corpus* corpus_;
  std::string language_;
};

namespace detail {

// Largest number appearing in `s`, if any. Comparisons test the largest
// number so that date values ("4 de junho de 1975") compare on the year,
// not the day.
inline std::optional<double> LargestNumber(const std::string& s) {
  std::optional<double> best;
  size_t i = 0;
  while (i < s.size()) {
    if (std::isdigit(static_cast<unsigned char>(s[i]))) {
      char* end = nullptr;
      double v = std::strtod(s.c_str() + i, &end);
      if (!best.has_value() || v > *best) best = v;
      i = static_cast<size_t>(end - s.c_str());
    } else {
      ++i;
    }
  }
  return best;
}

inline bool ValueSatisfies(const wiki::AttributeValue& value,
                           const Constraint& c) {
  if (c.is_projection) return true;
  if (c.op == Op::kEq) {
    std::string text = text::NormalizeValue(value.text);
    if (text.find(c.value) != std::string::npos) return true;
    for (const auto& link : value.links) {
      if (text::NormalizeValue(link.anchor).find(c.value) !=
              std::string::npos ||
          link.target.find(c.value) != std::string::npos) {
        return true;
      }
    }
    return false;
  }
  // Numeric comparison.
  auto num = LargestNumber(value.text);
  if (!num.has_value()) return false;
  switch (c.op) {
    case Op::kLt:
      return *num < c.number;
    case Op::kGt:
      return *num > c.number;
    case Op::kLe:
      return *num <= c.number;
    case Op::kGe:
      return *num >= c.number;
    case Op::kEq:
      return false;  // handled above
  }
  return false;
}

}  // namespace detail

inline QueryEvaluator::QueryEvaluator(const wiki::Corpus* corpus,
                               std::string language)
    : corpus_(corpus), language_(std::move(language)) {}

inline bool QueryEvaluator::Satisfies(const wiki::Infobox& box,
                               const Constraint& c) {
  for (const auto& attr : c.attributes) {
    const wiki::AttributeValue* value = box.Find(attr);
    if (value != nullptr && detail::ValueSatisfies(*value, c)) return true;
  }
  return false;
}

inline util::Result<std::vector<Answer>> QueryEvaluator::Run(
    const CQuery& q, const EvaluatorOptions& options) const {
  if (q.parts.empty()) {
    return util::Status::InvalidArgument("empty query");
  }
  const TypeQuery& primary = q.parts[0];
  const auto& candidates = corpus_->ArticlesOfType(language_, primary.type);
  if (candidates.empty()) {
    return util::Status::NotFound("no infoboxes of type " + primary.type +
                                  " in " + language_);
  }

  // Pre-evaluate secondary parts: sets of satisfying article titles.
  std::vector<std::set<std::string>> secondary_titles;
  for (size_t p = 1; p < q.parts.size(); ++p) {
    const TypeQuery& part = q.parts[p];
    std::set<std::string> titles;
    for (wiki::ArticleId id : corpus_->ArticlesOfType(language_, part.type)) {
      const wiki::Article& article = corpus_->Get(id);
      bool all = true;
      for (const auto& c : part.constraints) {
        if (!Satisfies(article.infobox.value(), c)) {
          all = false;
          break;
        }
      }
      if (all) titles.insert(article.title);
    }
    secondary_titles.push_back(std::move(titles));
  }

  std::vector<Answer> answers;
  for (wiki::ArticleId id : candidates) {
    const wiki::Article& article = corpus_->Get(id);
    const wiki::Infobox& box = article.infobox.value();
    double score = 0.0;
    bool all = true;
    std::vector<std::string> projections;
    for (const auto& c : primary.constraints) {
      if (!Satisfies(box, c)) {
        all = false;
        break;
      }
      score += 1.0;
      if (c.is_projection) {
        for (const auto& attr : c.attributes) {
          const wiki::AttributeValue* value = box.Find(attr);
          if (value != nullptr) {
            projections.push_back(value->text);
            break;
          }
        }
      }
    }
    if (!all) continue;
    // Join through hyperlinks: the answer must link to (or be linked from)
    // an article satisfying each secondary part.
    for (const auto& titles : secondary_titles) {
      bool joined = false;
      for (const auto& [attr, value] : box.attributes) {
        for (const auto& link : value.links) {
          if (titles.count(link.target) > 0) {
            joined = true;
            break;
          }
        }
        if (joined) break;
      }
      if (!joined) {
        all = false;
        break;
      }
      score += 1.0;
    }
    if (!all) continue;
    answers.push_back(Answer{id, score, std::move(projections)});
  }

  std::stable_sort(answers.begin(), answers.end(),
                   [](const Answer& x, const Answer& y) {
                     if (x.score != y.score) return x.score > y.score;
                     return x.article < y.article;
                   });
  if (answers.size() > options.top_k) answers.resize(options.top_k);
  return answers;
}

}  // namespace query_oracle
}  // namespace wikimatch

#endif  // WIKIMATCH_TESTS_QUERY_ORACLE_H_
