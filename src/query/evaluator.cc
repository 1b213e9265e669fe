#include "query/evaluator.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>

#include "text/normalize.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace query {

namespace {

// Largest number appearing in `s`, if any. Comparisons test the largest
// number so that date values ("4 de junho de 1975") compare on the year,
// not the day.
std::optional<double> LargestNumber(const std::string& s) {
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

bool Compare(double value, Op op, double constant) {
  switch (op) {
    case Op::kLt:
      return value < constant;
    case Op::kGt:
      return value > constant;
    case Op::kLe:
      return value <= constant;
    case Op::kGe:
      return value >= constant;
    case Op::kEq:
      return false;  // equality is containment, handled by the caller
  }
  return false;
}

void SetBit(std::vector<uint64_t>* bits, size_t i) {
  (*bits)[i / 64] |= uint64_t{1} << (i % 64);
}

// Calls fn(i) for each set bit i in ascending order while fn returns true.
template <typename Fn>
void ForEachBit(const std::vector<uint64_t>& bits, Fn fn) {
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      if (!fn(w * 64 + static_cast<size_t>(std::countr_zero(word)))) return;
    }
  }
}

// The first occurrence of `needle` (not empty) in [from, end), or nullptr.
// Each step tests eight start positions at once, a word at a time: one
// 64-bit word holds the eight bytes a match would start with, another the
// eight it would end with, and the step is skipped unless some byte equals
// the needle's first byte in the one and its last byte in the other. Only
// the positions of a flagged step are compared byte by byte.
const char* Search(const char* from, const char* end, std::string_view needle) {
  const size_t n = needle.size();
  if (static_cast<size_t>(end - from) < n) return nullptr;
  const char* const last_start = end - n;
  const char first = needle.front();
  const char last = needle.back();
  auto match_at = [&](const char* at) {
    return *at == first && at[n - 1] == last &&
           std::memcmp(at, needle.data(), n) == 0;
  };
  constexpr uint64_t kOnes = 0x0101010101010101;
  const uint64_t firsts = kOnes * static_cast<unsigned char>(first);
  const uint64_t lasts = kOnes * static_cast<unsigned char>(last);
  const char* p = from;
  for (; last_start - p >= 7; p += 8) {
    uint64_t heads;
    uint64_t tails;
    std::memcpy(&heads, p, 8);
    std::memcpy(&tails, p + n - 1, 8);
    // A zero byte of `x` is a position whose first and last bytes match.
    const uint64_t x = (heads ^ firsts) | (tails ^ lasts);
    if (((x - kOnes) & ~x & (kOnes << 7)) == 0) continue;
    for (const char* at = p; at < p + 8; ++at) {
      if (match_at(at)) return at;
    }
  }
  for (; p <= last_start; ++p) {
    if (match_at(p)) return p;
  }
  return nullptr;
}

// True iff some link of `box` targets a title in `titles` (sorted).
bool LinksInto(const wiki::Infobox& box,
               const std::vector<std::string_view>& titles) {
  for (const auto& [name, value] : box.attributes) {
    for (const auto& link : value.links) {
      if (std::binary_search(titles.begin(), titles.end(),
                             std::string_view(link.target))) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

QueryEvaluator::QueryEvaluator(const wiki::Corpus* corpus,
                               std::string language)
    : corpus_(corpus), language_(std::move(language)) {
  std::vector<std::string> types = corpus_->TypesIn(language_);
  std::vector<TypeIndex> built(types.size());
  util::thread_pool_for(types.size(), [&](size_t i) {
    built[i] =
        BuildType(*corpus_, corpus_->ArticlesOfType(language_, types[i]));
  });
  for (size_t i = 0; i < types.size(); ++i) {
    types_.emplace(std::move(types[i]), std::move(built[i]));
  }
}

QueryEvaluator::TypeIndex QueryEvaluator::BuildType(
    const wiki::Corpus& corpus, std::vector<wiki::ArticleId> ids) {
  TypeIndex type;
  type.ids = std::move(ids);
  std::sort(type.ids.begin(), type.ids.end());
  for (size_t i = 0; i < type.ids.size(); ++i) {
    const wiki::Infobox& box = corpus.Get(type.ids[i]).infobox.value();
    for (const auto& [name, value] : box.attributes) {
      if (box.Find(name) != &value) continue;  // a repeated attribute
      Column& column = type.columns[name];
      auto add = [&column](std::string_view s) {
        column.blob += s;
        column.string_end.push_back(static_cast<uint32_t>(column.blob.size()));
      };
      column.position.push_back(static_cast<uint32_t>(i));
      if (auto number = LargestNumber(value.text)) {
        column.number_position.push_back(static_cast<uint32_t>(i));
        column.number.push_back(*number);
      }
      const size_t text_begin = column.blob.size();
      text::AppendNormalizedValue(value.text, &column.blob);
      add({});  // ends the text's string
      const size_t text_size = column.blob.size() - text_begin;
      // A string inside another string of the row matches no constant that
      // the other does not, so it is left out: most anchors are part of
      // the text, and most targets spell their anchor.
      auto in_text = [&](std::string_view s) {
        return std::string_view(column.blob)
                   .substr(text_begin, text_size)
                   .find(s) != std::string_view::npos;
      };
      for (const auto& link : value.links) {
        const std::string anchor = text::NormalizeValue(link.anchor);
        const bool keep_anchor = !in_text(anchor);
        const bool keep_target = !in_text(link.target) &&
                                 anchor.find(link.target) == std::string::npos;
        if (keep_anchor) add(anchor);
        if (keep_target) add(link.target);
      }
      column.row_end.push_back(
          static_cast<uint32_t>(column.string_end.size()));
    }
  }
  for (auto& [name, column] : type.columns) {
    column.position.shrink_to_fit();
    column.row_end.shrink_to_fit();
    column.string_end.shrink_to_fit();
    column.blob.shrink_to_fit();
    column.number_position.shrink_to_fit();
    column.number.shrink_to_fit();
  }
  return type;
}

QueryEvaluator::Bitmap QueryEvaluator::Filter(const TypeIndex& type,
                                              const TypeQuery& part) {
  const size_t n = type.ids.size();
  Bitmap all((n + 63) / 64, ~uint64_t{0});
  if (n % 64 != 0) all.back() = (uint64_t{1} << (n % 64)) - 1;
  for (const Constraint& c : part.constraints) {
    Bitmap hit(all.size(), 0);
    for (const std::string& attr : c.attributes) {
      auto it = type.columns.find(attr);
      if (it == type.columns.end()) continue;
      const Column& col = it->second;
      const size_t rows = col.position.size();
      if (c.is_projection || (c.op == Op::kEq && c.value.empty())) {
        for (size_t r = 0; r < rows; ++r) SetBit(&hit, col.position[r]);
      } else if (c.op != Op::kEq) {
        for (size_t k = 0; k < col.number.size(); ++k) {
          if (Compare(col.number[k], c.op, c.number)) {
            SetBit(&hit, col.number_position[k]);
          }
        }
      } else {
        // One search over the whole column. A hit counts only if it ends
        // within the string it starts in; the first such hit marks its row
        // and the search resumes after that row.
        const std::string& needle = c.value;
        const char* blob = col.blob.data();
        const char* blob_end = blob + col.blob.size();
        size_t pos = 0;
        size_t s = 0;  // the string holding `pos` or after it
        size_t r = 0;  // the row holding string `s` or after it
        while (true) {
          const char* found = Search(blob + pos, blob_end, needle);
          if (found == nullptr) break;
          const size_t at = static_cast<size_t>(found - blob);
          while (col.string_end[s] <= at) ++s;
          if (at + needle.size() > col.string_end[s]) {
            pos = col.string_end[s];  // spans into the next string
            continue;
          }
          while (col.row_end[r] <= s) ++r;
          SetBit(&hit, col.position[r]);
          s = col.row_end[r];
          pos = col.string_end[s - 1];
        }
      }
    }
    for (size_t w = 0; w < all.size(); ++w) all[w] &= hit[w];
  }
  return all;
}

util::Result<std::vector<Answer>> QueryEvaluator::Run(
    const CQuery& q, const EvaluatorOptions& options) const {
  if (q.parts.empty()) {
    return util::Status::InvalidArgument("empty query");
  }
  const TypeQuery& primary = q.parts[0];
  auto primary_it = types_.find(primary.type);
  if (primary_it == types_.end()) {
    return util::Status::NotFound("no infoboxes of type " + primary.type +
                                  " in " + language_);
  }

  // Sorted titles of the articles satisfying each secondary part.
  std::vector<std::vector<std::string_view>> joined;
  for (size_t p = 1; p < q.parts.size(); ++p) {
    std::vector<std::string_view> titles;
    auto it = types_.find(q.parts[p].type);
    if (it != types_.end()) {
      const TypeIndex& type = it->second;
      ForEachBit(Filter(type, q.parts[p]), [&](size_t i) {
        titles.push_back(corpus_->Get(type.ids[i]).title);
        return true;
      });
      std::sort(titles.begin(), titles.end());
    }
    joined.push_back(std::move(titles));
  }

  const TypeIndex& type = primary_it->second;
  const double score =
      static_cast<double>(primary.constraints.size() + joined.size());
  std::vector<Answer> answers;
  ForEachBit(Filter(type, primary), [&](size_t i) {
    if (answers.size() >= options.top_k) return false;
    const wiki::ArticleId id = type.ids[i];
    const wiki::Infobox& box = corpus_->Get(id).infobox.value();
    for (const auto& titles : joined) {
      if (!LinksInto(box, titles)) return true;
    }
    Answer answer{id, score, {}};
    for (const Constraint& c : primary.constraints) {
      if (!c.is_projection) continue;
      for (const std::string& attr : c.attributes) {
        if (const wiki::AttributeValue* value = box.Find(attr)) {
          answer.projections.push_back(value->text);
          break;
        }
      }
    }
    answers.push_back(std::move(answer));
    return true;
  });
  return answers;
}

}  // namespace query
}  // namespace wikimatch
